"""Error taxonomy shared by every module.

All errors derive from ShiftbreakError so callers can catch the library's
failures without swallowing unrelated exceptions.
"""


class ShiftbreakError(Exception):
    pass


# field_core
class NotPrime(ShiftbreakError):
    pass


class Overflow(ShiftbreakError):
    pass


class TooLarge(ShiftbreakError):
    pass


# oracle
class OutOfRange(ShiftbreakError):
    pass


class ForbiddenInput(ShiftbreakError):
    pass


# root_solver
class NotCoprime(ShiftbreakError):
    pass


class NotInSubgroup(ShiftbreakError):
    pass


class BadWitness(ShiftbreakError):
    pass


class IncompleteWitnesses(ShiftbreakError):
    pass


class NotDividing(ShiftbreakError):
    pass


class LengthMismatch(ShiftbreakError):
    pass


# shift_recovery
class Stalled(ShiftbreakError):
    pass


# identity_test
class RangeViolation(ShiftbreakError):
    pass


class MismatchedParams(ShiftbreakError):
    pass


# bounds_lab
class BadV(ShiftbreakError):
    pass


class DegenerateShift(ShiftbreakError):
    pass


class DegeneratePair(ShiftbreakError):
    pass


class PrincipalCharacter(ShiftbreakError):
    pass


class TooSmall(ShiftbreakError):
    pass


# cli
class ConfigError(ShiftbreakError):
    pass


class AlgorithmFailure(ShiftbreakError):
    pass
