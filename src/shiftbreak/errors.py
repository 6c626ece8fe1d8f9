"""Error taxonomy shared by every module.

All errors derive from ShiftbreakError so callers can catch the library's
failures without swallowing unrelated exceptions.  Each class carries the
`shiftbreak` exit code and message label it is reported with.
"""


class ShiftbreakError(Exception):
    exit_code = 2
    label = "error"


class ResourceLimit(ShiftbreakError):
    """A stated cap, or a search that stalled, stopped the computation."""

    exit_code = 4
    label = "resource cap"


# field_core
class NotPrime(ShiftbreakError):
    pass


class Overflow(ShiftbreakError):
    pass


class TooLarge(ResourceLimit):
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
class Stalled(ResourceLimit):
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


class TooSmall(ResourceLimit):
    pass


# cli
class ConfigError(ShiftbreakError):
    label = "config error"


class AlgorithmFailure(ShiftbreakError):
    exit_code = 3
    label = "algorithm defect"
