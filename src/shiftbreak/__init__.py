"""Hidden-shift recovery from prime-field power oracles.

Subpackages:
 - field_core: arithmetic substrate (contexts, subgroups, characters, their sums)
 - oracle: the sealed (x+s)^e oracle with call accounting
 - root_solver: deterministic binomial-equation solvers
 - shift_recovery: shift-recovery algorithms and call benchmarking
 - identity_test: shifted-power identity testing (known and unknown t)
 - bounds_lab: exact counters for the combinatorial quantities
 - cli: the `shiftbreak` experiment runner
"""

__version__ = "0.1.0"
