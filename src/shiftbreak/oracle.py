"""The sealed shift oracle returning (x+s)^e with exact call accounting.

The secret s is name-mangled away from ordinary callers; recovery algorithms
must go through query().  Tests use unsafe_reveal_secret for ground-truth
assertions only.
"""

from __future__ import annotations

from .errors import ForbiddenInput, OutOfRange
from .field_core import ExponentParams, PrimeContext

# Shared by every oracle that forbids nothing.
NOTHING: frozenset[int] = frozenset()


class ShiftOracle:
    def __init__(
        self,
        ctx: PrimeContext,
        params: ExponentParams,
        s: int,
        forbidden: frozenset[int] = NOTHING,
    ):
        p = ctx.p
        if not (0 <= s < p):
            raise OutOfRange(f"s={s} outside [0, {p})")
        self.ctx = ctx
        self.params = params
        self.p = p
        self.e = params.e
        self.forbidden = frozenset([x % p for x in forbidden]) if forbidden else NOTHING
        self.__s = s
        self._calls = 0

    def query(self, x: int) -> int:
        if self.forbidden:
            x %= self.p
            if x in self.forbidden:
                # Rejections carry no information about s and are not counted.
                raise ForbiddenInput(f"x={x} is forbidden")
        self._calls += 1
        # pow reduces its base, so x + s needs no reduction of its own, and
        # an oracle that forbids nothing passes x to it unreduced
        return pow(x + self.__s, self.e, self.p)

    @property
    def calls(self) -> int:
        return self._calls


def new_oracle(
    ctx: PrimeContext,
    params: ExponentParams,
    s: int,
    forbidden: frozenset[int] = NOTHING,
) -> ShiftOracle:
    """A pass-through to ShiftOracle, kept because perfbench/workloads.py
    builds its oracles here and perfbench/tracer.py hooks it by name to sum
    their calls (ROADMAP item 15)."""
    return ShiftOracle(ctx, params, s, forbidden)


def unsafe_reveal_secret(oracle: ShiftOracle) -> int:
    """Test-harness backdoor; never used by recovery algorithms."""
    return oracle._ShiftOracle__s
