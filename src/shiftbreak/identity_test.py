"""Shifted-power identity testing.

Variant 1 (known t): probe x = 1/y - t and compare the oracle against the
locally computed (x+t)^e; the forbidden input -t is structurally unreachable.
Variant 2 (unknown t): probe both oracles on a shared prefix of F_p.

Probe-window sizes come either from closed-form exponents (theoretical mode)
or from exact counts (exact mode, soundness guaranteed): the longest coset
run for known t, and an exhaustive pair scan, capped at p = 10^4, for
unknown t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds_lab import longest_coset_run
from .errors import ConfigError, MismatchedParams, OutOfRange, RangeViolation, TooLarge
from .field_core import LOOP_CAP, ExponentParams, PrimeContext, power_table
from .oracle import ShiftOracle

EQUAL = "equal"
DISTINCT = "distinct"


@dataclass(frozen=True)
class HPolicy:
    mode: str = "exact"  # exact | theoretical
    epsilon: float = 0.05
    cap: int | None = None  # default p-1 at use sites

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be finite and positive")
        if self.mode not in ("exact", "theoretical"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.cap is not None and self.cap < 1:
            raise ConfigError("window cap must be at least 1")


def _cap(policy: HPolicy, p: int) -> int:
    return p - 1 if policy.cap is None else min(policy.cap, p - 1)


@functools.lru_cache(maxsize=4096)
def exact_unknown_window(p: int, e: int) -> int:
    """Largest first-disagreement probe index over all pairs s != t.

    Probing x = 0..this value is sound for the two-oracle test: some probe in
    the range separates every distinct pair.  Cost: a dense power table of p
    entries and up to p^2 / 2 pair scans, each as long as the pair's first
    disagreement; TooLarge where p^2 > LOOP_CAP, that is above p = 10^4.
    """
    if p * p > LOOP_CAP:
        raise TooLarge(f"p={p}: p^2 above loop cap")
    tab = power_table(p, e)
    worst = 0
    for s in range(p):
        for t in range(s + 1, p):
            x = 0
            while tab[(x + s) % p] == tab[(x + t) % p]:
                x += 1  # terminates: x = -t separates any pair
            if x > worst:
                worst = x
    return worst


def _power(base: int, exponent: float) -> float:
    """base ** exponent as a float (also for an int exponent), saturated to
    +inf where it overflows."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=4096)
def choose_h(
    ctx: PrimeContext, params: ExponentParams, variant: str, policy: HPolicy
) -> int:
    """Probe budget for the chosen variant and mode; TooLarge, before any
    query, where its modular exponentiations pass LOOP_CAP after the window
    cap.

    A known-t probe costs three (an inverse, the local power and the
    oracle's), so h probes cost 3h; the unknown-t window probes x = 0..h at
    two each (one per oracle), 2(h + 1).  Computed once per
    (p, e, variant, policy) and cached; errors are raised again on every
    call.  A theoretical closed form that overflows a float saturates, so
    the window cap decides.
    """
    p, e = ctx.p, params.e
    if e > (p - 1) // 2:
        raise RangeViolation(f"e={e} exceeds (p-1)/2")
    cap = _cap(policy, p)
    if policy.mode == "exact":
        if variant == "known_t":
            h = longest_coset_run(ctx, params) + 1
        else:
            h = exact_unknown_window(p, e)
    else:
        eps = policy.epsilon
        if variant == "known_t":
            w = min(_power(e, 0.25 + eps), _power(p, 0.25 + eps))
        else:
            w = min(
                max(_power(e, 0.5) * _power(p, eps), e**2 * _power(p, eps - 1)),
                math.sqrt(p) * math.log(p) ** 2,
            )
        h = math.ceil(min(w, cap))
    h = max(1, min(h, cap))
    pows = 3 * h if variant == "known_t" else 2 * (h + 1)
    if pows > LOOP_CAP:
        raise TooLarge(f"window h={h} needs {pows} exponentiations, above loop cap")
    return h


def test_known_t(
    oracle_s: ShiftOracle, t: int, policy: HPolicy = HPolicy()
) -> str:
    """Probe x = 1/y - t for y = 1..h; distinct on the first mismatch.
    OutOfRange unless 0 <= t < p, as the oracle checks s."""
    ctx, params = oracle_s.ctx, oracle_s.params
    p, e = ctx.p, params.e
    if not (0 <= t < p):
        raise OutOfRange(f"t={t} outside [0, {p})")
    h = choose_h(ctx, params, "known_t", policy)
    query = oracle_s.query
    for y in range(1, h + 1):
        # x = inv - t, so the local value (x + t)^e is inv^e
        inv = pow(y, -1, p)
        if query(inv - t) != pow(inv, e, p):
            return DISTINCT
    return EQUAL


def test_unknown_t(
    oracle_s: ShiftOracle, oracle_t: ShiftOracle, policy: HPolicy = HPolicy()
) -> str:
    """Probe both oracles at x = 0..h; distinct on the first disagreement."""
    if (
        oracle_s.ctx.p != oracle_t.ctx.p
        or oracle_s.params.e != oracle_t.params.e
    ):
        raise MismatchedParams("oracles disagree on (p, e)")
    ctx, params = oracle_s.ctx, oracle_s.params
    h = choose_h(ctx, params, "unknown_t", policy)
    query_s, query_t = oracle_s.query, oracle_t.query
    for x in range(h + 1):
        if query_s(x) != query_t(x):
            return DISTINCT
    return EQUAL
