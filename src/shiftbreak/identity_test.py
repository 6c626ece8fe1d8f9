"""Shifted-power identity testing.

Variant 1 (known t): probe x = 1/y - t and compare the oracle against the
locally computed (x+t)^e; the forbidden input -t is structurally unreachable.
Variant 2 (unknown t): probe both oracles on a shared prefix of F_p.

Probe-window sizes come either from the paper's closed-form exponents at
the fixed EPSILON (theoretical mode) or from exact counts (exact mode,
soundness guaranteed): the longest coset run for known t, and an exhaustive
pair scan, capped at p = 10^4, for unknown t.  Every window is capped at
p - 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds_lab import longest_coset_run
from .errors import ConfigError, MismatchedParams, OutOfRange, RangeViolation, TooLarge
from .field_core import (
    LOOP_CAP,
    ExponentParams,
    PrimeContext,
    make_context,
    make_params,
    power_table,
)
from .oracle import ShiftOracle

EQUAL = "equal"
DISTINCT = "distinct"
# The epsilon of the theoretical windows' closed forms.
EPSILON = 0.05


@dataclass(frozen=True)
class HPolicy:
    mode: str = "exact"  # exact | theoretical

    def __post_init__(self):
        if self.mode not in ("exact", "theoretical"):
            raise ConfigError(f"unknown mode {self.mode!r}")


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


@functools.lru_cache(maxsize=4096)
def window(p: int, e: int, variant: str, mode: str) -> int:
    """Probe budget for the chosen variant and mode, at most p - 1;
    TooLarge, before any query, where its modular exponentiations pass
    LOOP_CAP.

    A known-t probe costs three (an inverse, the local power and the
    oracle's), so h probes cost 3h; the unknown-t window probes x = 0..h at
    two each (one per oracle), 2(h + 1).  Theoretical windows read the
    closed forms at EPSILON: min(e, p)^(1/4 + eps) for known t, and
    min(max(e^(1/2) p^eps, e^2 p^(eps - 1)), p^(1/2) log(p)^2) for unknown
    t, neither of which overflows a float for p < 2^61.  A theoretical
    known-t window stays far under LOOP_CAP (p^0.3 < 322,738 probes), but
    unknown t at 2^61 - 1 and e = (p - 1)/2 asks for h = 2,714,722,608,904.
    Computed once per (p, e, variant, mode) and cached on plain integers
    and strings, so a warm test hashes no dataclass; errors are raised
    again on every call.
    """
    if e > (p - 1) // 2:
        raise RangeViolation(f"e={e} exceeds (p-1)/2")
    if mode == "exact":
        if variant == "known_t":
            # the key holds no context, so a miss rebuilds one
            ctx = make_context(p)
            h = longest_coset_run(ctx, make_params(ctx, e)) + 1
        else:
            h = exact_unknown_window(p, e)
    else:
        if variant == "known_t":
            w = min(e ** (0.25 + EPSILON), p ** (0.25 + EPSILON))
        else:
            w = min(
                max(e**0.5 * p**EPSILON, e**2 * p ** (EPSILON - 1)),
                math.sqrt(p) * math.log(p) ** 2,
            )
        h = math.ceil(w)
    h = max(1, min(h, p - 1))
    pows = 3 * h if variant == "known_t" else 2 * (h + 1)
    if pows > LOOP_CAP:
        raise TooLarge(f"window h={h} needs {pows} exponentiations, above loop cap")
    return h


def choose_h(
    ctx: PrimeContext, params: ExponentParams, variant: str, policy: HPolicy
) -> int:
    """The cached window(p, e, variant, mode) of this context and policy."""
    return window(ctx.p, params.e, variant, policy.mode)


def test_known_t(
    oracle_s: ShiftOracle, t: int, policy: HPolicy = HPolicy()
) -> str:
    """Probe x = 1/y - t for y = 1..h; distinct on the first mismatch.
    OutOfRange unless 0 <= t < p, as the oracle checks s."""
    p, e = oracle_s.p, oracle_s.e
    if not (0 <= t < p):
        raise OutOfRange(f"t={t} outside [0, {p})")
    h = window(p, e, "known_t", policy.mode)
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
    p, e = oracle_s.p, oracle_s.e
    if oracle_t.p != p or oracle_t.e != e:
        raise MismatchedParams("oracles disagree on (p, e)")
    h = window(p, e, "unknown_t", policy.mode)
    query_s, query_t = oracle_s.query, oracle_t.query
    for x in range(h + 1):
        if query_s(x) != query_t(x):
            return DISTINCT
    return EQUAL
