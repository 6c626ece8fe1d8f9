"""Hidden-shift recovery algorithms.

Strategies, all honest oracle clients:
 - interpolation baseline (e+1 calls)
 - zero-call initial candidates + probe narrowing
 - smooth pigeonhole initial candidates (calls at x = 0 and 1)
 - randomized probing (seeded, mean O(1) calls)
 - large-e variant (m consecutive calls solved as one system, then narrowing)

Every seed is `consecutive_roots` on the answers at consecutive points
(`_seed_candidates`); a zero answer at x ends the queries, leaving -x.

`recover` runs any of them by name, through the `ALGORITHMS` table.  A
candidate set is a sorted tuple of shifts.  Every probe loop queries the
inputs it picks: an oracle's forbidden inputs serve identity testing with a
known t, and recovery with an oracle that forbids a probe it needs raises the
oracle's ForbiddenInput.  No call is made at a point where every candidate
left predicts the same answer, so no recovery queries a point twice.

Narrowing picks each probe by one statistic, r: the size of the largest
class of candidates that predict the same answer pair at x and zeta*x.  On a
whole zero-call coset S = t0*G_e (the first round of zero-call narrowing)
probes x and x*w, w in G_e, give S the same answer pairs and so the same r,
and a round evaluates only the first probe of each coset of G_e.  A window
segment costs at most 2|S| exponentiations per probe.

A trace is a plain list: ("r", probe, size before, size after) per narrowing
round, ("random", x, None, size after) per randomized draw, and ("scan", m,
p, size after) for the large-e scan, also when a zero answer ended it.
"""

from __future__ import annotations

import collections
import functools
import math
import random
from dataclasses import dataclass, replace

from .errors import ConfigError, Stalled, TooLarge
from .field_core import EXHAUSTIVE_CAP, LOOP_CAP, ExponentParams, PrimeContext
from .oracle import ShiftOracle
from .root_solver import (
    WitnessSet,
    all_eth_roots,
    candidates_from_consecutive_powers,
    consecutive_roots,
    full_witness_set,
)

FINAL_SET_THRESHOLD = 4  # resolve by x = -t queries at or below this size
STALL_FACTOR = 2  # a probe window that certifies no shrinkage grows by this


@dataclass(frozen=True)
class ProbePolicy:
    max_rounds: int = 64
    initial_window: int = 4


def interpolation_recover(oracle: ShiftOracle) -> int:
    """Query x = 0..e and read s off the X^(e-1) coefficient of (X+s)^e;
    TooLarge above e = EXHAUSTIVE_CAP."""
    p = oracle.ctx.p
    e = oracle.params.e
    if e > EXHAUSTIVE_CAP:
        raise TooLarge(f"e={e} above the exhaustive cap {EXHAUSTIVE_CAP}")
    answers = [oracle.query(x) for x in range(e + 1)]
    weights = _interp_weights(p, e)
    c_top = sum(a * w for a, w in zip(answers, weights)) % p
    return c_top * pow(e, -1, p) % p


@functools.lru_cache(maxsize=64)
def _interp_weights(p: int, e: int) -> tuple[int, ...]:
    """Weights w_i with sum A_i * w_i = coefficient of X^(e-1), nodes x_i = i.

    w_i = -(e(e+1)/2 - i) / prod_{j != i} (i - j), and the product is
    (-1)^(e-i) * i! * (e-i)!, so factorials and one modular inversion give
    every weight in O(e); e < p keeps the factorials invertible.
    """
    fact = [1] * (e + 1)
    for k in range(1, e + 1):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * (e + 1)
    inv_fact[e] = pow(fact[e], -1, p)
    for k in range(e, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    total = e * (e + 1) // 2
    return tuple(
        (-1) ** (e - i + 1) * (total - i) * inv_fact[i] * inv_fact[e - i] % p
        for i in range(e + 1)
    )


def initial_candidates_zero_call(
    oracle: ShiftOracle, witnesses: WitnessSet
) -> tuple[int, ...]:
    """One call at x = 0; S_0 is the full e-th root set of the answer.
    Off the recovery path: kept for the tests and perfbench/ (ROADMAP item 1)."""
    return all_eth_roots(oracle.ctx, oracle.params, oracle.query(0), witnesses)


def smooth_witnesses(ctx: PrimeContext, params: ExponentParams) -> WitnessSet:
    """The smooth pigeonhole's witnesses: the least ell-th power nonresidue
    for every prime ell | e (`full_witness_set`, cached per (p, e)).

    Every gamma_ell is then 0, so n = 1 and the pigeonhole queries x = 0, 1.
    The paper's search over x <= p^epsilon bounds only the local time of
    finding witnesses, while each unit of n costs an oracle call.
    Off the recovery path: kept for the tests and perfbench/ (ROADMAP item 1).
    """
    return full_witness_set(ctx, params)


def initial_candidates_smooth(
    oracle: ShiftOracle,
) -> tuple[tuple[int, ...], WitnessSet]:
    """n+1 = 2 calls at x = 0, 1; the exact set of x with (x + j)^e = A_j.
    Off the recovery path: kept for the tests and perfbench/ (ROADMAP item 1)."""
    wits = smooth_witnesses(oracle.ctx, oracle.params)
    answers = [oracle.query(x) for x in range(wits.n + 1)]
    cands = candidates_from_consecutive_powers(
        oracle.ctx, oracle.params, wits, answers
    )
    return cands, wits


def _zeta(ctx: PrimeContext) -> int:
    return pow(math.isqrt(ctx.p), -1, ctx.p)


def _probe_keys(p: int, e: int, S, x: int, zx: int) -> list[int]:
    """The answer pair ((t+x)^e, (t+zx)^e) each t in S predicts at the
    probe, packed into one integer: (answer at x) * p + (answer at zx)."""
    return [pow(t + x, e, p) * p + pow(t + zx, e, p) for t in S]


def _stat_r(keys) -> int:
    return max(collections.Counter(keys).values()) if keys else 0


def collision_stat_r(
    ctx: PrimeContext, params: ExponentParams, S, x: int
) -> int:
    """Max multiplicity of the pair ((t+x)^e, (t+zeta*x)^e) over t in S."""
    p = ctx.p
    return _stat_r(_probe_keys(p, params.e, S, x, _zeta(ctx) * x % p))


def collision_stat_R(
    ctx: PrimeContext, params: ExponentParams, S, x: int
) -> int:
    """Ordered pairs s1 != s2 in S with (x+s1)/(x+s2) in G_e.

    Equivalent to sum of c*(c-1) over fibers of t -> (x+t)^e, excluding the
    zero fiber (pairs with x+s2 = 0 are excluded, and x+s1 = 0 gives ratio 0).
    Narrowing picks its probes by collision_stat_r alone; this statistic is
    kept as a reference.
    """
    p, e = ctx.p, params.e
    counts = collections.Counter(pow(t + x, e, p) for t in S)
    return sum(c * (c - 1) for v, c in counts.items() if v != 0)


def narrow_candidates(
    oracle: ShiftOracle,
    S: tuple[int, ...],
    policy: ProbePolicy,
    trace: list | None = None,
    agreed: set[int] | None = None,
) -> tuple[int, ...]:
    """One narrowing round: scan a probe window, query, filter.

    The probe is the smallest x minimizing the r-statistic, the size of the
    largest class of predicted answer pairs at x and zeta*x; the window
    doubles while no probe certifies strict shrinkage (r < |S|).  The chosen
    probe's predicted pairs are kept from the scan and filter the set, so no
    power is computed twice.  A window segment costs at most 2|S| pow calls
    per probe; TooLarge before a segment whose bound, counted over every
    probe in it, passes LOOP_CAP.

    `agreed` holds points at which every member of S is known to predict the
    same answer.  A probe with x and zeta*x both there has r = |S| and can
    never be chosen, so it is skipped without computing a power.  Both of
    the chosen probe's points go through `_answer` and into `agreed`: the
    kept candidates agree there.

    With 0 in `agreed` and |S| = e, every member solves t^e = A, which has
    at most e roots, so S is all of them and S = S*w for each w in G_e.
    Then t -> t*w maps the pairs at x onto those at x*w, since
    ((t*w + x*w)^e, (t*w + zeta*x*w)^e) = ((t + x)^e, (t + zeta*x)^e): both
    probes have the same r.  Only the first probe of each coset x*G_e, keyed
    by x^e, is evaluated, so the chosen probe, the kept set and the calls
    are those of a full scan.
    """
    ctx, params = oracle.ctx, oracle.params
    p, e = ctx.p, params.e
    cap = p - 1
    size = len(S)
    h = min(max(policy.initial_window, 1), cap)
    zeta = _zeta(ctx)
    if agreed is None:
        agreed = set()
    # 0 agreed and |S| = e: S = S*w for w in G_e
    classes = set() if 0 in agreed and size == e else None
    scanned = 0
    while True:
        if (h - scanned) * 2 * size > LOOP_CAP:
            raise TooLarge(f"{h - scanned} probes on {size} candidates above loop cap")
        best_val, best_x, best_keys = None, None, None
        for x in range(scanned, h):
            zx = zeta * x % p
            if x in agreed and zx in agreed:
                continue
            if classes is not None:
                key = pow(x, e, p)
                if key in classes:
                    continue
                classes.add(key)
            keys = _probe_keys(p, e, S, x, zx)
            v = _stat_r(keys)
            if best_val is None or v < best_val:
                best_val, best_x, best_keys = v, x, keys
                if v <= 1:
                    break
        if best_val is not None and best_val < size:
            break
        scanned = h
        if h >= cap:
            raise Stalled(f"window cap {cap} reached without shrinkage")
        h = min(h * STALL_FACTOR, cap)
    zx = zeta * best_x % p
    keys = best_keys
    lo = _answer(oracle, best_x, min(keys) // p, max(keys) // p) * p
    # the keys of x's survivors, [lo] (no call) if S had lost the shift
    rest = [key for key in keys if lo <= key < lo + p] or [lo]
    want = lo + _answer(oracle, zx, min(rest) - lo, max(rest) - lo)
    kept = tuple(t for t, key in zip(S, keys) if key == want)
    agreed.update((best_x, zx))
    if trace is not None:
        trace.append(("r", best_x, size, len(kept)))
    return kept


def _answer(oracle: ShiftOracle, x: int, least: int, greatest: int) -> int:
    """The oracle's answer at x, where the candidates left predict answers
    from `least` to `greatest`.  The shift is a candidate, so when the two
    are equal that is the answer, and no call is made."""
    return least if least == greatest else oracle.query(x)


def _resolve_small(oracle: ShiftOracle, S) -> int:
    """Query x = -t in ascending order until the oracle returns 0; the
    largest candidate is returned unqueried once all others are ruled out.
    Stalled on an empty set."""
    if not S:
        raise Stalled("no candidate left; true shift lost upstream")
    *rest, last = sorted(S)
    for t in rest:
        if oracle.query(-t) == 0:
            return t
    return last


def recover_from_candidates(
    oracle: ShiftOracle,
    S0: tuple[int, ...],
    policy: ProbePolicy = ProbePolicy(),
    trace: list | None = None,
    agreed=(),
) -> int:
    """Iterated narrowing rounds until at most FINAL_SET_THRESHOLD
    candidates are left, then final resolution through x = -t queries.

    `agreed` lists the points S0 was built from (every member predicts the
    oracle's answer there); with the points each round queries, they are
    the probes `narrow_candidates` skips.  At most `policy.max_rounds`
    rounds run: Stalled before a round beyond them would start.

    At d = (p-1)/e = 1 every answer except the one at x = -s is 1, so no
    probe rules out more than one candidate: resolve directly.
    """
    if oracle.params.d == 1:
        return _resolve_small(oracle, S0)
    S = S0
    agreed = set(agreed)
    rounds = 0
    while len(S) > FINAL_SET_THRESHOLD:
        if rounds >= policy.max_rounds:
            raise Stalled(f"no resolution within {policy.max_rounds} rounds")
        S = narrow_candidates(oracle, S, policy, trace, agreed)
        rounds += 1
    return _resolve_small(oracle, S)


def _seed_candidates(oracle: ShiftOracle, points: range) -> tuple[int, ...]:
    """Query the points in order; the t with (t + x)^e = A_x at each x.  A
    zero answer at x ends the queries and leaves the one candidate -x.

    `consecutive_roots` solves the system in y = t + start.  The points start
    at 0 or 1, and at 1 no root y is 0 (that needs A_1 = 0), so t = y - start
    keeps the set sorted.  TooLarge above e = EXHAUSTIVE_CAP.
    """
    answers = []
    for x in points:
        a = oracle.query(x)
        if a == 0:
            return ((-x) % oracle.ctx.p,)
        answers.append(a)
    roots = consecutive_roots(oracle.ctx, oracle.params, answers)
    return tuple(y - points.start for y in roots)


def recover_zero_call_narrow(
    oracle: ShiftOracle,
    policy: ProbePolicy = ProbePolicy(),
    trace: list | None = None,
) -> int:
    S0 = _seed_candidates(oracle, range(1))
    return recover_from_candidates(oracle, S0, policy, trace, range(1))


def recover_smooth_narrow(
    oracle: ShiftOracle,
    policy: ProbePolicy = ProbePolicy(),
    trace: list | None = None,
) -> int:
    S0 = _seed_candidates(oracle, range(2))
    return recover_from_candidates(oracle, S0, policy, trace, range(2))


def calls_bound(p: int, d: int) -> int:
    """The least k with N_k >= p, where N_0 = 1 and N_k = d*N_(k-1) + 1: an
    answer lies in {0} and the d-th roots of unity, and 0 singles out one
    shift, so k calls tell at most N_k shifts apart, and any recovery that
    always finds s makes at least this many calls on some s."""
    k, n = 0, 1
    while n < p:
        k, n = k + 1, d * n + 1
    return k


def randomized_probe_count(p: int, e: int) -> int:
    """nu = floor(3 ln p / ln(p/e)) + 1 (natural logs)."""
    return int(3 * math.log(p) / math.log(p / e)) + 1


def recover_randomized(
    oracle: ShiftOracle,
    S0: tuple[int, ...],
    seed: int,
    trace: list | None = None,
) -> int:
    """Up to nu seeded uniform probes, filter, then x = -t resolution.

    Probing stops early once a single candidate remains; the nu budget is an
    upper bound on information-bearing probes.  A draw at which every
    candidate predicts one answer counts toward nu but makes no call.  At
    d = 1 a probe rules out at most one candidate, so the x = -t resolution
    runs directly.
    """
    ctx, params = oracle.ctx, oracle.params
    if params.d == 1:
        return _resolve_small(oracle, S0)
    p, e = ctx.p, params.e
    nu = randomized_probe_count(p, e)
    rng = random.Random(seed)
    S = set(S0)
    for _ in range(nu):
        if len(S) <= 1:
            break
        x = rng.randrange(p)
        keys = [pow(t + x, e, p) for t in S]
        a = _answer(oracle, x, min(keys), max(keys))
        S = {t for t, key in zip(S, keys) if key == a}
        if trace is not None:
            trace.append(("random", x, None, len(S)))
    return _resolve_small(oracle, S)


def large_e_call_count(p: int, e: int) -> int:
    """m = floor(ln p * ln e / (2 ln(p-1))) + 1 (natural logs)."""
    return int(math.log(p) * math.log(e) / (2 * math.log(p - 1))) + 1


def recover_large_e(
    oracle: ShiftOracle,
    policy: ProbePolicy = ProbePolicy(),
    trace: list | None = None,
) -> int:
    """Delegates to the small-e pipeline below e = p^0.9; otherwise scans
    x = 1..m (`_seed_candidates`), then narrows with a wide window."""
    p, e = oracle.ctx.p, oracle.params.e
    if e <= p**0.9:
        return recover_zero_call_narrow(oracle, policy, trace)
    m = large_e_call_count(p, e)
    points = range(1, m + 1)
    S = _seed_candidates(oracle, points)
    if trace is not None:
        trace.append(("scan", m, p, len(S)))
    h = int((p / e) * math.sqrt(p) * math.log(p) ** 2)
    wide = replace(policy, initial_window=h)
    return recover_from_candidates(oracle, S, wide, trace, points)


# Each algorithm's runner(oracle, policy, seed, trace).  A runner looks its
# recover_* function up when it is called, so a wrapper installed on the
# module attribute also sees the calls made by name.
ALGORITHMS = {
    "interpolation": lambda o, pol, seed, tr: interpolation_recover(o),
    "zero_call_narrow": lambda o, pol, seed, tr: recover_zero_call_narrow(o, pol, tr),
    "smooth_narrow": lambda o, pol, seed, tr: recover_smooth_narrow(o, pol, tr),
    "randomized": lambda o, pol, seed, tr: recover_randomized(
        o, _seed_candidates(o, range(1)), seed, tr
    ),
    "large_e": lambda o, pol, seed, tr: recover_large_e(o, pol, tr),
}


def recover(
    oracle: ShiftOracle,
    algorithm: str,
    policy: ProbePolicy = ProbePolicy(),
    seed: int = 0,
    trace: list | None = None,
) -> int:
    """Recover the shift with the algorithm named `algorithm`, a key of
    ALGORITHMS; `seed` is read by `randomized` only, and `interpolation`
    reads neither `policy` nor `trace`.  ConfigError for any other name;
    ForbiddenInput (from the oracle) if a probe the algorithm picks is
    forbidden."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm](oracle, policy, seed, trace)
