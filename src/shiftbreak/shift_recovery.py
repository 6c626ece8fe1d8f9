"""Hidden-shift recovery algorithms.

Strategies, all honest oracle clients:
 - interpolation baseline (e+1 calls)
 - zero-call initial candidates + probe narrowing
 - smooth pigeonhole initial candidates (calls at x = 0 and 1)
 - randomized probing (seeded, mean O(1) calls)
 - large-e variant (m consecutive calls solved as one system, then narrowing)

Every seed is `consecutive_roots` on the answers at consecutive points
(`_seed_candidates`); an answer that leaves one candidate ends the queries:
a zero answer at x leaves -x, and at e = 1 any answer does.

`recover` runs any of them by name, through the `ALGORITHMS` table.  A
candidate set is a sorted tuple of shifts.  Every probe loop queries the
inputs it picks: an oracle's forbidden inputs serve identity testing with a
known t, and recovery with an oracle that forbids a probe it needs raises the
oracle's ForbiddenInput.  No call is made at a point where every candidate
left predicts the same answer, so no recovery queries a point twice.

Narrowing has one rule: each round queries the point x whose largest class
of candidates predicting the same answer (t + x)^e is smallest, keeps the
class that holds the answer, and rounds repeat until one candidate is left.
That is adaptive search with (d + 1)-ary answers, one call per round.  On a
whole zero-call coset S = t0*G_e (the first round of zero-call narrowing)
points x and x*w, w in G_e, give S the same classes, and a round evaluates
only the first point of each coset of G_e.  A window segment costs |S|
exponentiations per point.

A trace is a plain list: ("narrow", x, size before, size after) per
narrowing round, ("random", x, None, size after) per randomized draw, and
("scan", m, p, size after) for the large-e scan, also when a zero answer
ended it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
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
    c_top = sum(map(operator.mul, answers, weights)) % p
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
    weights = []
    sign = 1 if e % 2 else -1  # (-1)^(e - i + 1) at i = 0
    for i in range(e + 1):
        weights.append(sign * (total - i) * inv_fact[i] * inv_fact[e - i] % p)
        sign = -sign
    return tuple(weights)


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


def _predictions(p: int, e: int, S, x: int) -> list[int]:
    """The answer (t + x)^e each candidate t in S predicts at x."""
    return [pow(t + x, e, p) for t in S]


def collision_stat_r(
    ctx: PrimeContext, params: ExponentParams, S, x: int
) -> int:
    """Max multiplicity of the pair ((t+x)^e, (t+zeta*x)^e) over t in S,
    zeta = 1/isqrt(p).  Narrowing no longer uses it; kept as a reference."""
    p, e = ctx.p, params.e
    zx = pow(math.isqrt(p), -1, p) * x % p
    pairs = collections.Counter((pow(t + x, e, p), pow(t + zx, e, p)) for t in S)
    return max(pairs.values(), default=0)


def collision_stat_R(
    ctx: PrimeContext, params: ExponentParams, S, x: int
) -> int:
    """Ordered pairs s1 != s2 in S with (x+s1)/(x+s2) in G_e.

    Equivalent to sum of c*(c-1) over fibers of t -> (x+t)^e, excluding the
    zero fiber (pairs with x+s2 = 0 are excluded, and x+s1 = 0 gives ratio 0).
    Narrowing does not use it; kept as a reference.
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
    """One narrowing round: query the point whose largest answer class is
    smallest, and keep the candidates that predicted the answer.

    A point's classes group S by the answer (t + x)^e each member predicts.
    The scan runs over a window of points from x = 0 that doubles while no
    point splits S, and ties go to the smallest x.  An answer is 0 or one
    of the d-th roots of unity, and only t = -x predicts 0, so no class is
    below ceil((|S| - 1)/d): the scan stops at the first point reaching it.
    A window segment costs |S| pow calls per point; TooLarge before a
    segment whose bound, counted over every point in it, passes LOOP_CAP.

    `agreed` holds points at which every member of S is known to predict the
    same answer: such a point is one class and never splits S, so it is
    skipped.  The queried point is added to it.

    With 0 in `agreed` and |S| = e, every member solves t^e = A, which has
    at most e roots, so S is all of them and S = S*w for each w in G_e.
    Then t -> t*w maps the predictions at x onto those at x*w, since
    (t*w + x*w)^e = (t + x)^e: both points have the same classes.  Only the
    first point of each coset x*G_e, keyed by x^e, is evaluated, so the
    chosen point, the kept set and the calls are those of a full scan.
    """
    ctx, params = oracle.ctx, oracle.params
    p, e = ctx.p, params.e
    cap = p - 1
    size = len(S)
    least = -(-(size - 1) // params.d)
    h = min(max(policy.initial_window, 1), cap)
    if agreed is None:
        agreed = set()
    # 0 agreed and |S| = e: S = S*w for w in G_e
    cosets = set() if 0 in agreed and size == e else None
    scanned = 0
    best_val, best_x, best_keys = size, None, None
    while True:
        if (h - scanned) * size > LOOP_CAP:
            raise TooLarge(f"{h - scanned} probes on {size} candidates above loop cap")
        for x in range(scanned, h):
            if x in agreed:
                continue
            if cosets is not None:
                key = pow(x, e, p)
                if key in cosets:
                    continue
                cosets.add(key)
            keys = _predictions(p, e, S, x)
            v = max(collections.Counter(keys).values())
            if v < best_val:
                best_val, best_x, best_keys = v, x, keys
                if v <= least:
                    break
        if best_x is not None:
            break
        scanned = h
        if h >= cap:
            raise Stalled(f"window cap {cap} reached without shrinkage")
        h = min(h * STALL_FACTOR, cap)
    a = oracle.query(best_x)
    kept = tuple(itertools.compress(S, map(a.__eq__, best_keys)))
    agreed.add(best_x)
    if trace is not None:
        trace.append(("narrow", best_x, size, len(kept)))
    return kept


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
    """Narrowing rounds until one candidate is left, one call each.

    `agreed` lists the points S0 was built from (every member predicts the
    oracle's answer there); with the points each round queries, they are
    the points `narrow_candidates` skips.  At most `policy.max_rounds`
    rounds run: Stalled before a round beyond them would start.

    At d = (p-1)/e = 1 every answer except the one at x = -s is 1, so no
    point rules out more than one candidate: resolve by x = -t directly.
    """
    S = S0
    if oracle.params.d > 1:
        agreed = set(agreed)
        rounds = 0
        while len(S) > 1:
            if rounds >= policy.max_rounds:
                raise Stalled(f"no resolution within {policy.max_rounds} rounds")
            S = narrow_candidates(oracle, S, policy, trace, agreed)
            rounds += 1
    # at d >= 2 at most one candidate is left: no call, Stalled if none
    return _resolve_small(oracle, S)


def _seed_candidates(oracle: ShiftOracle, points: range) -> tuple[int, ...]:
    """Query the points in order; the t with (t + x)^e = A_x at each x.  An
    answer that leaves one candidate ends the queries: A_x = 0 leaves -x,
    and at e = 1 every answer A_x = x + t leaves A_x - x.

    `consecutive_roots` solves the system in y = t + start.  The points start
    at 0 or 1: at 0 the roots are the set, and at 1 no root y is 0 (that
    needs A_1 = 0), so t = y - 1 keeps the set sorted.  TooLarge above
    e = EXHAUSTIVE_CAP.
    """
    answers = []
    for x in points:
        a = oracle.query(x)
        if a == 0 or oracle.params.e == 1:
            return ((a - x) % oracle.ctx.p,)
        answers.append(a)
    roots = consecutive_roots(oracle.ctx, oracle.params, answers)
    if points.start == 0:
        return roots
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
    S = S0
    for _ in range(nu):
        if len(S) <= 1:
            break
        x = rng.randrange(p)
        keys = _predictions(p, e, S, x)
        # the shift is a candidate: one predicted answer is the answer
        a = keys[0] if min(keys) == max(keys) else oracle.query(x)
        S = tuple(itertools.compress(S, map(a.__eq__, keys)))
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
