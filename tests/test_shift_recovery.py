import collections
import hashlib
import math
import random

import pytest

from shiftbreak import field_core as fc
from shiftbreak import root_solver as rs
from shiftbreak import shift_recovery as sr
from shiftbreak.errors import ConfigError, ForbiddenInput, Stalled, TooLarge
from shiftbreak.oracle import ShiftOracle, new_oracle
from shiftbreak.root_solver import full_witness_set

from reference import divisors, greedy_round, optimal_worst_calls, primes_below, run_python

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 61]


def make(p, e, s):
    ctx = fc.make_context(p)
    return new_oracle(ctx, fc.make_params(ctx, e), s)


def test_interpolation_examples():
    o = make(13, 3, 5)
    assert sr.interpolation_recover(o) == 5
    assert o.calls == 4
    o = make(13, 1, 7)
    assert sr.interpolation_recover(o) == 7
    assert o.calls == 2
    o = make(13, 12, 0)
    assert sr.interpolation_recover(o) == 0
    assert o.calls == 13


def test_interpolation_exhaustive_small():
    for p in PRIMES:
        for e in divisors(p - 1):
            for s in range(p):
                o = make(p, e, s)
                assert sr.interpolation_recover(o) == s
                assert o.calls == e + 1


def test_interpolation_caps_e_before_querying():
    o = make(1099511628443, 549755814221, 5)
    assert o.params.e > fc.EXHAUSTIVE_CAP
    with pytest.raises(TooLarge):
        sr.interpolation_recover(o)
    assert o.calls == 0


def _interp_weights_by_products(p, e):
    """O(e^2) reference: w_i = -(sum of the nodes j != i) / prod_{j != i} (i - j)."""
    nodes = range(e + 1)
    weights = []
    for i in nodes:
        denom = 1
        for j in nodes:
            if j != i:
                denom = denom * (i - j) % p
        weights.append(-(sum(nodes) - i) * pow(denom, -1, p) % p)
    return tuple(weights)


def test_interp_weights_match_product_formula():
    cells = [(p, e) for p in range(3, 300) if fc.is_prime(p) for e in divisors(p - 1)]
    for p, e in cells + [(2**61 - 1, 1001)]:
        assert sr._interp_weights(p, e) == _interp_weights_by_products(p, e), (p, e)


def test_zero_call_candidates_examples():
    o = make(13, 3, 5)
    wits = full_witness_set(o.ctx, o.params)
    S = sr.initial_candidates_zero_call(o, wits)
    assert S == (2, 5, 6)
    assert o.calls == 1

    o = make(13, 3, 0)
    S = sr.initial_candidates_zero_call(o, full_witness_set(o.ctx, o.params))
    assert S == (0,)

    o = make(13, 4, 1)
    S = sr.initial_candidates_zero_call(o, full_witness_set(o.ctx, o.params))
    assert S == (1, 5, 8, 12)


def test_smooth_witnesses_are_least_nonresidues():
    # p=13, e=3: 2 is the least cube nonresidue, so gamma = 0 and n = 1
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    wits = sr.smooth_witnesses(ctx, params)
    assert wits.entries == ((3, 2, 0),)
    assert wits.n == 1
    for p in (13, 29, 61, 257, 2**61 - 1):
        ctx = fc.make_context(p)
        for e in divisors(p - 1) if p < 300 else (3, 150, 1001):
            params = fc.make_params(ctx, e)
            wits = sr.smooth_witnesses(ctx, params)
            assert wits.n == 1, (p, e)
            for ell, w, gamma in wits.entries:
                assert gamma == 0
                assert pow(w, (p - 1) // ell, p) != 1
                assert all(pow(x, (p - 1) // ell, p) == 1 for x in range(2, w))


def test_smooth_candidates_contain_secret():
    for p in (13, 29, 61):
        for e in divisors(p - 1):
            if e == 1:
                continue
            for s in range(0, p, 3):
                o = make(p, e, s)
                S, wits = sr.initial_candidates_smooth(o)
                assert s in S
                assert o.calls == wits.n + 1 == 2


def test_collision_stat_r_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    # zeta = 1/isqrt(13) = 1/3 = 9: 0 and 2 predict 1 at x = 1, but 1 and 5
    # at 9, so their pairs differ while their answers at x collide
    assert sr.collision_stat_r(ctx, params, (4, 5), 1) == 1
    assert sr.collision_stat_r(ctx, params, (0, 2), 1) == 1
    assert sr.collision_stat_R(ctx, params, (0, 2), 1) == 2
    assert sr.collision_stat_r(ctx, params, (4,), 7) == 1
    assert sr.collision_stat_r(ctx, params, (4, 5), 0) == 1


def test_collision_stat_R_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    assert sr.collision_stat_R(ctx, params, (4, 5), 1) == 2
    assert sr.collision_stat_R(ctx, params, (4, 5), 0) == 0
    assert sr.collision_stat_R(ctx, params, (4,), 3) == 0


def test_collision_stat_R_brute_force():
    rng = random.Random(5)
    for p in (13, 29, 61):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            sub = set(fc.subgroup_elements(ctx, params))
            for _ in range(10):
                S = rng.sample(range(p), rng.randrange(2, min(p, 30)))
                x = rng.randrange(p)
                expect = 0
                for s1 in S:
                    for s2 in S:
                        if s1 == s2 or (x + s2) % p == 0:
                            continue
                        ratio = (x + s1) * pow(x + s2, -1, p) % p
                        if ratio in sub:
                            expect += 1
                assert sr.collision_stat_R(ctx, params, S, x) == expect


def test_narrow_candidates_pinned_cases():
    # all of (2, 5, 6) agree at x = 0; x = 1 splits them into singletons,
    # and the answer there leaves one candidate
    o = make(13, 3, 5)
    trace = []
    T = sr.narrow_candidates(o, (2, 5, 6), trace=trace)
    assert T == (5,)
    assert o.calls == 1
    assert trace == [("narrow", 1, 3, 1)]

    # x = 0 already splits (4, 5)
    o = make(13, 3, 5)
    T = sr.narrow_candidates(o, (4, 5))
    assert T == (5,)
    assert o.calls == 1


def test_narrowing_matches_the_statistic_reference():
    # each round's point, kept set and single call equal those of the plain
    # full-scan greedy (tests/reference.py `greedy_round`), although a round
    # skips agreed points, evaluates one point per coset of G_e on a whole
    # zero-call seed and stops at the least possible largest class
    rng = random.Random(31)
    cells = [(p, e, range(1)) for p in (29, 61, 101, 331) for e in divisors(p - 1)[1:-1]]
    cells += [(p, e, range(2)) for p in (61, 101) for e in divisors(p - 1)[1:-1]]
    # large_e's scan set at d = 2, narrowed in its own wide window
    cells += [(p, (p - 1) // 2, None) for p in (1039, 1049)]
    rounds = 0
    for p, e, points in cells:
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        window = sr.INITIAL_WINDOW
        if points is None:
            points = range(1, sr.large_e_call_count(p, e) + 1)
            window = int((p / e) * p**0.5 * math.log(p) ** 2)
        for s in rng.sample(range(p), 3):
            S = sr._seed_candidates(new_oracle(ctx, params, s), points)
            # as in recover_from_candidates: the seed's points and each
            # round's point are agreed
            agreed = set(points)
            while len(S) > 1:
                o, trace = new_oracle(ctx, params, s), []
                got = sr.narrow_candidates(o, S, window, trace, agreed)
                x, classes = greedy_round(p, e, S, window)
                assert trace == [("narrow", x, len(S), len(got))], (p, e, s)
                assert got == classes[pow(s + x, e, p)]
                assert o.calls == 1
                rounds += 1
                S = got
    assert rounds > 300


def test_d2_predictions_read_off_the_squares_match_pow():
    # every x and every t, so each x meets the zero class at t = -x
    for p in primes_below(300):
        e = (p - 1) // 2
        for x in range(p):
            got = sr._predictions(p, e, range(p), x)
            assert got == [pow(t + x, e, p) for t in range(p)], (p, x)


@pytest.fixture
def evaluated(monkeypatch):
    """The points narrowing evaluates, in order: `_predictions`' x."""
    points = []
    predictions = sr._predictions

    def recording_predictions(p, e, S, x):
        points.append(x)
        return predictions(p, e, S, x)

    monkeypatch.setattr(sr, "_predictions", recording_predictions)
    return points


def test_narrowing_at_d2_above_the_cap_stays_on_pow(monkeypatch, evaluated):
    # e = (p-1)/2 > EXHAUSTIVE_CAP: no set of squares is built.  |S| = 5 is
    # 1 mod 2 and least = 2: x = 0 has largest class 3, so x = 1 and 2 (-x
    # not in S) are skipped, and x = 3 (-3 in S) reaches 2
    p = 2**61 - 1
    e = (p - 1) // 2

    def no_squares(p, e):
        raise AssertionError("set of squares built above the cap")

    monkeypatch.setattr(sr, "_squares", no_squares)
    S, s = (1, 2, 3, 11, p - 3), 11
    o, trace = make(p, e, s), []
    got = sr.narrow_candidates(o, S, trace=trace)
    x, classes = greedy_round(p, e, S, sr.INITIAL_WINDOW)
    assert x == 3 and evaluated == [0, 3]
    assert trace == [("narrow", x, len(S), len(got))]
    assert got == classes[pow(s + x, e, p)] and s in got
    assert o.calls == 1


def test_rounds_at_one_mod_d_match_the_statistic_reference(evaluated):
    # |S| = 1 (mod d) at d = 2 and 3, windows up to p - 1: the round that
    # skips the points with -x not in S picks the full-scan greedy's point
    # and keeps its class, and the skip leaves points unevaluated
    rng = random.Random(2)
    rounds = skipped = 0
    for p in (101, 109, 151, 199, 211, 331, 397):
        for d in (2, 3):
            if (p - 1) % d:
                continue
            e = (p - 1) // d
            for window in (1, sr.INITIAL_WINDOW, 16, p // 2, p - 1):
                for size in (d + 1, 2 * d + 1, 4 * d + 1, 8 * d + 1):
                    S = tuple(sorted(rng.sample(range(p), size)))
                    s = rng.choice(S)
                    evaluated.clear()
                    o, trace = make(p, e, s), []
                    got = sr.narrow_candidates(o, S, window, trace)
                    x, classes = greedy_round(p, e, S, window)
                    assert trace == [("narrow", x, size, len(got))], (p, d, S)
                    assert got == classes[pow(s + x, e, p)]
                    assert o.calls == 1
                    rounds += 1
                    skipped += max(evaluated) + 1 - len(evaluated)
    assert rounds > 200 and skipped > 1000


def test_r_statistic_is_constant_on_cosets_of_G_e_over_a_zero_call_seed():
    # S0 = t0*G_e, and t -> t*w maps the predictions at x onto those at x*w:
    # the answer pairs of the r reference and the answer classes alike
    rng = random.Random(19)
    checked = 0
    for p in (q for q in range(3, 150) if fc.is_prime(q)):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            d = (p - 1) // e
            if not (2 <= d <= 8 and e > 4):
                continue
            params = fc.make_params(ctx, e)
            w = pow(ctx.g, d, p)
            o = new_oracle(ctx, params, rng.randrange(1, p))
            S = sr.initial_candidates_zero_call(o, full_witness_set(ctx, params))
            assert len(S) == e
            for x in range(1, 31):
                assert sr.collision_stat_r(ctx, params, S, x) == sr.collision_stat_r(
                    ctx, params, S, x * w % p
                ), (p, e, x)
                sizes = [
                    sorted(collections.Counter(sr._predictions(p, e, S, y)).values())
                    for y in (x, x * w % p)
                ]
                assert sizes[0] == sizes[1], (p, e, x)
                checked += 1
    assert checked > 1000


def test_round_one_on_a_zero_call_seed_evaluates_one_probe_per_coset(monkeypatch):
    # the first window is x = 0..3 and x = 0 is agreed.  Mod 1009 (d = 2)
    # x = 1 reaches the least possible largest class, ceil(503/2), and ends
    # the scan; mod 331 (d = 2) 2 is not a square, so it is evaluated after 1
    evaluated = []
    predictions = sr._predictions

    def recording_predictions(p, e, S, x):
        evaluated.append((len(trace), x))
        return predictions(p, e, S, x)

    monkeypatch.setattr(sr, "_predictions", recording_predictions)
    for p, e, want in ((1009, 504, [1]), (331, 165, [1, 2])):
        for s in (1, 77, p - 2):
            evaluated.clear()
            trace = []
            assert sr.recover(make(p, e, s), "zero_call_narrow", trace=trace) == s
            assert [x for rnd, x in evaluated if rnd == 0] == want, (p, e, s)

    # every d >= 2 cell with p < 200: round 1 evaluates the first point of
    # each coset of G_e in ascending order, skipping x = 0, until the scan
    # ends, and picks the full-scan greedy's point
    rounds = 0
    for p in primes_below(200):
        ctx = fc.make_context(p)
        for e in divisors(p - 1)[1:-1]:
            params = fc.make_params(ctx, e)
            cosets = {}
            for x in range(1, p - 1):
                cosets.setdefault(pow(x, e, p), x)
            firsts = sorted(cosets.values())
            for s in (1, p - 2):
                evaluated.clear()
                trace = []
                S0 = sr._seed_candidates(new_oracle(ctx, params, s), range(1))
                o = new_oracle(ctx, params, s)
                assert sr.recover(o, "zero_call_narrow", trace=trace) == s
                first = [x for rnd, x in evaluated if rnd == 0]
                assert first == firsts[: len(first)], (p, e, s)
                window = sr.INITIAL_WINDOW
                assert trace[0][1] == greedy_round(p, e, S0, window)[0], (p, e, s)
                rounds += 1
    assert rounds > 300


@pytest.mark.parametrize("e", (5, 6, 7))
def test_one_round_narrows_the_small_sets_at_2_61(e):
    # |S0| = e <= p^0.05: at d = (p-1)/e > 3e17 the first point splits every
    # S0 into singletons, so recovery makes 2 calls, one narrowing round
    p = 2**61 - 1
    rng = random.Random(e)
    for s in (rng.randrange(p) for _ in range(20)):
        o = make(p, e, s)
        trace = []
        assert sr.recover(o, "zero_call_narrow", trace=trace) == s
        assert o.calls == 2
        assert [r[0] for r in trace] == ["narrow"]


def test_recover_from_candidates_example():
    o = make(13, 3, 5)
    wits = full_witness_set(o.ctx, o.params)
    S0 = sr.initial_candidates_zero_call(o, wits)
    assert sr.recover_from_candidates(o, S0) == 5

    o = make(13, 3, 5)
    assert sr.recover_from_candidates(o, (5,)) == 5
    assert o.calls == 0  # singleton resolves free


def test_monotone_shrinkage_with_secret_retained():
    from shiftbreak.oracle import unsafe_reveal_secret

    for p in (29, 61):
        for e in divisors(p - 1):
            if e < 2:
                continue
            for s in (0, 1, p - 1, p // 2):
                o = make(p, e, s)
                wits = full_witness_set(o.ctx, o.params)
                S = sr.initial_candidates_zero_call(o, wits)
                assert s in S
                while len(S) > 1:
                    T = sr.narrow_candidates(o, S)
                    assert len(T) < len(S)
                    assert unsafe_reveal_secret(o) in T
                    S = T


def test_randomized_probe_count_examples():
    assert sr.randomized_probe_count(13, 3) == 6
    assert sr.randomized_probe_count(1009, 12) == 5


def test_recover_randomized_deterministic():
    o1 = make(13, 3, 5)
    wits = full_witness_set(o1.ctx, o1.params)
    S0 = sr.initial_candidates_zero_call(o1, wits)
    assert sr.recover_randomized(o1, S0, seed=42) == 5
    c1 = o1.calls

    o2 = make(13, 3, 5)
    S0b = sr.initial_candidates_zero_call(o2, full_witness_set(o2.ctx, o2.params))
    assert sr.recover_randomized(o2, S0b, seed=42) == 5
    assert o2.calls == c1


def test_large_e_call_count_example():
    assert sr.large_e_call_count(13, 6) == 1


def test_scan_phase_zero_shortcut():
    # s = -1: the j=1 query answers 0 and the shift is read off directly
    o = make(13, 6, 12)
    assert sr.large_e_call_count(13, 6) == 1
    assert sr._seed_candidates(o, range(1, 2)) == (12,)
    assert o.calls == 1
    # e = 12 > 13^0.9 scans x = 1, 2; x = 1 answers 0, and the scan entry
    # is still written
    trace = []
    assert sr.recover_large_e(make(13, 12, 12), trace=trace) == 12
    assert trace == [("scan", 2, 13, 1)]


def test_recover_large_e_cases():
    assert sr.recover_large_e(make(13, 12, 7)) == 7
    assert sr.recover_large_e(make(13, 6, 11)) == 11  # delegated path
    for s in range(13):
        assert sr.recover_large_e(make(13, 12, s)) == s


def test_all_strategies_agree_small_grid():
    for p in (13, 29):
        for e in divisors(p - 1):
            for s in range(p):
                assert sr.interpolation_recover(make(p, e, s)) == s
                assert sr.recover_zero_call_narrow(make(p, e, s)) == s
                assert sr.recover_large_e(make(p, e, s)) == s
                o = make(p, e, s)
                S0 = sr.initial_candidates_zero_call(
                    o, full_witness_set(o.ctx, o.params)
                )
                assert sr.recover_randomized(o, S0, seed=s + 1) == s


def test_smooth_narrow_recovers():
    for p in (29, 61):
        for e in divisors(p - 1):
            if e < 2:
                continue
            for s in range(0, p, 5):
                assert sr.recover_smooth_narrow(make(p, e, s)) == s


def test_smooth_narrow_makes_one_call_at_s_0():
    # x = 0 answers 0, which leaves the one candidate 0: no call at x = 1,
    # where that candidate predicts the answer 1
    for p in (q for q in range(3, 100) if fc.is_prime(q)):
        for e in divisors(p - 1):
            o = make(p, e, 0)
            assert sr.recover(o, "smooth_narrow") == 0
            assert o.calls == 1, (p, e)


def test_smooth_narrow_makes_one_call_at_e_1():
    # at e = 1 the answer x + s at x = 0 leaves the one candidate s: no call
    # at x = 1, where that candidate predicts s + 1
    for p in (q for q in range(3, 100) if fc.is_prime(q)):
        for s in range(p):
            o = make(p, 1, s)
            assert sr._seed_candidates(o, range(2)) == (s,)
            assert o.calls == 1, (p, s)
            o = make(p, 1, s)
            assert sr.recover(o, "smooth_narrow") == s
            assert o.calls == 1, (p, s)


def test_every_narrowing_round_makes_one_call():
    # the calls are the seed's and one per "narrow" entry of the trace, on
    # every d >= 2 cell with p < 100 and every shift
    checked = 0
    for p in primes_below(100):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            if params.d < 2:
                continue
            m = sr.large_e_call_count(p, e)
            seeds = {
                "zero_call_narrow": range(1),
                "smooth_narrow": range(2),
                "large_e": range(1, m + 1) if e > p**0.9 else range(1),
            }
            for s in range(p):
                for algorithm, points in seeds.items():
                    seed = ShiftOracle(ctx, params, s)
                    sr._seed_candidates(seed, points)
                    o, trace = ShiftOracle(ctx, params, s), []
                    assert sr.recover(o, algorithm, trace=trace) == s
                    rounds = sum(r[0] == "narrow" for r in trace)
                    assert o.calls == seed.calls + rounds, (algorithm, p, e, s)
                    checked += 1
    assert checked > 10000


def test_max_rounds_is_checked_before_a_round_starts():
    # p = 383, e = 191: one call per round after the x = 0 call; s = 1, 2
    # take 7 rounds and s = 3, 4 take 9, the last leaving one candidate
    ctx = fc.make_context(383)
    params = fc.make_params(ctx, 191)
    for s, rounds in ((1, 7), (2, 7), (3, 9), (4, 9)):
        o, trace = new_oracle(ctx, params, s), []
        assert sr.recover_zero_call_narrow(o, sr.ProbePolicy(max_rounds=rounds), trace) == s
        assert len(trace) == rounds and trace[-1][3] == 1
        assert o.calls == 1 + rounds
        for max_rounds in (1, rounds - 1):
            o, trace = new_oracle(ctx, params, s), []
            with pytest.raises(Stalled, match=f"within {max_rounds} rounds"):
                sr.recover_zero_call_narrow(o, sr.ProbePolicy(max_rounds=max_rounds), trace)
            assert len(trace) == max_rounds
            assert o.calls == 1 + max_rounds


def test_recover_runs_every_algorithm_by_name():
    for algorithm in sr.ALGORITHMS:
        assert sr.recover(make(13, 3, 5), algorithm, seed=1) == 5
    with pytest.raises(ConfigError):
        sr.recover(make(13, 3, 5), "nope")


def _calls_per_shift(algorithm, p, e):
    """Recover every shift s (randomized seed s + 1); the oracle calls of each."""
    calls = []
    for s in range(p):
        o = make(p, e, s)
        assert sr.recover(o, algorithm, seed=s + 1) == s, (algorithm, p, e, s)
        calls.append(o.calls)
    return calls


CANDIDATE_SET_ALGORITHMS = ("zero_call_narrow", "smooth_narrow", "randomized")


@pytest.fixture
def no_power_table(monkeypatch):
    """Recovery must never build an O(p) table: shift_recovery does not
    import power_table, and a call through field_core fails."""
    assert not hasattr(sr, "power_table")

    def refuse(p, e):
        raise AssertionError(f"power_table({p}, {e}) built during recovery")

    monkeypatch.setattr(fc, "power_table", refuse)


def test_candidate_set_recovery_builds_no_power_table(no_power_table):
    for p in (13, 29, 61, 101):
        for e in divisors(p - 1):
            for algorithm in CANDIDATE_SET_ALGORITHMS:
                _calls_per_shift(algorithm, p, e)


WITNESS_LAYER = (
    "full_witness_set",
    "all_eth_roots",
    "candidates_from_consecutive_powers",
    "least_nonresidue",
)


@pytest.fixture
def no_witness_layer(monkeypatch):
    """Recovery seeds with consecutive_roots alone: each witness-layer name
    fails wherever shift_recovery and root_solver look it up."""

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} called during recovery")

        return refused

    for module in (sr, rs, fc):
        for name in WITNESS_LAYER:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))


def test_recovery_leaves_the_witness_layer(no_witness_layer):
    for p in (13, 29, 61, 101):
        for e in divisors(p - 1):
            for algorithm in sr.ALGORITHMS:
                _calls_per_shift(algorithm, p, e)


@pytest.mark.parametrize(
    "p, exponents",
    [
        (1000000009, (2, 4, 504, 1308)),
        (1000000000177, (2, 3, 12, 48)),
        (2**61 - 1, (3, 150, 1001)),
    ],
)
def test_planted_shifts_at_large_p(no_power_table, p, exponents):
    rng = random.Random(p)
    ctx = fc.make_context(p)
    for e in exponents:
        params = fc.make_params(ctx, e)
        for _ in range(3):
            s = rng.randrange(p)
            for algorithm in CANDIDATE_SET_ALGORITHMS:
                o = new_oracle(ctx, params, s)
                got = sr.recover(o, algorithm, seed=rng.randrange(2**32))
                assert got == s, (algorithm, p, e, s)


# Pinned oracle calls over s = 0..p-1 with randomized seed s + 1: the first
# 16 hex digits of the sha256 of repr(per-shift calls for each e with
# d = (p-1)/e >= 2, ascending), and a bound on the total calls over all
# shifts at d = 1.  randomized's rows are those of the table-based
# implementation these algorithms replaced, less its calls at points where
# every candidate left predicted one answer.  The narrowing rows are those
# of the one-point rule (one call per round, until one candidate is left);
# smooth_narrow's seed queries x = 1 only if the answer at x = 0 left more
# than one candidate (not at s = 0, nor at e = 1).
TABLE_ERA_CALLS = {
    ("zero_call_narrow", 13): ("ee36b641bbfa7fce", 102),
    ("zero_call_narrow", 29): ("369327a7cfed21ea", 500),
    ("zero_call_narrow", 61): ("cb010e91528eb4d2", 2092),
    ("smooth_narrow", 13): ("fbd3cac30273a88a", 90),
    ("smooth_narrow", 29): ("3cdacab5b2bffe57", 434),
    ("smooth_narrow", 61): ("41c3cf60e459fd39", 1890),
    ("randomized", 13): ("2e3fc85a1048f1a8", 201),
    ("randomized", 29): ("34aba84225201cd0", 635),
    ("randomized", 61): ("5148901ebd332e90", 3810),
    ("large_e", 13): ("ee36b641bbfa7fce", 94),
    ("large_e", 29): ("369327a7cfed21ea", 450),
    ("large_e", 61): ("cb010e91528eb4d2", 1941),
}


@pytest.mark.parametrize("algorithm, p", sorted(TABLE_ERA_CALLS))
def test_oracle_calls_match_table_era(algorithm, p):
    digest, d1_total = TABLE_ERA_CALLS[algorithm, p]
    per_e = [_calls_per_shift(algorithm, p, e) for e in divisors(p - 1)[:-1]]
    assert hashlib.sha256(repr(per_e).encode()).hexdigest()[:16] == digest
    assert sum(_calls_per_shift(algorithm, p, p - 1)) <= d1_total


def _narrowing_runs(algorithm, p):
    """(recovered, calls, trace) per shift: every e and every s at p = 13,
    29 and 61; at p = 293, 397 and 1049, e = (p-1)/2 and 20 shifts seeded by
    p.  `randomized` runs at seed 0."""
    if p < 100:
        cells = [(e, s) for e in divisors(p - 1) for s in range(p)]
    else:
        rng = random.Random(p)
        cells = [((p - 1) // 2, rng.randrange(p)) for _ in range(20)]
    ctx = fc.make_context(p)
    runs = []
    for e, s in cells:
        o, trace = new_oracle(ctx, fc.make_params(ctx, e), s), []
        runs.append((sr.recover(o, algorithm, trace=trace), o.calls, trace))
    return runs


# Pinned narrowing rounds: the first 16 hex digits of the sha256 of
# repr(_narrowing_runs(algorithm, p)).  TABLE_ERA_CALLS pins calls alone;
# these also pin each round's queried point and the sizes it leaves.
NARROWING_TRACES = {
    ("zero_call_narrow", 13): "c0a336a3a30702d0",
    ("zero_call_narrow", 29): "e5e2e50348ef652e",
    ("zero_call_narrow", 61): "bcc5b0a866edeb53",
    ("zero_call_narrow", 293): "6f2b2dfdc052ac4c",
    ("zero_call_narrow", 397): "48490333fdf64214",
    ("smooth_narrow", 13): "9bb0cbeeafe03da7",
    ("smooth_narrow", 29): "c8fd56dd3bcdb300",
    ("smooth_narrow", 61): "a31d8a563e303321",
    ("smooth_narrow", 293): "11e263b6c9ddea45",
    ("smooth_narrow", 397): "c57c110fec1d6ad7",
    ("large_e", 13): "11c5adec2db075f4",
    ("large_e", 29): "781d02a0346e79d4",
    ("large_e", 61): "e587231f0b727789",
    ("large_e", 293): "6f2b2dfdc052ac4c",
    ("large_e", 397): "48490333fdf64214",
    ("randomized", 13): "fa3c2b707bdcdfae",
    ("randomized", 29): "e4a3f28d0953f153",
    ("randomized", 61): "5dc7392ed028dea2",
    ("randomized", 293): "37e881fa3ee3f959",
    ("randomized", 397): "bdf73f25d066cb14",
    # the d = 2 scan path: wide windows over which the skip acts
    ("large_e", 1049): "e346bde3490760d1",
}


@pytest.mark.parametrize("algorithm, p", sorted(NARROWING_TRACES))
def test_narrowing_rounds_match_their_pins(algorithm, p):
    runs = _narrowing_runs(algorithm, p)
    assert hashlib.sha256(repr(runs).encode()).hexdigest()[:16] == NARROWING_TRACES[algorithm, p]


def test_large_e_at_d1_builds_no_power_table(no_power_table):
    # e = p-1: every nonzero answer is 1, so the scan's set is x = 0..p-m-1
    for p in (101, 211, 397):
        m = sr.large_e_call_count(p, p - 1)
        got = sr._seed_candidates(make(p, p - 1, 0), range(1, m + 1))
        assert got == tuple(range(p - m))
        for s in range(p):
            assert sr.recover_large_e(make(p, p - 1, s)) == s


def table_scan(oracle, points):
    """Reference for `_seed_candidates`: the same queries at the consecutive
    points, up to an answer that leaves one candidate (0 at x = j leaves -j,
    and at e = 1 the answer j + s leaves s), then every x in F_p checked
    against a table of x^e."""
    p, e = oracle.ctx.p, oracle.params.e
    answers = {}
    for j in points:
        a = oracle.query(j)
        if a == 0:
            return ((-j) % p,)
        if e == 1:
            return ((a - j) % p,)
        answers[j] = a
    tab = [pow(x, e, p) for x in range(p)]
    return tuple(
        x for x in range(p) if all(tab[(x + j) % p] == a for j, a in answers.items())
    )


def test_seed_matches_the_table_scan():
    # the zero-call seed, the smooth seed and the large_e scan, every shift
    for p in (q for q in range(3, 100) if fc.is_prime(q)):
        for e in divisors(p - 1):
            m = sr.large_e_call_count(p, e)
            for points in (range(1), range(2), range(1, m + 1)):
                for s in range(p):
                    got, want = make(p, e, s), make(p, e, s)
                    seed = sr._seed_candidates(got, points)
                    assert seed == table_scan(want, points), (p, e, points, s)
                    assert got.calls == want.calls, (p, e, points, s)


def _assert_scan_matches_table(p, d, rng):
    # the zero-answer shifts s = p-1..p-m, then seeded ones
    e = (p - 1) // d
    points = range(1, sr.large_e_call_count(p, e) + 1)
    for s in [p - j for j in points] + [rng.randrange(p) for _ in range(5)]:
        got, want = make(p, e, s), make(p, e, s)
        assert sr._seed_candidates(got, points) == table_scan(want, points), (p, e, s)
        assert got.calls == want.calls, (p, e, s)


def test_scan_matches_the_table_scan_at_d2():
    # p >= 1039 is where e = (p-1)/2 first exceeds p^0.9, so large_e scans
    rng = random.Random(1039)
    for p in range(1039, 1500):
        if fc.is_prime(p):
            _assert_scan_matches_table(p, 2, rng)


@pytest.mark.parametrize("d", (2, 3))
def test_scan_matches_the_table_scan_at_p_59077(d):
    _assert_scan_matches_table(59077, d, random.Random(d))


@pytest.mark.parametrize("p", (1039, 1049, 1051))
def test_large_e_at_d2_builds_no_power_table(no_power_table, p):
    e = (p - 1) // 2
    assert e > p**0.9  # the scan path, not the zero-call delegation
    rng = random.Random(p)
    for s in [p - 1, 0] + [rng.randrange(p) for _ in range(4)]:
        assert sr.recover_large_e(make(p, e, s)) == s, (p, s)


def test_large_e_caps_its_first_window_at_loop_cap_over_S(monkeypatch):
    # with LOOP_CAP patched down, large_e's first window of min(h, p - 1)
    # points at |S| pows each passes it: the window is cut to LOOP_CAP // |S|
    # points, and the round picks the full-scan greedy's point over that
    # window instead of raising TooLarge
    p, e = 1049, 524
    monkeypatch.setattr(sr, "LOOP_CAP", 2000)
    points = range(1, sr.large_e_call_count(p, e) + 1)
    h = int((p / e) * p**0.5 * math.log(p) ** 2)
    rounds = 0
    for s in random.Random(p).sample(range(p), 8):
        S = sr._seed_candidates(make(p, e, s), points)
        if len(S) < 2:
            continue
        assert min(h, p - 1) * len(S) > sr.LOOP_CAP
        o, trace = make(p, e, s), []
        got = sr.narrow_candidates(o, S, h, trace, set(points))
        x, classes = greedy_round(p, e, S, sr.LOOP_CAP // len(S))
        assert trace == [("narrow", x, len(S), len(got))], s
        assert got == classes[pow(s + x, e, p)]
        assert o.calls == 1
        rounds += 1
    assert rounds >= 6


LARGE_E_CAPPED_WALL_SCRIPT = """
import random
from shiftbreak import field_core as fc, shift_recovery as sr
from shiftbreak.oracle import new_oracle

rng = random.Random(100003)
cells = [(100003, 50001, rng.randrange(100003)) for _ in range(2)]
for p, e, s in cells + [(85009, 42504, 12345)]:
    ctx = fc.make_context(p)
    o = new_oracle(ctx, fc.make_params(ctx, e), s)
    assert sr.recover_large_e(o) == s, (p, s)
    print(o.calls)
"""


def test_large_e_recovers_past_its_first_window_cap_at_d2():
    # p = 100003 and 85009 (s = 12345), d = 2: the paper's first window, h
    # points at |S| predictions each, passes LOOP_CAP, so it is cut to
    # LOOP_CAP // |S| points, and each recovery takes about 0.1 s.  In a
    # subprocess with a 90 s bound, so that a round scanning its whole window
    # each time fails the test rather than running for minutes.
    out = run_python(["-c", LARGE_E_CAPPED_WALL_SCRIPT], 90)
    assert out.returncode == 0, out.stderr
    calls = [int(line) for line in out.stdout.split()]
    assert len(calls) == 3 and max(calls) <= 17, calls


LARGE_E_WALL_SCRIPT = """
import random
from shiftbreak import field_core as fc, shift_recovery as sr
from shiftbreak.oracle import new_oracle

ctx = fc.make_context(10007)
params = fc.make_params(ctx, 5003)
rng = random.Random(10007)
for s in [rng.randrange(10007) for _ in range(5)]:
    o = new_oracle(ctx, params, s)
    assert sr.recover_large_e(o) == s
    print(o.calls)
"""


def test_large_e_recovers_within_a_wall_bound_at_d2():
    # p = 10007, d = 2: the scan leaves about 300 candidates, and each round
    # stops at the first point of its wide window whose largest answer class
    # is the least possible, so 5 recoveries take well under a second, not
    # the minutes of a scan that evaluates the whole window
    out = run_python(["-c", LARGE_E_WALL_SCRIPT], 30)
    assert out.returncode == 0, out.stderr
    calls = [int(line) for line in out.stdout.split()]
    assert len(calls) == 5 and max(calls) <= 15, calls


LARGE_E_MILLION_SCRIPT = """
from shiftbreak import field_core as fc, shift_recovery as sr
from shiftbreak.oracle import new_oracle

ctx = fc.make_context(1000003)
params = fc.make_params(ctx, 500001)
for s in (12345, 777):
    o, trace = new_oracle(ctx, params, s), []
    assert sr.recover_large_e(o, trace=trace) == s
    print(o.calls, *[x for kind, x, *_ in trace if kind == "narrow"])
"""


def test_large_e_recovers_within_a_wall_bound_at_p_1000003():
    # d = 2: with predictions read off the set of squares and the points
    # with -x not in S skipped, a recovery takes about 1.5 s, where rounds
    # that evaluate their whole capped window at |S| pows a point take
    # minutes.  In a subprocess under 1 GiB with a 60 s bound, so that such
    # a round fails the test
    out = run_python(["-c", LARGE_E_MILLION_SCRIPT], 60, address_space=2**30)
    assert out.returncode == 0, out.stderr
    runs = [[int(v) for v in line.split()] for line in out.stdout.splitlines()]
    assert [run[0] for run in runs] == [19, 20]
    assert {64372, 93727, 228170} <= set(runs[0][1:])


def test_narrowing_skips_probes_every_candidate_agrees_on(monkeypatch):
    # before a round, every point queried so far (the points S0 was built
    # from and the earlier rounds' points) is one where all candidates
    # predict the oracle's answer; no such point may be evaluated
    events = []
    predictions = sr._predictions

    def recording_predictions(p, e, S, x):
        events.append(("probe", x))
        return predictions(p, e, S, x)

    monkeypatch.setattr(sr, "_predictions", recording_predictions)

    def recording_oracle(ctx, params, s):
        o = new_oracle(ctx, params, s)
        query = o.query

        def recorded(x):
            events.append(("query", x % ctx.p))
            return query(x)

        o.query = recorded
        return o

    rng = random.Random(300)
    probes = 0
    for p in (q for q in range(3, 300) if fc.is_prime(q)):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            for s in rng.sample(range(p), min(p, 3)):
                for algorithm in ("zero_call_narrow", "smooth_narrow", "large_e"):
                    events.clear()
                    o = recording_oracle(ctx, params, s)
                    assert sr.recover(o, algorithm) == s
                    queried = set()
                    for kind, x in events:
                        if kind == "query":
                            queried.add(x)
                            continue
                        assert x not in queried, (algorithm, p, e, s, x)
                        probes += 1
    assert probes > 1000


def test_skipped_probes_change_no_round():
    # the same rounds, answer and calls as narrowing told of no agreed point;
    # at p = 1048601 the smooth set is built from x = 0, 1, both skipped
    # (its zero-call sets of e members are left out for time)
    rng = random.Random(7)
    cells = [
        (p, e, range(0, p, 7), (False, True))
        for p in (101, 191, 383)
        for e in divisors(p - 1)[1:-1]
    ]
    cells += [(1048601, e, rng.sample(range(1048601), 3), (True,)) for e in (104860, 149800)]
    for p, e, shifts, smooth_cases in cells:
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        wits = full_witness_set(ctx, params)
        for s in shifts:
            for smooth in smooth_cases:
                runs = []
                for skip in (True, False):
                    o, trace = new_oracle(ctx, params, s), []
                    if smooth:
                        S0, smooth_wits = sr.initial_candidates_smooth(o)
                        agreed = range(smooth_wits.n + 1)
                    else:
                        S0, agreed = sr.initial_candidates_zero_call(o, wits), (0,)
                    got = sr.recover_from_candidates(
                        o, S0, sr.ProbePolicy(), trace, agreed if skip else ()
                    )
                    runs.append((got, o.calls, trace))
                assert runs[0] == runs[1] and runs[0][0] == s, (p, e, s, smooth)


class LoggingOracle(ShiftOracle):
    """A shift oracle that keeps every input it is queried at."""

    def __init__(self, *args):
        super().__init__(*args)
        self.queried = []

    def query(self, x):
        self.queried.append(x % self.ctx.p)
        return super().query(x)


def test_no_recovery_queries_a_point_twice():
    # a repeated point adds no information: every candidate left predicts
    # the answer already given there, so recovery makes no call at it
    runs = [(a, 0) for a in sr.ALGORITHMS if a != "randomized"]
    runs += [("randomized", seed) for seed in (1, 2, 3)]
    recoveries = 0
    for p in (q for q in range(3, 100) if fc.is_prime(q)):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            for s in range(p):
                for algorithm, seed in runs:
                    o = LoggingOracle(ctx, params, s)
                    assert sr.recover(o, algorithm, seed=seed) == s
                    assert len(set(o.queried)) == o.calls, (algorithm, seed, p, e, s)
                    recoveries += 1
    assert recoveries > 50000


def test_d1_resolves_candidates_by_x_minus_t():
    # e = p-1: S_0 = {1..p-1} (or {0}), resolved in ascending order by x = -t
    # queries; the last candidate is free
    for p in (13, 29, 61):
        for algorithm in ("zero_call_narrow", "randomized"):
            calls = _calls_per_shift(algorithm, p, p - 1)
            assert calls == [1] + [1 + min(s, p - 2) for s in range(1, p)]


def test_recovery_raises_on_a_forbidden_probe():
    # s = 5, S_0 = (2, 5, 6): x = 1 splits it into singletons, and the
    # oracle forbids it; recovery does not route around it
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    o = new_oracle(ctx, params, 5, frozenset({1}))
    with pytest.raises(ForbiddenInput):
        sr.recover_zero_call_narrow(o)
    assert o.calls == 1


def test_resolve_small_queries_around_a_forbidden_probe():
    # (2, 5, 6): x = -t resolution (d = 1 and randomized) queries x = -2 = 11
    # and x = -5 = 8 only, and the largest candidate 6 is returned unqueried,
    # so a forbidden x = -6 = 7 is never asked
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    for s, calls in ((2, 1), (5, 2), (6, 2)):
        o = new_oracle(ctx, params, s, frozenset({7}))
        assert sr._resolve_small(o, (2, 5, 6)) == s
        assert o.calls == calls


def test_resolve_small_stalls_on_two_untestable_candidates():
    # probes -5 = 8 and -6 = 7 forbidden: resolution does not stall on the
    # two untestable candidates 5 and 6 but raises the oracle's
    # ForbiddenInput at x = 8; a shift resolved before that probe is found
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    for s in (5, 6):
        with pytest.raises(ForbiddenInput):
            sr._resolve_small(new_oracle(ctx, params, s, frozenset({7, 8})), (2, 5, 6))
    o = new_oracle(ctx, params, 2, frozenset({7, 8}))
    assert sr._resolve_small(o, (2, 5, 6)) == 2  # x = 11 answers 0
    assert o.calls == 1


def test_optimal_worst_calls_matches_a_plain_minimax():
    # the plain recursion from x = 0, with no dilation and no pruning, over
    # every e with d >= 2 at p < 32
    def plain(p, e):
        memo = {}

        def opt(S):
            if len(S) == 1:
                return 0
            if S not in memo:
                best = len(S)
                for x in range(p):
                    classes = {}
                    for t in S:
                        classes.setdefault(pow(x + t, e, p), []).append(t)
                    if len(classes) > 1:
                        best = min(best, 1 + max(opt(tuple(c)) for c in classes.values()))
                memo[S] = best
            return memo[S]

        seed = {}
        for t in range(p):
            seed.setdefault(pow(t, e, p), []).append(t)
        return 1 + max(opt(tuple(c)) for c in seed.values())

    for p in primes_below(32):
        for e in divisors(p - 1):
            if (p - 1) // e >= 2:
                assert optimal_worst_calls(p, e) == plain(p, e), (p, e)


def test_deterministic_worst_case_is_at_least_the_optimum():
    # on every d >= 2 cell with p < 100, no algorithm's worst case over s
    # beats the exact minimax optimum; the summed gaps are reported
    algorithms = ("zero_call_narrow", "smooth_narrow", "large_e")
    summed = dict.fromkeys(algorithms + ("optimum",), 0)
    for p in primes_below(100):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            if params.d < 2:
                continue
            optimum = optimal_worst_calls(p, e)
            assert optimum >= sr.calls_bound(p, params.d), (p, e)
            summed["optimum"] += optimum
            for algorithm in algorithms:
                worst = 0
                for s in range(p):
                    o = ShiftOracle(ctx, params, s)
                    assert sr.recover(o, algorithm) == s, (algorithm, p, e, s)
                    worst = max(worst, o.calls)
                assert worst >= optimum, (algorithm, p, e, worst, optimum)
                summed[algorithm] += worst
    gaps = ", ".join(f"{a} +{summed[a] - summed['optimum']}" for a in algorithms)
    print(f"summed worst case, d >= 2, p < 100: optimum {summed['optimum']}; {gaps}")
