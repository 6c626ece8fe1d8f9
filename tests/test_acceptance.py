"""End-to-end acceptance checks.

One test per criterion; each prints a single [ACCEPT] PASS/FAIL line (visible
with -s and in failure output), and pytest -v shows one verdict per criterion.
Reference counts are recomputed here with independent naive loops.
"""

import contextlib
import io
import math
import random

from shiftbreak import bounds_lab as bl
from shiftbreak import cli
from shiftbreak import field_core as fc
from shiftbreak import identity_test as it
from shiftbreak import shift_recovery as sr
from shiftbreak.oracle import new_oracle
from shiftbreak.root_solver import all_eth_roots, full_witness_set

from reference import (
    divisors,
    naive_energy,
    naive_hyperbola,
    naive_J,
    naive_product_set,
    naive_run_scan,
    primes_below,
)

CALL_THRESHOLD = 24  # policy constant for the efficiency criterion


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPT] {label}: FAIL", flush=True)
        raise
    print(f"[ACCEPT] {label}: PASS", flush=True)


def test_01_root_sets_match_brute_force():
    with criterion("01 root sets match brute force (p < 500, all e, all A)"):
        for p in primes_below(500):
            ctx = fc.make_context(p)
            for e in divisors(p - 1):
                params = fc.make_params(ctx, e)
                wits = full_witness_set(ctx, params)
                buckets = {}
                tab = fc.power_table(p, e)
                for x in range(p):
                    buckets.setdefault(tab[x], []).append(x)
                for A in range(p):
                    expect = tuple(buckets.get(A, ()))
                    assert all_eth_roots(ctx, params, A, wits) == expect, (p, e, A)


DETERMINISTIC = ("interpolation", "zero_call_narrow", "smooth_narrow", "large_e")


def test_02_recovery_sound_for_every_shift():
    # every deterministic algorithm also stays within interpolation's e + 1
    # oracle calls; randomized is bounded in the mean (criterion 04).  No
    # worst case over s beats the counting bound, so no answer is read
    # around the oracle.
    with criterion(
        "02 recovery returns the planted shift (p < 300, all e, all s, "
        "5 algorithms), in at most e + 1 calls but for randomized, and in "
        "no fewer than the counting bound in the worst case"
    ):
        for p in primes_below(300):
            ctx = fc.make_context(p)
            policy = sr.ProbePolicy(max_rounds=max(64, p))
            for e in divisors(p - 1):
                params = fc.make_params(ctx, e)
                worst = dict.fromkeys(DETERMINISTIC + (1, 2, 3), 0)
                for s in range(p):
                    for algorithm in DETERMINISTIC:
                        o = new_oracle(ctx, params, s)
                        assert sr.recover(o, algorithm, policy) == s, (algorithm, p, e, s)
                        assert o.calls <= e + 1, (algorithm, p, e, s, o.calls)
                        worst[algorithm] = max(worst[algorithm], o.calls)
                    for seed in (1, 2, 3):
                        o = new_oracle(ctx, params, s)
                        got = sr.recover(o, "randomized", policy, seed=seed)
                        assert got == s, (p, e, s, seed)
                        worst[seed] = max(worst[seed], o.calls)
                bound = sr.calls_bound(p, params.d)
                assert min(worst.values()) >= bound, (p, e, bound, worst)


def test_03_narrowing_call_budget_on_grid():
    label = (
        f"03 zero-call narrowing stays under {CALL_THRESHOLD} calls "
        "(grid p in {211, 1009, 10007}, 16 <= e <= p^0.9, 20 trials)"
    )
    with criterion(label):
        cells = 0
        for p in (211, 1009, 10007):
            ctx = fc.make_context(p)
            for e in divisors(p - 1):
                if not (16 <= e <= p**0.9):
                    continue
                cells += 1
                params = fc.make_params(ctx, e)
                rng = random.Random(p * 100000 + e)
                worst = 0
                for _ in range(20):
                    s = rng.randrange(p)
                    o = new_oracle(ctx, params, s)
                    assert sr.recover_zero_call_narrow(o) == s, (p, e, s)
                    worst = max(worst, o.calls)
                assert worst <= CALL_THRESHOLD, (p, e, worst)
                if e >= 64:
                    assert worst < e + 1, (p, e, worst)
        assert cells > 0


def test_04_randomized_mean_call_budget():
    with criterion("04 randomized mean calls <= nu + 4 (200 trials per cell)"):
        assert sr.randomized_probe_count(13, 3) == 6
        assert sr.randomized_probe_count(1009, 12) == 5
        cells = [(1009, 12), (1009, 144)]
        cells += [
            (10007, e) for e in divisors(10006) if 2 <= e <= 10007**0.9
        ]
        for p, e in cells:
            ctx = fc.make_context(p)
            params = fc.make_params(ctx, e)
            nu = sr.randomized_probe_count(p, e)
            rng = random.Random(p + e)
            total = 0
            for trial in range(200):
                s = rng.randrange(p)
                o = new_oracle(ctx, params, s)
                got = sr.recover(o, "randomized", seed=trial)
                assert got == s, (p, e, s)
                total += o.calls
            assert total / 200 <= nu + 4, (p, e, total / 200, nu)


def test_05_identity_testers_exhaustive():
    with criterion(
        "05 exact-mode identity tests decide s = t exactly (p <= 300, e <= (p-1)/2)"
    ):
        policy = it.HPolicy(mode="exact")
        for p in primes_below(301):
            ctx = fc.make_context(p)
            for e in divisors(p - 1):
                if e > (p - 1) // 2:
                    continue
                params = fc.make_params(ctx, e)
                for t in range(p):
                    forbidden = frozenset({(-t) % p})
                    for s in range(p):
                        # forbidden input raises if ever issued, so a clean
                        # run doubles as the avoidance check
                        o = new_oracle(ctx, params, s, forbidden)
                        got = it.test_known_t(o, t, policy)
                        assert (got == it.EQUAL) == (s == t), (p, e, s, t)
                shared = [new_oracle(ctx, params, s) for s in range(p)]
                for s in range(p):
                    for t in range(s, p):
                        got = it.test_unknown_t(shared[s], shared[t], policy)
                        assert (got == it.EQUAL) == (s == t), (p, e, s, t)


def test_06_coset_run_lengths():
    with criterion("06 coset-run lengths: anchors and N(e) <= e up to p = 2000"):
        anchors = [((13, 3), 2), ((13, 6), 4), ((13, 1), 1)]
        for (p, e), want in anchors:
            ctx = fc.make_context(p)
            params = fc.make_params(ctx, e)
            assert bl.longest_coset_run(ctx, params) == want
            assert naive_run_scan(p, e) == want
        ratio_half = 0.0
        ratio_quarter = 0.0
        for p in primes_below(2001):
            ctx = fc.make_context(p)
            for e in divisors(p - 1):
                if e < 2:
                    continue
                n = bl.longest_coset_run(ctx, fc.make_params(ctx, e))
                # N(e) = e occurs (e = 2 and e = p-1 cosets can be intervals),
                # so the unconditional assertion is <=, not <
                assert n <= e, (p, e, n)
                ratio_half = max(ratio_half, n / e**0.5)
                ratio_quarter = max(ratio_quarter, n / e**0.25)
        print(
            f"[ACCEPT]   max N(e)/e^0.5 = {ratio_half:.3f}, "
            f"max N(e)/e^0.25 = {ratio_quarter:.3f} (reported, not asserted)"
        )


def naive_intersection(p, e, shifts):
    sub = {x for x in range(1, p) if pow(x, e, p) == 1}
    out = set(sub)
    for lam, mu in shifts:
        out &= {(lam * g + mu) % p for g in sub}
    return len(out)


def test_07_counting_routines_match_naive_loops():
    with criterion("07 counting routines match naive loops (>= 100 instances)"):
        ctx13 = fc.make_context(13)
        assert bl.multiplicative_energy_count(13, 0, 3) == 15
        assert bl.hyperbola_count(13, 0, 1, 3) == 1
        assert bl.product_count_J(ctx13, 2, 1, 0, 3) == 1
        assert bl.product_set_size(ctx13, 2, 5, 4, 2) == 3
        rng = random.Random(77)
        small = [13, 29, 31, 61, 101]
        instances = 0
        for _ in range(30):
            p = rng.choice(small)
            u, v, H = rng.randrange(p), rng.randrange(1, p), rng.randrange(1, p)
            assert bl.hyperbola_count(p, u, v, H) == naive_hyperbola(p, u, v, H)
            instances += 1
        for _ in range(25):
            p = rng.choice(small[:4])
            a, H = rng.randrange(p), rng.randrange(1, 9)
            assert bl.multiplicative_energy_count(p, a, H) == naive_energy(p, a, H)
            instances += 1
        for _ in range(25):
            p = rng.choice(small[:4])
            ctx = fc.make_context(p)
            nu, lam = rng.randrange(1, 4), rng.randrange(1, p)
            s, h = rng.randrange(p), rng.randrange(1, 9)
            assert bl.product_count_J(ctx, nu, lam, s, h) == naive_J(p, nu, lam, s, h)
            instances += 1
        for _ in range(25):
            p = rng.choice(small[:4])
            ctx = fc.make_context(p)
            nu, s, h = rng.randrange(1, 4), rng.randrange(p), rng.randrange(1, 8)
            t = (s + rng.randrange(1, p)) % p if rng.random() < 0.5 else None
            assert bl.product_set_size(ctx, nu, s, t, h) == naive_product_set(
                p, nu, s, t, h
            )
            instances += 1
        for _ in range(25):
            p = rng.choice(small[:4])
            ctx = fc.make_context(p)
            e = rng.choice(divisors(p - 1))
            params = fc.make_params(ctx, e)
            shifts = [
                (rng.randrange(1, p), rng.randrange(1, p))
                for _ in range(rng.randrange(1, 4))
            ]
            assert bl.subgroup_shift_intersection(ctx, params, shifts) == (
                naive_intersection(p, e, shifts)
            )
            instances += 1
        assert instances >= 100


def test_08_character_sum_envelopes():
    with criterion("08 character sums: complete cancellation and 4*sqrt(p)*ln(p)"):
        rng = random.Random(88)
        for p in (13, 29, 101, 211):
            ctx = fc.make_context(p)
            envelope = 4 * math.sqrt(p) * math.log(p)
            for e in divisors(p - 1)[1:4]:
                params = fc.make_params(ctx, e)
                d = params.d
                if d < 2:
                    continue
                js = range(1, d) if d <= 6 else rng.sample(range(1, d), 5)
                for j in js:
                    assert abs(bl.char_sum_interval(ctx, params, j, p - 1)) < 1e-9
                    s, t = rng.randrange(p), rng.randrange(p)
                    if s == t:
                        t = (t + 1) % p
                    assert abs(
                        bl.char_sum_fraction_complete(ctx, params, j, s, t) + 1
                    ) < 1e-9
                    for h in (1, p // 3, p - 1):
                        val = bl.char_sum_fraction(ctx, params, j, s, t, max(1, h))
                        assert abs(val) <= envelope, (p, e, j, h, abs(val))


def test_09_spaced_partition_postconditions():
    with criterion("09 spaced-partition properties hold on 50 random instances"):
        rng = random.Random(99)
        primes = [37, 59, 101, 211, 499, 1009, 2003, 3001, 4999, 7507, 10007]
        assert all(fc.is_prime(p) for p in primes)
        done = 0
        while done < 50:
            p = rng.choice(primes)
            kappa = rng.uniform(0.0, 0.2)
            floor_size = int(16 * p ** (2 * kappa)) + 1
            hi = min(p - 1, max(floor_size + 1, 1500))
            if floor_size >= hi:
                continue
            size = rng.randrange(floor_size, hi)
            S = set(rng.sample(range(p), size))
            part = bl.spaced_partition(p, S, kappa)
            bl.check_spaced_partition(p, S, kappa, part)
            done += 1


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue().encode()


def test_10_reports_byte_reproducible():
    with criterion("10 seeded reports byte-reproducible (wall budget in conftest)"):
        commands = [
            ["recover", "--p", "1009", "--e", "12", "--algorithm", "randomized",
             "--seed", "42", "--trials", "5"],
            ["bench", "--p", "211", "--e", "30", "--trials", "5", "--seed", "9"],
            ["identity", "--p", "211", "--e", "30", "--seed", "4"],
            ["lab", "--lemma", "coset_run", "--p", "211", "--e", "30"],
        ]
        for argv in commands:
            assert run_cli(argv) == run_cli(argv), argv
