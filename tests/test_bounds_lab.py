import math
import random
import time

import pytest

from shiftbreak import bounds_lab as bl
from shiftbreak import field_core as fc
from shiftbreak.errors import (
    AlgorithmFailure,
    BadV,
    DegeneratePair,
    DegenerateShift,
    NotPrime,
    OutOfRange,
    PrincipalCharacter,
    TooLarge,
    TooSmall,
)

from reference import (
    divisors,
    naive_energy,
    naive_hyperbola,
    naive_index,
    naive_J,
    naive_product_set,
    naive_run_scan,
    primes_below,
    run_python,
)

MERSENNE_61 = 2**61 - 1


@pytest.fixture
def no_field_table(monkeypatch):
    """The lab counters under test must never build an O(p) table."""

    def refuse(name):
        def build(*args):
            raise AssertionError(f"{name} built by a lab counter")

        return build

    monkeypatch.setattr(fc, "power_table", refuse("power_table"))
    monkeypatch.setattr(fc, "build_index_table", refuse("build_index_table"))


def ctx_params(p, e):
    ctx = fc.make_context(p)
    return ctx, fc.make_params(ctx, e)


# --- longest_coset_run ---


def naive_coset_run(p, e):
    best = 0
    reps = set()
    for r in range(1, p):
        rep = pow(r, e, p)
        if rep in reps:
            continue
        reps.add(rep)
        coset = {x for x in range(1, p) if pow(x, e, p) == rep}
        run = 0
        cur = 0
        for x in range(1, p):
            cur = cur + 1 if x in coset else 0
            run = max(run, cur)
        best = max(best, run)
    return best


def test_coset_run_anchors():
    assert bl.longest_coset_run(*ctx_params(13, 3)) == 2
    assert bl.longest_coset_run(*ctx_params(13, 6)) == 4
    assert bl.longest_coset_run(*ctx_params(13, 1)) == 1


def test_coset_run_matches_naive():
    for p in (7, 13, 29, 31, 61):
        for e in divisors(p - 1):
            assert bl.longest_coset_run(*ctx_params(p, e)) == naive_coset_run(p, e)


def separate_inverse_coset_run(ctx, params):
    """Reference for large p: the link set C built with one inversion per
    element, its runs walked from every element."""
    p = ctx.p
    links = {
        pow(g - 1, -1, p) for g in fc.subgroup_elements(ctx, params) if g != 1
    }
    best = 0
    for c in links:
        n = 0
        while (c + n) % p in links:
            n += 1
        best = max(best, n)
    return best + 1


def test_coset_run_matches_power_table_scan():
    for p in primes_below(2000):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            got = bl.longest_coset_run(ctx, fc.make_params(ctx, e))
            assert got == naive_run_scan(p, e), (p, e)


def test_coset_run_large_p_anchors(no_field_table):
    ctx, params = ctx_params(1000003, 166667)
    assert bl.longest_coset_run(ctx, params) == 7
    assert naive_run_scan(1000003, 166667) == 7
    for p, e, want in ((1000003, 6, 2), (MERSENNE_61, 150, 2), (MERSENNE_61, 1001, 2)):
        ctx, params = ctx_params(p, e)
        assert bl.longest_coset_run(ctx, params) == want, (p, e)
        assert separate_inverse_coset_run(ctx, params) == want, (p, e)


def test_coset_run_caps_e_not_p():
    ctx, params = ctx_params(MERSENNE_61, (MERSENNE_61 - 1) // 2)
    assert params.e > bl.EXHAUSTIVE_CAP
    with pytest.raises(TooLarge):
        bl.longest_coset_run(ctx, params)


# --- hyperbola_count ---


def test_hyperbola_anchors():
    assert bl.hyperbola_count(13, 0, 1, 3) == 1
    assert bl.hyperbola_count(13, 0, 1, 12) == 12
    assert bl.hyperbola_count(13, 1, 1, 12) == 11
    with pytest.raises(BadV):
        bl.hyperbola_count(13, 0, 13, 3)


def test_hyperbola_full_box_identity():
    for p in (13, 29, 61):
        assert bl.hyperbola_count(p, 0, 1, p - 1) == p - 1


def test_hyperbola_matches_naive_random():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([13, 29, 31, 61, 101])
        u, v, H = rng.randrange(p), rng.randrange(1, p), rng.randrange(1, p)
        assert bl.hyperbola_count(p, u, v, H) == naive_hyperbola(p, u, v, H)


def test_hyperbola_counts_every_y_past_p():
    # once H >= p every y = y0 mod p in [1, H] solves, not only the least;
    # J at nu = 2 counts the same tuples
    assert bl.hyperbola_count(13, 0, 1, 20) == 29
    assert bl.hyperbola_count(13, 2, 5, 30) == 66
    assert bl.hyperbola_count(7, 1, 3, 15) == 28
    for p in (3, 5, 7, 13):
        ctx = fc.make_context(p)
        for u in range(p):
            for v in range(1, p):
                for H in range(1, 2 * p + 3):
                    want = naive_hyperbola(p, u, v, H)
                    assert bl.hyperbola_count(p, u, v, H) == want, (p, u, v, H)
                    assert bl.product_count_J(ctx, 2, v, u, H) == want, (p, u, v, H)


# Boxes up to h = 2p + 2 wrap around the field twice, so some residues occur
# three times and some twice.
WRAPPING_BOXES = [(p, h) for p in (3, 5, 7) for h in range(1, 2 * p + 3)]


# --- multiplicative_energy_count ---


def test_energy_anchors():
    assert bl.multiplicative_energy_count(13, 0, 3) == 15
    assert bl.multiplicative_energy_count(13, 0, 1) == 1
    assert bl.multiplicative_energy_count(101, 5, 10) == naive_energy(101, 5, 10)


def test_energy_matches_naive_random():
    rng = random.Random(13)
    for _ in range(25):
        p = rng.choice([13, 29, 31, 61])
        a, H = rng.randrange(p), rng.randrange(1, 9)
        assert bl.multiplicative_energy_count(p, a, H) == naive_energy(p, a, H)


def test_energy_matches_naive_past_p():
    for p, H in WRAPPING_BOXES:
        for a in range(p):
            assert bl.multiplicative_energy_count(p, a, H) == naive_energy(p, a, H)


def test_box_counters_cap_their_loops():
    # hyperbola loops over x <= H and energy over (x1, x2) <= H: TooLarge
    # where that passes LOOP_CAP, not a loop of minutes or hours
    with pytest.raises(TooLarge):
        bl.hyperbola_count(13, 0, 1, bl.LOOP_CAP + 1)
    for H in (math.isqrt(bl.LOOP_CAP) + 1, 200000):
        with pytest.raises(TooLarge):
            bl.multiplicative_energy_count(1000003, 0, H)


@pytest.mark.parametrize("p", [1, 12, 91, -13])
def test_bare_p_counters_need_a_prime(p):
    with pytest.raises(NotPrime):
        bl.hyperbola_count(p, 0, 5, 3)
    with pytest.raises(NotPrime):
        bl.multiplicative_energy_count(p, 0, 3)


# --- subgroup_shift_intersection ---


def test_intersection_anchors():
    assert bl.subgroup_shift_intersection(*ctx_params(13, 3), [(1, 2)]) == 1
    assert bl.subgroup_shift_intersection(*ctx_params(13, 3), [(1, 1)]) == 0
    assert bl.subgroup_shift_intersection(*ctx_params(13, 12), [(1, 1)]) == 11
    with pytest.raises(DegenerateShift):
        bl.subgroup_shift_intersection(*ctx_params(13, 3), [(1, 0)])


def test_intersection_matches_naive_random():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([13, 29, 61])
        ctx = fc.make_context(p)
        e = rng.choice(divisors(p - 1))
        params = fc.make_params(ctx, e)
        m = rng.randrange(1, 4)
        mus = rng.sample(range(1, p), m)
        shifts = [(rng.randrange(1, p), mu) for mu in mus]
        sub = {x for x in range(1, p) if pow(x, e, p) == 1}
        expect = set(sub)
        for lam, mu in shifts:
            expect &= {(lam * g + mu) % p for g in sub}
        assert bl.subgroup_shift_intersection(ctx, params, shifts) == len(expect)


def test_intersection_caps_its_set_inserts_before_listing_the_subgroup(monkeypatch):
    # (m + 1)*e inserts: 201 * 500001 passes LOOP_CAP, so TooLarge at once
    # where listing G_e and 200 shifted copies would take about 30 s
    ctx, params = ctx_params(1000003, 500001)
    shifts = [(1, mu) for mu in range(1, 201)]
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="100500201 set inserts above loop cap"):
        bl.subgroup_shift_intersection(ctx, params, shifts)
    assert time.perf_counter() - start < 1.0
    # the edge, with the cap patched down: (m + 1)*e = LOOP_CAP runs, one
    # more shift is TooLarge
    monkeypatch.setattr(bl, "LOOP_CAP", 9)
    small = ctx_params(13, 3)
    assert bl.subgroup_shift_intersection(*small, [(1, 2), (1, 2)]) == 1
    with pytest.raises(TooLarge, match="12 set inserts"):
        bl.subgroup_shift_intersection(*small, [(1, 2)] * 3)


# --- product_count_J ---


def test_J_anchors():
    ctx = fc.make_context(13)
    assert bl.product_count_J(ctx, 2, 1, 0, 3) == 1
    assert bl.product_count_J(ctx, 2, 1, 0, 12) == 12
    assert bl.product_count_J(ctx, 2, 1, 0, 12) == bl.hyperbola_count(13, 0, 1, 12)
    assert bl.product_count_J(ctx, 1, 5, 0, 12) in (0, 1)


def test_J_matches_naive_random():
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([13, 29, 61])
        ctx = fc.make_context(p)
        nu = rng.randrange(1, 4)
        lam = rng.randrange(1, p)
        s = rng.randrange(p)
        h = rng.randrange(1, 10)
        assert bl.product_count_J(ctx, nu, lam, s, h) == naive_J(p, nu, lam, s, h)


def test_J_matches_naive_past_p():
    # every lambda, 0 included, and every shift
    for p, h in WRAPPING_BOXES:
        ctx = fc.make_context(p)
        for nu in (1, 2, 3):
            for s in range(p):
                for lam in range(p):
                    want = naive_J(p, nu, lam, s, h)
                    assert bl.product_count_J(ctx, nu, lam, s, h) == want, (p, nu, lam, s, h)


def ordered_factorizations(n, k, h):
    """Tuples in [1, h]^k whose integer product is n."""
    if k == 0:
        return int(n == 1)
    return sum(
        ordered_factorizations(n // d, k - 1, h)
        for d in range(1, min(n, h) + 1)
        if n % d == 0
    )


def test_J_at_its_largest_table():
    # nu = 4, h = 100 is the largest (nu - 1)-fold table under h^nu <= LOOP_CAP:
    # 171,700 entries at most.  At 2^61 - 1 the products do not wrap, so J
    # counts the ordered factorizations of lambda
    ctx = fc.make_context(MERSENNE_61)
    assert bl.product_count_J(ctx, 4, 720, 0, 100) == ordered_factorizations(720, 4, 100)


def test_J_at_lambda_zero_matches_naive():
    # h^nu - (h - z)^nu: no zero factor (z = 0), one (x = p - s <= h), and
    # several once h passes p; lambda = p is lambda = 0 too
    for p in (13, 29):
        ctx = fc.make_context(p)
        for nu in range(1, 5):
            for s in (0, 1, p - 3, p - 1, p + 2, -4):
                for h in (1, 2, 5, p - 1, p + 2):
                    if h**nu > 10**5:
                        continue
                    for lam in (0, p):
                        assert bl.product_count_J(ctx, nu, lam, s, h) == naive_J(
                            p, nu, lam, s, h
                        ), (p, nu, s, h)
    ctx = fc.make_context(13)
    assert bl.product_count_J(ctx, 2, 0, 10, 5) == 9  # x = 3 in either slot
    assert bl.product_count_J(ctx, 3, 0, 1, 5) == 0


# --- product_set_size ---


def test_product_set_anchors():
    ctx = fc.make_context(13)
    assert bl.product_set_size(ctx, 2, 5, 4, 2) == 3  # A = {9, 12}
    assert bl.product_set_size(ctx, 1, 0, None, 5) == 5
    assert bl.product_set_size(ctx, 2, 0, None, 2) == 3  # {1,2,4}
    with pytest.raises(DegeneratePair):
        bl.product_set_size(ctx, 2, 4, 4, 2)


@pytest.mark.parametrize("nu, h", [(-2, 3), (0, 3), (2, 0), (1, -5)])
def test_product_counters_need_a_positive_box(nu, h):
    # below 1 the box is empty or meaningless: no count, not a silent 0 or 1
    ctx = fc.make_context(13)
    with pytest.raises(OutOfRange):
        bl.product_count_J(ctx, nu, 1, 0, h)
    for t in (None, 4):
        with pytest.raises(OutOfRange):
            bl.product_set_size(ctx, nu, 1, t, h)


def test_product_set_matches_naive_random():
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice([13, 29, 61])
        ctx = fc.make_context(p)
        nu = rng.randrange(1, 4)
        s = rng.randrange(p)
        fractional = rng.random() < 0.5
        t = (s + rng.randrange(1, p)) % p if fractional else None
        h = rng.randrange(1, 8)
        expect = naive_product_set(p, nu, s, t, h)
        assert bl.product_set_size(ctx, nu, s, t, h) == expect


def test_product_set_matches_naive_past_p():
    # plain and every fractional base
    for p, h in WRAPPING_BOXES:
        ctx = fc.make_context(p)
        for nu in (1, 2, 3):
            for s in range(p):
                for t in (None, *(x for x in range(p) if x != s)):
                    want = naive_product_set(p, nu, s, t, h)
                    assert bl.product_set_size(ctx, nu, s, t, h) == want, (p, nu, s, t, h)


def test_product_tables_cap_their_entries():
    # a k-fold table of n factors holds at most min(comb(n + k - 1, k), p)
    # entries; past EXHAUSTIVE_CAP = 10^6 it is TooLarge before any work.
    # At 2^61 - 1 that is H >= 1414 for energy (k = 2), and h > 10^6, h >= 1414,
    # h >= 181 and h >= 69 for product sets at nu = 1, 2, 3, 4
    ctx = fc.make_context(MERSENNE_61)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^1000405 product-table entries above"):
        bl.multiplicative_energy_count(MERSENNE_61, 0, 1414)
    for nu, h in ((1, 10**6 + 1), (2, 1414), (3, 181), (4, 69)):
        for t in (None, 4):
            with pytest.raises(TooLarge, match="product-table entries above"):
                bl.product_set_size(ctx, nu, 1, t, h)
    assert time.perf_counter() - start < 1.0


# --- spaced_partition ---


def test_spaced_partition_small_anchor():
    part = bl.spaced_partition(37, {1, 10, 20}, 0.0)
    assert part.d_sets == ((1, 10, 20),)
    assert part.e_sets == ()
    assert part.leftover == ()
    bl.check_spaced_partition(37, {1, 10, 20}, 0.0, part)


def test_spaced_partition_dense_interval():
    S = set(range(1, 26))
    part = bl.spaced_partition(37, S, 0.0)
    bl.check_spaced_partition(37, S, 0.0, part)


# a partition of S = {1, 2, 3} at p = 37 whose one piece {1} leaves 2 and 3 out
BAD_PARTITION_SCRIPT = """
from shiftbreak import bounds_lab as bl
from shiftbreak.errors import AlgorithmFailure
part = bl.SpacedPartition(d_sets=((1,),), e_sets=(), leftover=())
try:
    bl.check_spaced_partition(37, {1, 2, 3}, 0.0, part)
except AlgorithmFailure as exc:
    print(exc)
"""


def test_check_spaced_partition_raises_a_typed_error():
    part = bl.SpacedPartition(d_sets=((1,),), e_sets=(), leftover=())
    with pytest.raises(AlgorithmFailure, match="does not cover S"):
        bl.check_spaced_partition(37, {1, 2, 3}, 0.0, part)


def test_check_spaced_partition_survives_optimized_mode():
    # `python -O` strips assert statements; the checks must not depend on them
    out = run_python(["-O", "-c", BAD_PARTITION_SCRIPT], 60)
    assert out.stdout == "partition does not cover S\n", out.stderr


# the partition of the empty set at each (p, kappa), checked: one line each
EMPTY_PARTITION_SCRIPT = """
from shiftbreak import bounds_lab as bl
empty = bl.SpacedPartition(d_sets=(), e_sets=(), leftover=())
for p in (37, 1009):
    for kappa in (0.0, 0.25, 1.0):
        part = bl.spaced_partition(p, [], kappa)
        bl.check_spaced_partition(p, [], kappa, part)
        print(part == empty)
"""


def test_spaced_partition_of_the_empty_set_is_empty():
    # an empty greedy set ends the search for D-sets: the empty set has
    # none.  In a subprocess under 1 GiB and 20 s, so that an endless loop
    # fails the test, not the machine
    out = run_python(["-c", EMPTY_PARTITION_SCRIPT], 20, address_space=2**30)
    assert out.stdout == "True\n" * 6, out.stderr


def test_spaced_partition_rejects_small_modulus():
    with pytest.raises(TooSmall):
        bl.spaced_partition(31, {1, 2, 3, 4}, 0.0)


def test_spaced_partition_random_instances():
    rng = random.Random(29)
    for _ in range(30):
        p = rng.choice([37, 101, 499, 1009])
        kappa = rng.uniform(0.0, 0.2)
        min_size = int(16 * p ** (2 * kappa)) + 1
        size = rng.randrange(min_size, max(min_size + 1, p // 2))
        S = set(rng.sample(range(p), min(size, p)))
        if len(S) < min_size:
            continue
        part = bl.spaced_partition(p, S, kappa)
        bl.check_spaced_partition(p, S, kappa, part)


# --- character sums ---


def test_char_sum_fraction_principal_counts():
    ctx, params = ctx_params(13, 3)
    h = 12
    val = bl.char_sum_fraction(ctx, params, 0, 5, 4, h)
    in_range = lambda a: 1 if 1 <= (-a) % 13 <= h else 0
    expect = h - in_range(4) - in_range(5)
    assert abs(val - expect) < 1e-9


def test_char_sum_fraction_complete_is_minus_one():
    ctx, params = ctx_params(13, 3)
    for j in range(1, params.d):
        val = bl.char_sum_fraction_complete(ctx, params, j, 5, 4)
        assert abs(val + 1) < 1e-9


def test_char_sum_fraction_weil_envelope():
    ctx, params = ctx_params(13, 3)
    val = bl.char_sum_fraction(ctx, params, 1, 5, 4, 3)
    assert abs(val) <= 4 * math.sqrt(13) * math.log(13)


def test_char_sum_interval():
    ctx, params = ctx_params(13, 3)
    assert abs(bl.char_sum_interval(ctx, params, 1, 12)) < 1e-9
    assert abs(bl.char_sum_interval(ctx, params, 1, 6)) <= 2 * math.sqrt(13)
    with pytest.raises(PrincipalCharacter):
        bl.char_sum_interval(ctx, params, 0, 6)


def test_char_sum_shifted_power_envelope():
    ctx, params = ctx_params(13, 3)
    val = bl.char_sum_shifted_power(ctx, params, 1, 2, 1)
    assert abs(val) <= 2 * math.sqrt(13)


def test_char_sum_shifted_power_rejects_a_negative_f():
    # x = 0 has no negative power: OutOfRange before any term, also where
    # the sum would be TooLarge
    for p, e in ((3, 1), (13, 3), (MERSENNE_61, (MERSENNE_61 - 1) // 6)):
        ctx, params = ctx_params(p, e)
        with pytest.raises(OutOfRange, match="f=-1"):
            bl.char_sum_shifted_power(ctx, params, 1, -1, 1)


def test_complete_char_sums_at_2_61_raise_at_once():
    # a complete sum loops over all p field elements: at 2^61 - 1 it would
    # never end, so it is TooLarge before the first term
    ctx, params = ctx_params(MERSENNE_61, (MERSENNE_61 - 1) // 6)
    match = f"p={MERSENNE_61} above loop cap"
    with pytest.raises(TooLarge, match=match):
        bl.char_sum_fraction_complete(ctx, params, 1, 5, 4)
    with pytest.raises(TooLarge, match=match):
        bl.char_sum_shifted_power(ctx, params, 1, 2, 1)


def test_char_sums_run_up_to_the_loop_cap_in_terms(monkeypatch):
    # h terms for the sums over 1..h and p for the complete sums: a sum of
    # LOOP_CAP terms runs and one more term is TooLarge.  The cap is patched
    # to p - 1 = 12, since a real sum of 10^8 terms takes minutes
    ctx, params = ctx_params(13, 3)
    sums = {
        "fraction": lambda h: bl.char_sum_fraction(ctx, params, 1, 5, 4, h),
        "interval": lambda h: bl.char_sum_interval(ctx, params, 1, h),
    }
    monkeypatch.setattr(bl, "LOOP_CAP", 12)
    for name, run in sums.items():
        run(12)
        with pytest.raises(TooLarge, match="h=13 above loop cap"):
            run(13)
    with pytest.raises(TooLarge, match="p=13 above loop cap"):
        bl.char_sum_fraction_complete(ctx, params, 1, 5, 4)
    with pytest.raises(TooLarge, match="p=13 above loop cap"):
        bl.char_sum_shifted_power(ctx, params, 1, 2, 1)
    monkeypatch.setattr(bl, "LOOP_CAP", 13)
    assert abs(bl.char_sum_fraction_complete(ctx, params, 1, 5, 4) + 1) < 1e-9
    assert abs(bl.char_sum_shifted_power(ctx, params, 1, 2, 1)) <= 2 * math.sqrt(13)


# --- smooth counts ---


def naive_psi(x, y):
    def smooth(n):
        for q in range(2, n + 1):
            while n % q == 0:
                if q > y:
                    return False
                n //= q
        return True

    return sum(1 for n in range(1, x + 1) if smooth(n))


def sieve_psi(x, y):
    """Reference: divide every n <= x by each prime up to y, in a list."""
    if x < 1:
        return 0
    rest = list(range(x + 1))  # rest[n]: part of n with prime factors > y
    for q in range(2, min(y, x) + 1):
        if rest[q] != q:
            continue  # q composite: some smaller prime already divided it
        for multiple in range(q, x + 1, q):
            while rest[multiple] % q == 0:
                rest[multiple] //= q
    return sum(1 for n in range(1, x + 1) if rest[n] == 1)


def test_psi_anchors():
    assert bl.psi_count(10, 2) == 4
    assert bl.psi_count(100, 3) == 20
    for x in (1, 7, 50):
        assert bl.psi_count(x, x) == x
    assert bl.psi_count(0, 5) == 0
    assert bl.psi_count(10**8, 30) == 88415  # at LOOP_CAP, within the memory cap
    with pytest.raises(TooLarge):
        bl.psi_count(bl.LOOP_CAP + 1, 30)


def test_psi_matches_naive():
    for x in (1, 10, 60, 200):
        for y in (2, 3, 5, 13):
            assert bl.psi_count(x, y) == naive_psi(x, y)


def test_psi_matches_sieve_random():
    rng = random.Random(1949)
    for _ in range(60):
        x, y = rng.randrange(20001), rng.randrange(20001)
        assert bl.psi_count(x, y) == sieve_psi(x, y), (x, y)
    for x in range(40):
        for y in range(42):
            assert bl.psi_count(x, y) == sieve_psi(x, y), (x, y)


def index_table_smooth_order(ctx, y):
    """Reference: p - 1 over the gcd of p - 1 and the indices of 1..y."""
    table = naive_index(ctx)
    p = ctx.p
    g = p - 1
    for x in range(1, min(y, p - 1) + 1):
        g = math.gcd(g, table[x])
    return (p - 1) // math.gcd(p - 1, g)


def test_smooth_subgroup_matches_index_table_gcd():
    for p in primes_below(2000):
        ctx = fc.make_context(p)
        for y in [*range(-1, 12), p - 2, p - 1, p, p + 5]:
            got = bl.smooth_subgroup_order(ctx, y)
            assert got == index_table_smooth_order(ctx, y), (p, y)


def test_smooth_subgroup_order_large_p(no_field_table):
    ctx = fc.make_context(MERSENNE_61)
    assert bl.smooth_subgroup_order(ctx, 1) == 1
    assert bl.smooth_subgroup_order(ctx, 2) == 61  # 2^61 = 1 mod p, 61 prime
    assert bl.smooth_subgroup_order(ctx, 10) == MERSENNE_61 - 1
    assert bl.smooth_subgroup_order(ctx, 10**18) == MERSENNE_61 - 1


def test_lab_counters_import_no_field_table():
    assert not hasattr(bl, "power_table")
    assert not hasattr(bl, "build_index_table")


def test_smooth_subgroup_order():
    ctx = fc.make_context(13)
    assert bl.smooth_subgroup_order(ctx, 2) == 12
    assert bl.smooth_subgroup_order(ctx, 1) == 1
    # closure cross-check for p=31, y=5
    ctx31 = fc.make_context(31)
    gen = set(range(1, 6))
    closure = {1}
    frontier = True
    while frontier:
        new = {a * b % 31 for a in closure for b in gen} | closure
        frontier = new != closure
        closure = new
    assert bl.smooth_subgroup_order(ctx31, 5) == len(closure)
