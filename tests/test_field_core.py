import cmath
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbreak import bounds_lab as bl
from shiftbreak import field_core as fc
from shiftbreak.errors import NotPrime, Overflow, TooLarge

from reference import divisors, naive_index

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def brute_least_primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError


def trial_division_factorize(n):
    """Reference: trial division by 2 and every odd number up to sqrt(n)."""
    out = []
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            k = 0
            while m % q == 0:
                m //= q
                k += 1
            out.append((q, k))
        q += 1 if q == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_make_context_13():
    ctx = fc.make_context(13)
    assert ctx.g == 2
    assert ctx.group_order_factors == ((2, 2), (3, 1))


def test_make_context_3():
    ctx = fc.make_context(3)
    assert ctx.g == 2
    assert ctx.group_order_factors == ((2, 1),)


def test_make_context_rejects_composite():
    with pytest.raises(NotPrime):
        fc.make_context(15)


def test_make_context_rejects_out_of_range():
    with pytest.raises(Overflow):
        fc.make_context(2)
    with pytest.raises(Overflow):
        fc.make_context(2**61 + 15)


def test_least_primitive_root_matches_brute_force():
    for p in SMALL_PRIMES:
        assert fc.make_context(p).g == brute_least_primitive_root(p)


def test_factorization_multiplies_back():
    for p in SMALL_PRIMES:
        ctx = fc.make_context(p)
        prod = 1
        for ell, k in ctx.group_order_factors:
            prod *= ell**k
        assert prod == p - 1


def test_factorize_matches_trial_division_below_1e5():
    for n in range(1, 10**5):
        assert fc.factorize(n) == trial_division_factorize(n), n


def test_factorize_matches_trial_division_random_below_1e12():
    rng = random.Random(20110)
    for _ in range(25):
        n = rng.randrange(10**5, 10**12)
        assert fc.factorize(n) == trial_division_factorize(n), n


def test_factorize_prime_powers_and_products_above_trial_bound():
    # cofactors that trial division leaves to rho: squares, cubes and
    # products of equal and unequal primes just above 2^10, 2^20 and 2^31
    for q, r in ((1031, 1033), (1048573, 1048583), (2147483647, 2147483659)):
        assert fc.factorize(q * q) == ((q, 2),)
        assert fc.factorize(q**3) == ((q, 3),)
        assert fc.factorize(2 * q * r) == ((2, 1), (q, 1), (r, 1))
        assert fc.factorize(q * q * r) == ((q, 2), (r, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=2**61 - 1))
def test_factorize_property_below_2_61(n):
    factors = fc.factorize(n)
    assert list(factors) == sorted(factors)
    assert len({q for q, _ in factors}) == len(factors)
    prod = 1
    for q, k in factors:
        assert fc.is_prime(q) and k >= 1
        prod *= q**k
    assert prod == n


@pytest.mark.parametrize(
    "p, factors",
    [
        (1152921504606843299, ((2, 1), (576460752303421649, 1))),  # safe prime
        (1126844094631811327, ((2, 1), (527608327, 1), (1067879369, 1))),
    ],
)
def test_make_context_60_bit(p, factors):
    started = time.perf_counter()
    ctx = fc.make_context(p)
    assert time.perf_counter() - started < 2.0
    assert ctx.group_order_factors == factors
    assert all(pow(ctx.g, (p - 1) // ell, p) != 1 for ell, _ in factors)


def test_subgroup_elements_examples():
    ctx = fc.make_context(13)
    assert fc.subgroup_elements(ctx, fc.make_params(ctx, 3)) == (1, 3, 9)
    assert fc.subgroup_elements(ctx, fc.make_params(ctx, 1)) == (1,)
    assert fc.subgroup_elements(ctx, fc.make_params(ctx, 4)) == (1, 5, 8, 12)


def test_subgroup_elements_caps_e():
    ctx = fc.make_context(1000003)
    assert len(fc.subgroup_elements(ctx, fc.make_params(ctx, 1000002 // 2))) == 500001
    with pytest.raises(TooLarge):
        fc.subgroup_elements(ctx, fc.make_params(ctx, 1000002))


def test_subgroup_matches_brute_force_and_is_closed():
    for p in SMALL_PRIMES:
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            sub = fc.subgroup_elements(ctx, params)
            brute = tuple(x for x in range(1, p) if pow(x, e, p) == 1)
            assert sub == brute
            assert len(sub) == e
            members = set(sub)
            for a in sub:
                for b in sub:
                    assert a * b % p in members


def test_index_table_13():
    ctx = fc.make_context(13)  # g = 2
    table = fc.build_index_table(ctx, fc.make_params(ctx, 3))
    assert table == {1: 0, 8: 1, 12: 2, 5: 3}  # (2^3)^k for k < d = 4
    ind = naive_index(ctx)
    assert (ind[7], ind[2], ind[1]) == (11, 1, 12)
    assert table[pow(7, 3, 13)] == ind[7] % 4


def test_index_table_round_trips():
    for p in SMALL_PRIMES:
        ctx = fc.make_context(p)
        ind = naive_index(ctx)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            table = fc.build_index_table(ctx, params)
            assert sorted(table.values()) == list(range(params.d))
            for x in range(1, p):
                assert table[pow(x, e, p)] == ind[x] % params.d, (p, e, x)


def test_index_table_cache_keeps_one_table():
    # a table near the cap holds about 10^6 entries: only the last is kept
    ctx = fc.make_context(13)
    for e in (3, 4):
        fc.build_index_table(ctx, fc.make_params(ctx, e))
    assert fc.build_index_table.cache_info().currsize == 1


def test_index_table_cap():
    ctx = fc.make_context(1000003)
    params = fc.make_params(ctx, 1)  # d = 1000002, above EXHAUSTIVE_CAP
    with pytest.raises(TooLarge):
        fc.build_index_table(ctx, params)
    with pytest.raises(TooLarge):
        fc.character_eval(ctx, params, 1, 2)


def test_characters_at_2_61():
    # d = 6 at p = 2^61 - 1: no table over the field
    p = 2**61 - 1
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, (p - 1) // 6)
    for j in range(6):
        for k in range(12):
            got = fc.character_eval(ctx, params, j, pow(ctx.g, k, p))
            assert abs(got - cmath.exp(2j * math.pi * j * k / 6)) < 1e-9, (j, k)
    # reference: ind(y) mod 2 and mod 3 from y^((p-1)/2) and y^((p-1)/3)
    omega = pow(ctx.g, (p - 1) // 3, p)
    expect = 0j
    for y in range(1, 1001):
        r2 = 0 if pow(y, (p - 1) // 2, p) == 1 else 1
        r3 = [1, omega, omega * omega % p].index(pow(y, (p - 1) // 3, p))
        k = next(k for k in range(6) if k % 2 == r2 and k % 3 == r3)
        expect += cmath.exp(2j * math.pi * k / 6)
    assert abs(bl.char_sum_interval(ctx, params, 1, 1000) - expect) < 1e-9


def test_character_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    assert abs(fc.character_eval(ctx, params, 1, 3) - 1) < 1e-9
    assert abs(fc.character_eval(ctx, params, 0, 7) - 1) < 1e-9
    assert fc.character_eval(ctx, params, 1, 0) == 0


def test_character_trivial_on_subgroup():
    ctx = fc.make_context(13)
    for e in (1, 2, 3, 4, 6, 12):
        params = fc.make_params(ctx, e)
        for j in range(params.d):
            for mu in fc.subgroup_elements(ctx, params):
                assert abs(fc.character_eval(ctx, params, j, mu) - 1) < 1e-9


def test_character_orthogonality():
    for p in (13, 31, 101):
        ctx = fc.make_context(p)
        for e in (1, 2, (p - 1) // 2):
            if (p - 1) % e:
                continue
            params = fc.make_params(ctx, e)
            for j in range(1, params.d):
                total = sum(
                    fc.character_eval(ctx, params, j, x) for x in range(1, p)
                )
                assert abs(total) < 1e-9


def test_least_nonresidue_examples():
    assert fc.least_nonresidue(fc.make_context(13), 3) == 2
    assert fc.least_nonresidue(fc.make_context(13), 2) == 2
    assert fc.least_nonresidue(fc.make_context(7), 3) == 2


def test_least_nonresidue_is_smallest():
    for p in SMALL_PRIMES:
        ctx = fc.make_context(p)
        for ell, _ in ctx.group_order_factors:
            a = fc.least_nonresidue(ctx, ell)
            assert pow(a, (p - 1) // ell, p) != 1
            for b in range(2, a):
                assert pow(b, (p - 1) // ell, p) == 1


@settings(max_examples=60)
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=200))
def test_fermat(p, x):
    x %= p
    if x:
        assert pow(x, p - 1, p) == 1


@settings(max_examples=60)
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=200))
def test_membership_iff_power_one(p, x):
    ctx = fc.make_context(p)
    x = x % (p - 1) + 1
    for e in (1, 2, (p - 1)):
        params = fc.make_params(ctx, e)
        in_sub = x in fc.subgroup_elements(ctx, params)
        assert (pow(x, e, p) == 1) == in_sub


def test_power_table_matches_pow():
    tab = fc.power_table(13, 3)
    for x in range(13):
        assert tab[x] == pow(x, 3, 13)
