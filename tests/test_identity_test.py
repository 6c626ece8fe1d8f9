from dataclasses import replace

import pytest

from shiftbreak import field_core as fc
from shiftbreak import identity_test as it
from shiftbreak import bounds_lab as bl
from shiftbreak.errors import (
    ConfigError,
    MismatchedParams,
    OutOfRange,
    RangeViolation,
    TooLarge,
)
from shiftbreak.oracle import new_oracle

from reference import divisors, primes_below


def make(p, e, s, forbidden=frozenset()):
    ctx = fc.make_context(p)
    return new_oracle(ctx, fc.make_params(ctx, e), s, forbidden)


def test_choose_h_exact_known_t_anchor():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    h = it.choose_h(ctx, params, "known_t", it.HPolicy(mode="exact"))
    assert h == 3  # N(3; 13) = 2, h = N + 1


def test_choose_h_theoretical_known_t_anchor():
    # e = 81 with epsilon = 0.05: ceil(81^0.30) = 4 (p chosen so e-term is min)
    ctx = fc.make_context(163)
    params = fc.make_params(ctx, 81)
    h = it.choose_h(ctx, params, "known_t", it.HPolicy(mode="theoretical"))
    assert h == 4


def test_choose_h_never_exceeds_cap():
    for p in (13, 1009):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            if e > (p - 1) // 2:
                continue
            params = fc.make_params(ctx, e)
            for mode in ("exact", "theoretical"):
                for variant in ("known_t", "unknown_t"):
                    if mode == "exact" and variant == "unknown_t" and p > 100:
                        continue  # exhaustive window too slow here
                    h = it.choose_h(ctx, params, variant, it.HPolicy(mode=mode))
                    assert 1 <= h <= p - 1


def test_choose_h_above_the_loop_cap_is_too_large():
    # theoretical known t at epsilon = 5: h = ceil(1001^5.25) ~ 5.7e15, far
    # under the default window cap p - 1 but above LOOP_CAP
    ctx = fc.make_context(2**61 - 1)
    params = fc.make_params(ctx, 1001)
    policy = it.HPolicy(mode="theoretical", epsilon=5)
    with pytest.raises(TooLarge):
        it.choose_h(ctx, params, "known_t", policy)
    policy = it.HPolicy(mode="theoretical", epsilon=1)
    assert it.choose_h(ctx, params, "known_t", policy) == 5631


@pytest.mark.parametrize(
    "variant, largest", [("known_t", 33_333_333), ("unknown_t", 49_999_999)]
)
def test_choose_h_caps_the_window_in_exponentiations(variant, largest):
    # known t costs 3h pows and unknown t 2(h + 1): the largest window under
    # LOOP_CAP runs, one more probe is TooLarge; choose_h alone, no query
    ctx = fc.make_context(2**61 - 1)
    params = fc.make_params(ctx, 1001)
    policy = it.HPolicy(mode="theoretical", epsilon=5, cap=largest)
    assert it.choose_h(ctx, params, variant, policy) == largest
    with pytest.raises(TooLarge):
        it.choose_h(ctx, params, variant, replace(policy, cap=largest + 1))


def test_choose_h_known_t_stops_the_minutes_long_window():
    # epsilon = 2.32: h = 51,418,048 probes under LOOP_CAP, but 3h pows above
    # it (about 8 minutes on an equal pair); epsilon = 2.2 still runs
    ctx = fc.make_context(2**61 - 1)
    params = fc.make_params(ctx, 1001)
    policy = it.HPolicy(mode="theoretical", epsilon=2.32)
    with pytest.raises(TooLarge, match="h=51418048"):
        it.choose_h(ctx, params, "known_t", policy)
    policy = it.HPolicy(mode="theoretical", epsilon=2.2)
    assert it.choose_h(ctx, params, "known_t", policy) == 22_442_100


def test_choose_h_range_violation():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 12)
    with pytest.raises(RangeViolation):
        it.choose_h(ctx, params, "known_t", it.HPolicy())


def test_known_t_examples():
    o = make(13, 3, 5, forbidden=frozenset({(-4) % 13}))
    assert it.test_known_t(o, 4) == it.DISTINCT
    o = make(13, 3, 4, forbidden=frozenset({(-4) % 13}))
    assert it.test_known_t(o, 4) == it.EQUAL


def test_known_t_rejects_t_outside_the_field():
    # t = 18 and t = -8 are 5 mod 13, but only 0 <= t < p names a shift
    for t in (18, -8, 13):
        o = make(13, 3, 5, forbidden=frozenset({(-t) % 13}))
        with pytest.raises(OutOfRange):
            it.test_known_t(o, t)
        assert o.calls == 0


def test_window_cap_below_one_is_rejected():
    for cap in (0, -5):
        with pytest.raises(ConfigError):
            it.HPolicy(cap=cap)
    assert it.HPolicy(cap=1).cap == 1


def test_known_t_single_probe_can_be_unsound():
    # h=1 lands inside a coset run for some pair; exact h fixes it
    found_false_equal = False
    policy = it.HPolicy(mode="exact", cap=1)
    for s in range(13):
        for t in range(13):
            if s == t:
                continue
            o = make(13, 3, s, forbidden=frozenset({(-t) % 13}))
            if it.test_known_t(o, t, policy) == it.EQUAL:
                found_false_equal = True
    assert found_false_equal


def test_unknown_t_examples():
    o_s = make(13, 3, 5)
    o_t = make(13, 3, 4)
    assert it.test_unknown_t(o_s, o_t) == it.DISTINCT
    assert o_s.calls == 1  # disagreement at x = 0
    o_s = make(13, 3, 7)
    o_t = make(13, 3, 7)
    assert it.test_unknown_t(o_s, o_t) == it.EQUAL


def test_unknown_t_mismatched_params():
    with pytest.raises(MismatchedParams):
        it.test_unknown_t(make(13, 3, 5), make(13, 4, 5))
    with pytest.raises(MismatchedParams):
        it.test_unknown_t(make(13, 3, 5), make(29, 4, 5))


def test_exact_mode_exhaustive_small():
    for p in (7, 13, 29):
        for e in divisors(p - 1):
            if e > (p - 1) // 2:
                continue
            for s in range(p):
                for t in range(p):
                    o = make(p, e, s, forbidden=frozenset({(-t) % p}))
                    got = it.test_known_t(o, t, it.HPolicy(mode="exact"))
                    assert (got == it.EQUAL) == (s == t), (p, e, s, t)
                    o_s = make(p, e, s)
                    o_t = make(p, e, t)
                    got2 = it.test_unknown_t(o_s, o_t, it.HPolicy(mode="exact"))
                    assert (got2 == it.EQUAL) == (s == t), (p, e, s, t)


def test_known_t_never_queries_forbidden_input():
    # the forbidden x = -t raises if ever queried; a clean run proves avoidance
    for p in (13, 29):
        for e in divisors(p - 1):
            if e > (p - 1) // 2:
                continue
            for s in range(p):
                for t in (0, 1, p - 1):
                    o = make(p, e, s, forbidden=frozenset({(-t) % p}))
                    it.test_known_t(o, t, it.HPolicy(mode="exact"))


def test_soundness_monotone_in_h():
    # if h certifies all pairs, any larger cap keeps certifying them
    p, e = 29, 7
    base = it.exact_unknown_window(p, e)
    for extra in (0, 1, 5):
        policy = it.HPolicy(mode="exact", cap=min(base + extra, p - 1))
        for s in range(0, p, 3):
            for t in range(0, p, 4):
                got = it.test_unknown_t(make(p, e, s), make(p, e, t), policy)
                if s != t and base + extra >= base:
                    assert got == it.DISTINCT


def test_call_counts():
    p, e, s, t = 29, 7, 3, 3
    policy = it.HPolicy(mode="exact")
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, e)
    h_known = it.choose_h(ctx, params, "known_t", policy)
    o = make(p, e, s, forbidden=frozenset({(-t) % p}))
    it.test_known_t(o, t, policy)
    assert o.calls <= h_known
    h_unknown = it.choose_h(ctx, params, "unknown_t", policy)
    o_s, o_t = make(p, e, s), make(p, e, t)
    it.test_unknown_t(o_s, o_t, policy)
    assert o_s.calls + o_t.calls <= 2 * (h_unknown + 1)


def test_exact_unknown_window_caps_p_squared(monkeypatch):
    def refuse(p, e):
        raise AssertionError(f"power_table({p}, {e}) built above the cap")

    monkeypatch.setattr(it, "power_table", refuse)
    assert 10007**2 > bl.LOOP_CAP
    with pytest.raises(TooLarge):
        it.exact_unknown_window(10007, 2)
    with pytest.raises(TooLarge):
        it.exact_unknown_window(1000000009, 8)


def test_equal_pairs_make_exactly_the_window_calls():
    # s = t never disagrees, so each tester spends its whole window: h calls
    # for known t, h + 1 per oracle for unknown t
    for p in primes_below(60):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            if e > (p - 1) // 2:
                continue
            params = fc.make_params(ctx, e)
            for mode in ("exact", "theoretical"):
                policy = it.HPolicy(mode=mode)
                h_known = it.choose_h(ctx, params, "known_t", policy)
                h_unknown = it.choose_h(ctx, params, "unknown_t", policy)
                for s in (0, p // 3, p - 1):
                    o = make(p, e, s, forbidden=frozenset({(-s) % p}))
                    assert it.test_known_t(o, s, policy) == it.EQUAL
                    assert o.calls == h_known, (p, e, mode, s)
                    o_s, o_t = make(p, e, s), make(p, e, s)
                    assert it.test_unknown_t(o_s, o_t, policy) == it.EQUAL
                    assert o_s.calls + o_t.calls == 2 * (h_unknown + 1), (p, e, mode, s)


def test_choose_h_same_window_cold_and_warm():
    caches = [it.choose_h, it.exact_unknown_window, bl.longest_coset_run]
    cells = [(13, 3), (29, 7), (61, 12), (1009, 36)]

    def windows():
        out = []
        for p, e in cells:
            ctx = fc.make_context(p)
            params = fc.make_params(ctx, e)
            for mode in ("exact", "theoretical"):
                for variant in ("known_t", "unknown_t"):
                    if mode == "exact" and variant == "unknown_t" and p > 100:
                        continue  # exhaustive window too slow here
                    policy = it.HPolicy(mode=mode)
                    out.append(it.choose_h(ctx, params, variant, policy))
        return out

    def clear():
        for cache in caches:
            cache.cache_clear()
            assert cache.cache_info().currsize == 0

    clear()
    cold = windows()
    misses = it.choose_h.cache_info().misses
    warm = windows()
    # the contexts are rebuilt, but equal ones find the cached window
    assert it.choose_h.cache_info().misses == misses
    clear()
    assert cold == warm == windows()


def test_choose_h_raises_again_on_an_identical_call():
    ctx = fc.make_context(2**61 - 1)
    params = fc.make_params(ctx, 1001)
    policy = it.HPolicy(mode="theoretical", epsilon=5)
    small = fc.make_context(13)
    small_params = fc.make_params(small, 12)
    for _ in range(2):
        with pytest.raises(TooLarge):
            it.choose_h(ctx, params, "known_t", policy)
        with pytest.raises(RangeViolation):
            it.choose_h(small, small_params, "known_t", it.HPolicy())


def test_equal_contexts_hash_equal_and_share_cache_entries():
    a, b = fc.make_context(1009), fc.make_context(1009)
    assert a is not b and a == b and hash(a) == hash(b)
    pa, pb = fc.make_params(a, 36), fc.make_params(b, 36)
    assert pa is not pb and pa == pb and hash(pa) == hash(pb)
    bl.longest_coset_run.cache_clear()
    want = bl.longest_coset_run(a, pa)
    info = bl.longest_coset_run.cache_info()
    assert bl.longest_coset_run(b, pb) == want
    after = bl.longest_coset_run.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


def test_params_with_the_same_e_at_different_p_are_unequal():
    # d = (p-1)/e tells them apart, so no cache mixes up their windows
    small, large = fc.make_context(13), fc.make_context(1009)
    assert small != large
    p13, p1009 = fc.make_params(small, 3), fc.make_params(large, 3)
    assert p13.e == p1009.e and p13 != p1009
    policy = it.HPolicy(mode="exact")
    assert it.choose_h(small, p13, "known_t", policy) == 3
    assert it.choose_h(large, p1009, "known_t", policy) == bl.longest_coset_run(
        large, p1009
    ) + 1


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
def test_epsilon_must_be_finite_and_positive(epsilon):
    with pytest.raises(ConfigError):
        it.HPolicy(mode="theoretical", epsilon=epsilon)


def test_overflowing_closed_form_saturates_to_the_window_cap():
    # 30^400.25 overflows a float, also from an int epsilon (30^400 is an
    # exact int until it meets a float): the window is the cap
    ctx = fc.make_context(211)
    params = fc.make_params(ctx, 30)
    for cap, want in ((None, 210), (7, 7)):
        policy = it.HPolicy(mode="theoretical", epsilon=400, cap=cap)
        assert it.choose_h(ctx, params, "known_t", policy) == want
        assert it.choose_h(ctx, params, "unknown_t", policy) == want
