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

from reference import divisors


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
    capped = it.HPolicy(mode="theoretical", epsilon=5, cap=fc.LOOP_CAP)
    assert it.choose_h(ctx, params, "known_t", capped) == fc.LOOP_CAP
    policy = it.HPolicy(mode="theoretical", epsilon=1)
    assert it.choose_h(ctx, params, "known_t", policy) == 5631


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
