import dataclasses
import hashlib

import pytest

from shiftbreak import field_core as fc
from shiftbreak import identity_test as it
from shiftbreak import bounds_lab as bl
from shiftbreak.errors import (
    ConfigError,
    MismatchedParams,
    OutOfRange,
    RangeViolation,
    ShiftbreakError,
    TooLarge,
)
from shiftbreak.oracle import new_oracle

from reference import divisors, known_t_reference, primes_below


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


def test_theoretical_windows_are_pinned():
    # every theoretical window and typed error for p < 1000 and three cells
    # at 2^61 - 1, as one digest of "p e variant h-or-error" lines
    def cells():
        for p in primes_below(1000):
            for e in divisors(p - 1):
                if e <= (p - 1) // 2:
                    yield p, e
        for e in (150, 1001, (2**61 - 2) // 2):
            yield 2**61 - 1, e

    lines = []
    policy = it.HPolicy(mode="theoretical")
    for p, e in cells():
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        for variant in ("known_t", "unknown_t"):
            try:
                got = it.choose_h(ctx, params, variant, policy)
            except ShiftbreakError as exc:
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{p} {e} {variant} {got}")
    assert len(lines) == 3278
    assert lines[-2:] == [
        f"{2**61 - 1} {(2**61 - 2) // 2} known_t 262144",
        f"{2**61 - 1} {(2**61 - 2) // 2} unknown_t TooLarge: window "
        "h=2714722608904 needs 5429445217810 exponentiations, above loop cap",
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0cfd181ce0027fcbec7d7d3ae439148e70e4622c4cebc8aa81f13d248a03915e"


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
    # theoretical unknown t at 2^61 - 1, e = (p - 1)/2 asks for 2(h + 1)
    # pows, above LOOP_CAP: TooLarge before any query. The known-t window
    # at that cell, 3h pows, runs
    p = 2**61 - 1
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, (p - 1) // 2)
    policy = it.HPolicy(mode="theoretical")
    o_s, o_t = new_oracle(ctx, params, 5), new_oracle(ctx, params, 5)
    with pytest.raises(TooLarge, match="h=2714722608904 "):
        it.test_unknown_t(o_s, o_t, policy)
    assert o_s.calls == o_t.calls == 0
    assert it.choose_h(ctx, params, "known_t", policy) == 262_144


@pytest.mark.parametrize(
    "variant, largest", [("known_t", 33_333_333), ("unknown_t", 49_999_999)]
)
def test_choose_h_caps_the_window_in_exponentiations(monkeypatch, variant, largest):
    # known t costs 3h pows and unknown t 2(h + 1): the largest window under
    # LOOP_CAP runs, one more probe is TooLarge. No cell's exact window sits
    # at that edge, so the window counts are patched; choose_h alone, no query
    ctx = fc.make_context(2**61 - 1)
    params = fc.make_params(ctx, 1001)
    policy = it.HPolicy(mode="exact")
    try:
        for h, ok in ((largest, True), (largest + 1, False)):
            it.window.cache_clear()
            monkeypatch.setattr(it, "longest_coset_run", lambda c, q, h=h: h - 1)
            monkeypatch.setattr(it, "exact_unknown_window", lambda p, e, h=h: h)
            if ok:
                assert it.choose_h(ctx, params, variant, policy) == h
            else:
                with pytest.raises(TooLarge, match=f"h={h} "):
                    it.choose_h(ctx, params, variant, policy)
    finally:
        it.window.cache_clear()


def test_choose_h_range_violation():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 12)
    with pytest.raises(RangeViolation):
        it.choose_h(ctx, params, "known_t", it.HPolicy())


@pytest.mark.parametrize(
    "variant, mode",
    [("nope", "exact"), ("known_t", "bogus"), ("nope", "bogus")],
    ids=["variant", "mode", "both"],
)
def test_window_rejects_an_unknown_name_and_caches_nothing(variant, mode):
    # the names are checked before any work, so a bad one is neither read
    # as another name nor cached
    size = it.window.cache_info().currsize
    with pytest.raises(ConfigError, match="unknown"):
        it.window(1009, 36, variant, mode)
    assert it.window.cache_info().currsize == size
    with pytest.raises(ConfigError, match="unknown mode"):
        it.HPolicy(mode="bogus")


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


def test_known_t_single_probe_can_be_unsound():
    # the y = 1 probe x = 1 - t lands inside a coset run for some pair: the
    # oracle agrees with (x + t)^e = 1 although s != t; exact h fixes it
    p, e = 13, 3
    fooled = [
        (s, t)
        for s in range(p)
        for t in range(p)
        if s != t and pow(1 - t + s, e, p) == 1
    ]
    assert fooled
    for s, t in fooled:
        o = make(p, e, s, forbidden=frozenset({(-t) % p}))
        assert o.query((1 - t) % p) == 1
        o = make(p, e, s, forbidden=frozenset({(-t) % p}))
        assert it.test_known_t(o, t, it.HPolicy(mode="exact")) == it.DISTINCT


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


def test_soundness_monotone_in_h(monkeypatch):
    # if h certifies all pairs, any larger window keeps certifying them
    p, e = 29, 7
    base = it.exact_unknown_window(p, e)
    policy = it.HPolicy(mode="exact")
    try:
        for extra in (0, 1, 5):
            h = min(base + extra, p - 1)
            it.window.cache_clear()
            monkeypatch.setattr(it, "exact_unknown_window", lambda p, e, h=h: h)
            for s in range(0, p, 3):
                for t in range(0, p, 4):
                    got = it.test_unknown_t(make(p, e, s), make(p, e, t), policy)
                    assert got == (it.DISTINCT if s != t else it.EQUAL)
    finally:
        it.window.cache_clear()


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
    caches = [it.window, it.exact_unknown_window, bl.longest_coset_run]
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
    misses = it.window.cache_info().misses
    warm = windows()
    # the contexts are rebuilt, but equal ones find the cached window
    assert it.window.cache_info().misses == misses
    clear()
    assert cold == warm == windows()


def test_warm_testers_compute_no_window(monkeypatch):
    # once each (p, e, variant, mode) is cached, tests on rebuilt, equal
    # contexts read their window off the cache: no window count runs, and
    # no context is rebuilt
    cells = [(13, 3), (29, 7), (61, 12)]
    modes = ("exact", "theoretical")
    it.window.cache_clear()
    for p, e in cells:
        for mode in modes:
            policy = it.HPolicy(mode=mode)
            it.test_known_t(make(p, e, 0, forbidden=frozenset({0})), 0, policy)
            it.test_unknown_t(make(p, e, 0), make(p, e, 0), policy)

    def refuse(*args):
        raise AssertionError(f"window computed again from {args}")

    for name in ("exact_unknown_window", "longest_coset_run", "make_context"):
        monkeypatch.setattr(it, name, refuse)
    for p, e in cells:
        for mode in modes:
            policy = it.HPolicy(mode=mode)
            for s, t in ((1, 1), (1, 2)):
                want = it.EQUAL if s == t else it.DISTINCT
                o = make(p, e, s, forbidden=frozenset({(-t) % p}))
                assert it.test_known_t(o, t, policy) == want
                o_s, o_t = make(p, e, s), make(p, e, t)
                assert it.test_unknown_t(o_s, o_t, policy) == want
                if s == t:
                    assert o.calls == it.window(p, e, "known_t", mode)
                    assert o_s.calls == it.window(p, e, "unknown_t", mode) + 1


def test_choose_h_raises_again_on_an_identical_call():
    p = 2**61 - 1
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, (p - 1) // 2)
    policy = it.HPolicy(mode="theoretical")
    small = fc.make_context(13)
    small_params = fc.make_params(small, 12)
    for _ in range(2):
        with pytest.raises(TooLarge, match="h=2714722608904 "):
            it.choose_h(ctx, params, "unknown_t", policy)
        with pytest.raises(RangeViolation):
            it.choose_h(small, small_params, "known_t", it.HPolicy())


def test_equal_contexts_hash_equal_and_share_cache_entries():
    # make_context caches its contexts, so the second one is a copy
    a = fc.make_context(1009)
    b = dataclasses.replace(a)
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


def recording(oracle):
    """Wrap oracle.query so that every point it is asked is appended to the
    returned list."""
    points = []
    query = oracle.query

    def record(x):
        points.append(x)
        return query(x)

    oracle.query = record
    return points


def assert_known_t_matches_reference(p, e, mode, pairs):
    # same verdict, same calls, same queried points as the per-probe loop
    policy = it.HPolicy(mode=mode)
    h = it.window(p, e, "known_t", mode)
    for s, t in pairs:
        forbidden = frozenset({(-t) % p})
        o, ref = make(p, e, s, forbidden), make(p, e, s, forbidden)
        got_points, want_points = recording(o), recording(ref)
        got = it.test_known_t(o, t, policy)
        assert got == known_t_reference(ref, t, h), (p, e, mode, s, t)
        assert o.calls == ref.calls and got_points == want_points, (p, e, mode, s, t)


def small_cells():
    for p in primes_below(60):
        for e in divisors(p - 1):
            if e <= (p - 1) // 2:
                yield p, e


@pytest.mark.parametrize(
    "plan_cap",
    [
        pytest.param(None, id="cached-plan"),
        # a cap of 2 with windows 3 probes above it: the tail runs at p < 60
        pytest.param(2, id="tail-past-a-cap-of-2"),
    ],
)
def test_known_t_plan_matches_the_per_probe_reference(monkeypatch, plan_cap):
    if plan_cap is not None:
        monkeypatch.setattr(it, "PLAN_CAP", plan_cap)
        monkeypatch.setattr(it, "window", lambda p, e, v, m: min(plan_cap + 3, p - 1))
    it.known_t_plan.cache_clear()
    for p, e in small_cells():
        pairs = [(s, t) for t in (0, 1, p // 2, p - 1) for s in range(p)]
        for mode in ("exact", "theoretical"):
            assert_known_t_matches_reference(p, e, mode, pairs)


def test_known_t_tail_past_the_plan_cap_matches_the_reference(monkeypatch):
    # windows of PLAN_CAP + 3 probes at p just above the cap: the cached
    # plan, then three probes computed as they go
    h = it.PLAN_CAP + 3
    monkeypatch.setattr(it, "window", lambda p, e, variant, mode: h)
    for p in (1031, 1033):
        assert p - 1 >= h
        for e in divisors(p - 1):
            if e > (p - 1) // 2:
                continue
            pairs = [(7, 7), (p - 1, p - 1), (0, 1), (5, p - 5)]
            for mode in ("exact", "theoretical"):
                assert_known_t_matches_reference(p, e, mode, pairs)


def test_warm_known_t_reads_its_plan_off_the_cache(monkeypatch):
    # one entry per (p, e, h): the first test builds it, every later test
    # on the cell (either mode, as both windows are 3 here) only hits it
    p, e = 67, 11
    assert it.window(p, e, "known_t", "exact") == it.window(p, e, "known_t", "theoretical")
    it.known_t_plan.cache_clear()
    it.test_known_t(make(p, e, 3, frozenset({(-3) % p})), 3, it.HPolicy(mode="exact"))
    cold = it.known_t_plan.cache_info()
    assert (cold.misses, cold.currsize) == (1, 1)

    def refuse(*args):
        raise AssertionError(f"pow{args} called on a warm test")

    monkeypatch.setattr(it, "pow", refuse, raising=False)
    for mode in ("exact", "theoretical"):
        for s, t in ((3, 3), (4, 3), (0, 66)):
            o = make(p, e, s, frozenset({(-t) % p}))
            assert it.test_known_t(o, t, it.HPolicy(mode=mode)) == (
                it.EQUAL if s == t else it.DISTINCT
            )
    warm = it.known_t_plan.cache_info()
    assert warm.hits == cold.hits + 6
    assert (warm.misses, warm.currsize) == (cold.misses, cold.currsize)


def test_known_t_plan_stops_at_the_cap_on_the_largest_window(monkeypatch):
    # theoretical known t at 2^61 - 1, e = (p - 1)/2 has h = 262,144: the
    # plan holds PLAN_CAP probes, not h; a distinct pair stops at once
    p = 2**61 - 1
    e = (p - 1) // 2
    asked = []
    plan = it.known_t_plan

    def spy(p, e, h):
        asked.append(h)
        return plan(p, e, h)

    monkeypatch.setattr(it, "known_t_plan", spy)
    o = make(p, e, 5, frozenset({(-6) % p}))
    assert it.test_known_t(o, 6, it.HPolicy(mode="theoretical")) == it.DISTINCT
    assert asked == [it.PLAN_CAP] and o.calls == 1
    assert len(plan(p, e, it.PLAN_CAP)) == it.PLAN_CAP
