import pytest

from shiftbreak import field_core as fc
from shiftbreak.errors import ForbiddenInput, OutOfRange
from shiftbreak.oracle import new_oracle, unsafe_reveal_secret


def make(p=13, e=3, s=5, forbidden=frozenset()):
    ctx = fc.make_context(p)
    return new_oracle(ctx, fc.make_params(ctx, e), s, forbidden)


def test_fresh_oracle_counts_zero():
    assert make().calls == 0


def test_query_examples():
    o = make()
    assert o.query(2) == 5  # (2+5)^3 = 343 = 5 mod 13
    assert o.query(8) == 0  # x = -s
    assert o.calls == 2


def test_forbidden_input_rejected_and_not_counted():
    o = make(forbidden=frozenset({9}))
    o.query(1)
    with pytest.raises(ForbiddenInput):
        o.query(9)
    o.query(2)
    assert o.calls == 2


@pytest.mark.parametrize("forbidden", [{22}, [9 + 13]], ids=["set", "list"])
def test_unreduced_forbidden_input_is_reduced(forbidden):
    # 22 = 9 mod 13, and so is -4: every spelling of 9 is rejected uncounted
    o = make(forbidden=forbidden)
    assert o.forbidden == {9}
    for x in (9, -4, 22):
        with pytest.raises(ForbiddenInput):
            o.query(x)
    assert o.calls == 0
    o.query(1)
    assert o.calls == 1


def test_out_of_range_secret():
    with pytest.raises(OutOfRange):
        make(s=13)


def test_query_matches_direct_power():
    for s in range(13):
        o = make(s=s)
        for x in range(13):
            assert o.query(x) == pow((x + s) % 13, 3, 13)
            assert (o.query(x) == 0) == (x == (-s) % 13)


def test_secret_sealed_from_public_surface():
    o = make()
    assert not hasattr(o, "s")
    assert not hasattr(o, "secret")
    assert unsafe_reveal_secret(o) == 5


def test_oracle_that_forbids_nothing_takes_any_spelling_of_x():
    # x is reduced only to check it against forbidden inputs; pow reduces
    # x + s itself, so every spelling of x answers alike, each call counted
    o = make()
    assert not o.forbidden
    for x in range(13):
        answers = {o.query(y) for y in (x, x + 13, x - 13, x + 2**70 * 13)}
        assert answers == {pow(x + 5, 3, 13)}
    assert o.calls == 4 * 13
