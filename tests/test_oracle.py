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
