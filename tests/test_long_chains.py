"""Machines with thousands of states strung along empty-output
transitions: every graph search over them must run without recursion."""

import random

import pytest

from cantrans import (
    EventuallyPeriodicPoint,
    NotInvertible,
    eval_point,
    invert,
    minimize,
    validate,
)

from helpers import CHAIN, empty_output_chain


def _points(core, rng):
    for _ in range(4):
        lead = (0,) * rng.randrange(CHAIN) + (1,)
        period = tuple(rng.randrange(2) for _ in range(1 + rng.randrange(3)))
        yield EventuallyPeriodicPoint(lead if core else (-1,) + lead, period)


@pytest.mark.parametrize("core", [False, True])
def test_long_empty_output_chain_validates(core):
    assert validate(empty_output_chain(core)) == []


@pytest.mark.parametrize("core", [False, True])
def test_long_empty_output_chain_minimizes(core):
    t = empty_output_chain(core)
    m = minimize(t)
    assert len(m.states) <= len(t.states)
    for point in _points(core, random.Random(3000)):
        assert eval_point(m, point) == eval_point(t, point)


def test_long_empty_output_chain_is_not_invertible():
    with pytest.raises(NotInvertible, match="pending word '1 1 1'"):
        invert(empty_output_chain(False))
