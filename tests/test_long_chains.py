"""Machines with thousands of states strung along empty-output
transitions: every graph search over them must run without recursion."""

import random

import pytest

from cantrans import (
    CORE,
    INITIAL,
    EventuallyPeriodicPoint,
    NotInvertible,
    Transducer,
    eval_point,
    invert,
    minimize,
    validate,
)

CHAIN = 3000


def _bits(i, width=12):
    return tuple((i >> (width - 1 - b)) & 1 for b in range(width))


def empty_output_chain(core):
    """States c0, c1, ... linked by digit 0 with empty output; digit 1
    writes 1 and the state's binary index, so no two states are
    equivalent.  Initial mode: an entry writes the root and the chain
    ends in an echo state.  Core mode: the last 0-edge writes 0 and
    closes the chain into a ring; c0 is the preferred start."""
    names = [f"c{i}" for i in range(CHAIN)]
    last = CHAIN - 1
    end = "c0" if core else "e"
    trans = {}
    for i, q in enumerate(names):
        trans[(q, 0)] = ((), names[i + 1]) if i < last else ((0,), end)
        trans[(q, 1)] = ((1,) + _bits(i),
                         names[(7 * i + 3) % CHAIN] if core else "e")
    if core:
        return Transducer(2, None, CORE, names, "c0", trans)
    trans[("q0", -1)] = ((-1,), "c0")
    trans[("e", 0)] = ((0,), "e")
    trans[("e", 1)] = ((1,), "e")
    return Transducer(2, 1, INITIAL, ["q0", *names, "e"], "q0", trans)


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
