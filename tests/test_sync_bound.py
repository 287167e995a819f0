"""The synchronization level against the Perles-Rabin-Shamir bound: a
definite automaton with k states is (k - 1)-definite (The theory of
definite automata, IEEE Trans. Electronic Computers, 1963).  So when
the tracked states of a machine synchronize, they do so within one
letter fewer than their number:
sync_level(t) <= len(_tracked_states(t)) - 1.  The 3002-state initial
empty-output chain meets the bound: 3001 tracked states, level 3000."""

import pytest

from cantrans import (
    Alphabet,
    fixtures,
    minimize,
    parse,
    serialize,
    sync_level,
)
from cantrans.randgen import random_transducer

from helpers import _tracked_states, balanced_powers, empty_output_chain, \
    multi_core_bisync, random_layered


def _within_bound(t):
    """Whether t synchronizes; its level, if any, meets the bound."""
    level = sync_level(t)
    if level is None:
        return False
    assert level <= len(_tracked_states(t)) - 1
    return True


@pytest.fixture(scope="module")
def chain():
    """The initial empty-output chain, its level and its tracked states,
    collapsed once."""
    t = empty_output_chain(False)
    return sync_level(t), len(_tracked_states(t))


def test_the_chain_meets_the_bound(chain):
    assert chain == (3000, 3001)


def test_ladders_within_the_bound():
    """The powers of BALANCED_CORE_2, read back from their documents so
    that each level is collapsed, not remembered from the product."""
    for power in balanced_powers(5):
        assert _within_bound(parse(serialize(power)))


def test_multi_state_cores_within_the_bound():
    machines = [multi_core_bisync(4_600 + seed) for seed in range(30)]
    assert all(map(_within_bound, machines + list(map(minimize, machines))))


def test_fixtures_within_the_bound():
    machines = [parse(text) for text in fixtures.ALL.values()]
    assert all(map(_within_bound, machines + list(map(minimize, machines))))


def test_random_machines_within_the_bound():
    synchronizing = 0
    for k, alphabet in enumerate((Alphabet(2, 1), Alphabet(3, 1),
                                  Alphabet(3, 2))):
        for seed in range(120):
            t = random_transducer(alphabet, 1 + seed % 6, 2,
                                  46_000 + 1_000 * k + seed)
            synchronizing += _within_bound(t) + _within_bound(minimize(t))
    for seed in range(60):
        synchronizing += _within_bound(
            random_layered(Alphabet(2, 1), 3 + seed % 9, 2, 47_000 + seed))
    assert synchronizing >= 200
