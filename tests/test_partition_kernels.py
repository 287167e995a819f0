"""The partition kernels against the quadratic kernels they replaced,
kept in helpers.py as oracles: synchronization by collapse against the
pair automaton, and the core canonical form by colour refinement
against the least table over every breadth-first root."""

import random

import pytest

from cantrans import (
    Alphabet,
    canonical_form,
    core_product,
    minimize,
    sync_level,
    witness_pair,
)
from cantrans.fixtures import balanced_core_2, synchronous_core_3, \
    torsion_core_2, unbalanced_core_3
from cantrans.randgen import random_transducer

from helpers import duplicated_states, every_root_core_form, kept_apart, \
    pair_graph_level, pair_graph_witness, random_layered, shuffled_relabel, \
    strongly_connected


@pytest.fixture(scope="module")
def random_minimized():
    machines = []
    for k, alphabet in enumerate((Alphabet(2, 1), Alphabet(3, 2),
                                  Alphabet(3, 1))):
        for states in (2, 3, 4, 5):
            for seed in range(55):
                t = random_transducer(alphabet, states, 2,
                                      31_000 + 1_000 * k + 100 * states + seed)
                machines.append(minimize(t))
    # layered machines always synchronize, at levels up to their depth
    for seed in range(60):
        machines.append(minimize(random_layered(Alphabet(2, 1), 4 + seed % 8,
                                                2, 37_000 + seed)))
    return machines


@pytest.fixture(scope="module")
def balanced_powers():
    a = minimize(balanced_core_2())
    powers = [a]
    for _ in range(3):
        powers.append(core_product(powers[-1], a))
    assert [len(p.states) for p in powers] == [10, 34, 103, 300]
    return powers


def test_collapse_level_matches_pair_graph(random_minimized):
    assert len(random_minimized) >= 600
    levels = [sync_level(m) for m in random_minimized]
    assert levels == [pair_graph_level(m) for m in random_minimized]
    synchronizing = sum(level is not None for level in levels)
    assert 100 <= synchronizing <= len(levels) - 100
    assert max(level for level in levels if level is not None) >= 5


def test_collapse_witness_pairs_are_kept_apart(random_minimized):
    checked = 0
    for m in random_minimized:
        pair = witness_pair(m)
        assert (pair is None) == (pair_graph_witness(m) is None)
        if pair is not None:
            assert list(pair) == sorted(pair, key=str)
            assert kept_apart(m, *pair)
            checked += 1
    assert checked >= 300


def _assert_forms_match_oracle(cores):
    new = [canonical_form(c) for c in cores]
    old = [every_root_core_form(c) for c in cores]
    for i in range(len(cores)):
        for j in range(len(cores)):
            assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)
    return new


def test_core_forms_match_every_root_oracle(balanced_powers):
    rng = random.Random(77)
    bases = balanced_powers + [minimize(c) for c in
                               (torsion_core_2(), synchronous_core_3(),
                                unbalanced_core_3())]
    cores = []
    for c in bases:
        cores.append(c)
        cores.extend(shuffled_relabel(c, rng) for _ in range(3))
    new = _assert_forms_match_oracle(cores)
    assert len(set(new)) == len(bases)
    assert all(form.startswith(b"T2|core|") for form in new)


def test_core_forms_on_non_minimal_cores():
    rng = random.Random(5)
    cores = []
    for base in (minimize(torsion_core_2()), minimize(balanced_core_2())):
        drawn = 0
        while drawn < 4:
            d = duplicated_states(base, rng)
            if not strongly_connected(d):
                continue
            assert len(minimize(d).states) == len(base.states)
            cores.append(d)
            cores.extend(shuffled_relabel(d, rng) for _ in range(2))
            drawn += 1
    new = _assert_forms_match_oracle(cores)
    # the draws must include non-isomorphic duplications
    assert len(set(new)) > 2
