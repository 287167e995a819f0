from itertools import product

import pytest

from cantrans import (
    Alphabet,
    INITIAL,
    canonical_form,
    NotSynchronizing,
    Transducer,
    compose,
    core_of,
    identity_transducer,
    invert_core,
    is_bisynchronizing,
    is_identity_core,
    minimize,
    run_word,
    sync_level,
    twist_transducer,
    witness_pair,
)
from cantrans.fixtures import balanced_core_2, sample_3_2, \
    synchronous_core_3, torsion_core_2, unbalanced_core_3
from cantrans.randgen import random_transducer
from cantrans.synchro import core_product

from helpers import _tracked_states, brute_force_level, delayed_copy, \
    random_synchronizing


def test_sync_level_examples():
    assert sync_level(sample_3_2()) == 2
    assert sync_level(synchronous_core_3()) == 1
    assert brute_force_level(synchronous_core_3()) == 1
    assert sync_level(identity_transducer(Alphabet(3, 2))) == 0
    assert sync_level(unbalanced_core_3()) == 2


def test_sync_level_brute_force_agreement():
    hits = 0
    for states in (2, 3, 4):
        for seed in range(40):
            t = random_transducer(Alphabet(2, 1), states, 2,
                                  9_000 + 100 * states + seed)
            fast = sync_level(t)
            slow = brute_force_level(t, max_level=6)
            if fast is not None and fast <= 6:
                assert fast == slow
                hits += 1
            else:
                assert slow is None
    assert hits >= 10  # the sample must actually exercise the fast path


def test_sync_level_brute_force_on_fixtures():
    for t in [sample_3_2(), unbalanced_core_3(), synchronous_core_3(),
              torsion_core_2()]:
        assert sync_level(t) == brute_force_level(t)


def test_sync_monotone_in_level():
    checked = 0
    for seed in range(30):
        t = random_synchronizing(Alphabet(2, 1), 3, 2, seed)
        m = sync_level(t)
        if m is None or m >= 5:
            continue
        tracked = _tracked_states(t)
        for extra in (m, m + 1):
            for word in product(range(t.n), repeat=extra):
                assert len({run_word(t, q, word)[1] for q in tracked}) == 1
        checked += 1
    assert checked >= 10


def test_witness_pair_on_non_synchronizing():
    # two parallel echo states never meet
    trans = {
        ("q0", -1): ((-1,), "id"),
        ("q0", -2): ((-2,), "id2"),
    }
    for q in ("id", "id2"):
        for x in range(3):
            trans[(q, x)] = ((x,), q)
    t = Transducer(3, 2, INITIAL, ["q0", "id", "id2"], "q0", trans)
    assert sync_level(t) is None
    assert witness_pair(t) == ("id", "id2")
    with pytest.raises(NotSynchronizing):
        core_of(t)


def test_core_examples():
    assert set(core_of(sample_3_2()).states) == {"q2", "q3", "q4"}
    assert is_identity_core(core_of(identity_transducer(Alphabet(3, 2))))
    f2 = unbalanced_core_3()
    assert set(core_of(f2).states) == set(f2.states)


def test_core_closure_and_connectivity():
    for seed in range(15):
        t = random_synchronizing(Alphabet(2, 1), 3, 2, 600 + seed)
        core = core_of(minimize(t))
        states = set(core.states)
        for q in states:
            for x in range(core.n):
                assert core.step(q, x)[1] in states


def test_unique_fixed_state_per_word():
    for core in [core_of(sample_3_2()), synchronous_core_3(),
                 minimize(balanced_core_2())]:
        for m in range(1, 5):
            for word in product(range(core.n), repeat=m):
                fixed = [q for q in core.states
                         if run_word(core, q, word)[1] == q]
                assert len(fixed) == 1


def test_bisynchronizing_examples():
    assert is_bisynchronizing(sample_3_2()) == (True, 2)
    assert is_bisynchronizing(unbalanced_core_3()) == (True, 2)
    assert is_bisynchronizing(delayed_copy()) == (False, None)
    assert sync_level(delayed_copy()) == 1


def test_invert_core_roundtrip():
    for c in [torsion_core_2(), synchronous_core_3(),
              minimize(balanced_core_2())]:
        d = invert_core(c)
        assert is_identity_core(core_product(minimize(c), d))
        assert is_identity_core(core_product(d, minimize(c)))


def test_monoid_closure_of_synchronizing_composition():
    for seed in range(12):
        a = random_synchronizing(Alphabet(2, 1), 3, 2, 30 + seed)
        b = random_synchronizing(Alphabet(2, 1), 3, 2, 400 + seed)
        assert sync_level(compose(a, b)) is not None


def test_twist_core_levels():
    tw = twist_transducer((1, 0), Alphabet(2, 1))
    assert sync_level(core_of(tw)) == 0
    assert is_bisynchronizing(tw) == (True, 0)


def test_invert_core_identity_and_twist():
    from cantrans import identity_core
    assert canonical_form(invert_core(identity_core(2))) == \
        canonical_form(identity_core(2))
    a31 = Alphabet(3, 1)
    cyc = core_of(twist_transducer((1, 2, 0), a31))
    inv = invert_core(cyc)
    assert canonical_form(inv) == \
        canonical_form(minimize(core_of(twist_transducer((2, 0, 1), a31))))


def test_order_search_rejects_non_core():
    from cantrans import order_in_On, Transducer, CORE
    # an echo state next to a twist state: distinct maps, never merge,
    # and no word ever brings the two together
    trans = {
        ("a", 0): ((0,), "a"), ("a", 1): ((1,), "a"),
        ("b", 0): ((1,), "b"), ("b", 1): ((0,), "b"),
    }
    parallel = Transducer(2, None, CORE, ["a", "b"], None, trans)
    assert sync_level(parallel) is None
    with pytest.raises(NotSynchronizing):
        order_in_On(parallel)
