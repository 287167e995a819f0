"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from itertools import permutations

from cantrans import (
    Alphabet,
    EventuallyPeriodicPoint,
    canonical_form,
    classify_subgroup,
    compose,
    core_of,
    cycle_balance,
    eval_point,
    identity_transducer,
    invert,
    is_bisynchronizing,
    is_in_Gnr,
    merge_equivalent_states,
    minimize,
    order_in_On,
    outer_class_equal,

    run_word,
    sync_level,
    twist_transducer,
)
from cantrans.fixtures import balanced_core_2, sample_3_2, \
    synchronous_core_3, torsion_core_2, unbalanced_core_3
from cantrans.machine import relabel
from cantrans.randgen import random_prefix_code_map, random_transducer, \
    from_prefix_code_map

from helpers import letter_loop_validate, random_bisync, random_layered

A32 = Alphabet(3, 2)


class budget:
    def __init__(self, number, seconds, detail=""):
        self.number = number
        self.seconds = seconds
        self.detail = detail

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d}: {verdict} "
              f"({elapsed:.2f}s / {self.seconds}s) {self.detail}")
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds}s budget"
        )
        return False


def test_criterion_1_sample_machine():
    with budget(1, 1.0, "five-state machine on C_{3,2}"):
        t = sample_3_2()
        assert letter_loop_validate(t) == []
        assert canonical_form(minimize(t)) == canonical_form(t)
        assert sync_level(t) == 2
        assert set(core_of(t).states) == {"q2", "q3", "q4"}
        assert is_bisynchronizing(t) == (True, 2)
        assert not is_in_Gnr(t)
        assert classify_subgroup(t).in_Pn


def test_criterion_2_torsion_core():
    with budget(2, 1.0, "order-two core over C_2"):
        f5 = torsion_core_2()
        assert order_in_On(minimize(f5)) == ("finite", 2)
        flags = classify_subgroup(f5)
        assert not flags.in_Ln
        balanced, witness = cycle_balance(f5)
        assert not balanced
        cycle, read, written = witness
        assert read != written


def test_criterion_3_unbalanced_core():
    with budget(3, 1.0, "non-Lipschitz core over C_3"):
        f2 = unbalanced_core_3()
        assert canonical_form(minimize(f2)) == canonical_form(f2)
        assert len(merge_equivalent_states(f2).states) == len(f2.states)
        assert is_bisynchronizing(f2) == (True, 2)
        balanced, witness = cycle_balance(f2)
        assert not balanced
        cycle, read, written = witness
        assert set(cycle) == {"a", "b"} and (read, written) == (2, 3)
        assert not classify_subgroup(f2).in_Ln


def test_criterion_4_synchronous_core():
    with budget(4, 5.0, "infinite-order synchronous core over C_3"):
        f4 = synchronous_core_3()
        flags = classify_subgroup(f4)
        assert flags.in_Pn
        assert sync_level(f4) == 1
        # oracle: every one-letter word drives both states together
        for x in range(3):
            assert len({run_word(f4, q, (x,))[1] for q in f4.states}) == 1
        kind, _ = order_in_On(minimize(f4), cap=20)
        assert kind != "finite"


def test_criterion_5_balanced_core_orbit():
    with budget(5, 5.0, "bi-Lipschitz core over C_2, orbit growth"):
        f3 = balanced_core_2()
        ok, _level = is_bisynchronizing(f3)
        assert ok
        flags = classify_subgroup(f3)
        assert flags.in_Ln and not flags.in_Pn
        loop_state = [q for q in f3.states if f3.step(q, 1)[1] == q]
        assert loop_state == ["h"]
        x = EventuallyPeriodicPoint((1,) * 10, (0, 0, 1))
        lengths = []
        for k in range(1, 11):
            x = eval_point(f3, x, state="h")
            lengths.append(len(x.preperiod))
            assert x.preperiod == (1,) * 10 + (0, 1) * (k - 1)
            assert x.period == (0, 1, 0)
        assert lengths == sorted(lengths) and len(set(lengths)) == 10


def test_criterion_6_random_group_elements():
    with budget(6, 30.0, "100 prefix-exchange pairs: compose, invert"):
        ident = canonical_form(identity_transducer(A32))
        for seed in range(100):
            g = random_prefix_code_map(A32, 2_000_000 + seed)
            h = random_prefix_code_map(A32, 3_000_000 + seed)
            tg = from_prefix_code_map(g, A32)
            th = from_prefix_code_map(h, A32)
            lhs = canonical_form(compose(tg, th))
            rhs = canonical_form(from_prefix_code_map(g.then(h), A32))
            assert lhs == rhs
            assert canonical_form(compose(tg, invert(tg))) == ident
            assert is_in_Gnr(tg)


def test_criterion_7_conjugation_closure():
    with budget(7, 30.0, "50 conjugates of prefix-exchange maps"):
        phi = sample_3_2()
        phi_inv = invert(phi)
        for seed in range(50):
            g = from_prefix_code_map(
                random_prefix_code_map(A32, 4_000_000 + seed), A32)
            conj = compose(compose(phi_inv, g), phi)
            assert is_in_Gnr(conj)


def test_criterion_8_minimization_uniqueness():
    with budget(8, 30.0, "200 machines x 5 relabelings"):
        rng = random.Random(88)
        for seed in range(200):
            alphabet = A32 if seed % 2 else Alphabet(2, 1)
            if seed % 3 == 0:
                t = random_layered(alphabet, 4, 2, 5_000_000 + seed)
            else:
                t = random_transducer(alphabet, 4, 2, 5_000_000 + seed)
            base = canonical_form(minimize(t))
            names = list(t.states)
            for _ in range(5):
                perm = names[:]
                rng.shuffle(perm)
                variant = relabel(t, dict(zip(names, perm)))
                assert canonical_form(minimize(variant)) == base


def test_criterion_9_property_suites():
    import test_properties as props
    with budget(9, 60.0, "theta, sync oracle, core and monoid properties"):
        props.test_theta_monotonic()
        props.test_theta_composition_inequality()
        props.test_sync_level_matches_enumeration()
        props.test_core_closure()
        props.test_unique_fixed_state_per_word()
        props.test_monoid_closure()


def test_criterion_10_outer_class_suite():
    with budget(10, 30.0, "twist cores distinct; coset invariance"):
        a31 = Alphabet(3, 1)
        twists = [twist_transducer(s, a31) for s in permutations(range(3))]
        for i, a in enumerate(twists):
            for b in twists[i + 1:]:
                assert not outer_class_equal(a, b)
        for seed in range(12):
            a = random_bisync(A32, 6_000_000 + seed)
            g = from_prefix_code_map(
                random_prefix_code_map(A32, 7_000_000 + seed), A32)
            assert outer_class_equal(a, compose(a, g))
