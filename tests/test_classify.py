import importlib
import os
import time
from itertools import permutations

import pytest

from cantrans import (
    Alphabet,
    CORE,
    NotInjective,
    NotSynchronizing,
    Transducer,
    TransducerError,
    canonical_form,
    check_permutation_state,
    classify_subgroup,
    cli,
    compose,
    core_of,
    core_product,
    cycle_balance,
    identity_core,
    invert,
    invert_core,
    is_in_Gnr,
    minimize,
    order_in_On,
    outer_class_equal,
    outer_product,
    parse,
    twist_transducer,
)
from cantrans.fixtures import balanced_core_2, sample_3_2, \
    synchronous_core_3, torsion_core_2, unbalanced_core_3, unbalanced_4_2
from cantrans.randgen import random_gnr_element

from helpers import count_calls, delayed_copy, random_bisync

minimize_module = importlib.import_module("cantrans.minimize")


A32 = Alphabet(3, 2)


def test_membership_examples():
    assert is_in_Gnr(random_gnr_element(A32, 4))
    assert not is_in_Gnr(sample_3_2())
    assert not is_in_Gnr(twist_transducer((1, 0), Alphabet(2, 1)))


def test_outer_class_examples():
    t = sample_3_2()
    for seed in range(5):
        g = random_gnr_element(A32, 800 + seed)
        assert outer_class_equal(t, compose(t, g))
        assert outer_class_equal(compose(g, t), t)
    assert outer_class_equal(t, t)
    a21 = Alphabet(2, 1)
    assert not outer_class_equal(twist_transducer((1, 0), a21),
                                 identity_core(2))


def test_alphabet_mismatch_is_refused_before_minimizing(monkeypatch):
    # digit 1 has no transition, so this core is not valid
    bad = Transducer(2, None, CORE, ["q"], None, {("q", 0): ((0,), "q")})
    minimized = count_calls(monkeypatch, minimize_module, "minimize")
    for a, b in ((bad, sample_3_2()), (sample_3_2(), bad)):
        with pytest.raises(TransducerError, match="^alphabet mismatch$"):
            outer_class_equal(a, b)
    assert minimized == []


def test_outer_product_examples():
    f5 = minimize(torsion_core_2())
    sq = outer_product(f5, f5)
    assert canonical_form(sq) == canonical_form(identity_core(2))
    f4 = minimize(synchronous_core_3())
    assert canonical_form(outer_product(f4, identity_core(3))) == \
        canonical_form(f4)
    assert canonical_form(outer_product(identity_core(3), f4)) == \
        canonical_form(f4)
    a31 = Alphabet(3, 1)
    s, t = (1, 2, 0), (1, 0, 2)
    st = tuple(t[s[i]] for i in range(3))
    assert canonical_form(
        outer_product(core_of(twist_transducer(s, a31)),
                      core_of(twist_transducer(t, a31)))
    ) == canonical_form(core_of(twist_transducer(st, a31)))


def test_outer_product_associative():
    a31 = Alphabet(3, 1)
    cores = [minimize(synchronous_core_3()),
             core_of(twist_transducer((1, 2, 0), a31)),
             core_of(minimize(compose(random_bisync(Alphabet(3, 2), 3),
                                      random_bisync(Alphabet(3, 2), 9))))]
    a, b, c = cores
    lhs = outer_product(outer_product(a, b), c)
    rhs = outer_product(a, outer_product(b, c))
    assert canonical_form(lhs) == canonical_form(rhs)


def test_order_examples():
    assert order_in_On(minimize(torsion_core_2())) == ("finite", 2)
    a31 = Alphabet(3, 1)
    assert order_in_On(core_of(twist_transducer((1, 2, 0), a31))) == \
        ("finite", 3)
    kind, k = order_in_On(minimize(synchronous_core_3()), cap=20)
    assert kind != "finite"


def test_order_detects_identity_immediately():
    assert order_in_On(identity_core(2)) == ("finite", 1)


# synchronizing cores that are not injective, so outside O_n: the second
# is the first with `d 0 -> j` in place of `d 0 -> a`
OUTSIDE_On = ("not_invertible_c", "not_invertible_c_mutated")


def _data(name):
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.ct")
    with open(path) as f:
        return path, f.read()


@pytest.mark.parametrize("name", OUTSIDE_On)
def test_order_refuses_a_core_outside_On(name):
    """The powers of such a core never reach the identity and grow
    without bound, so the search refuses the core up front, with
    invert_core's refusal, at any cap."""
    a = minimize(parse(_data(name)[1]))
    powers = [a, core_product(a, a)]
    powers.append(core_product(powers[-1], a))
    assert len(powers[0].states) < len(powers[1].states) < \
        len(powers[2].states)
    with pytest.raises(NotInjective) as want:
        invert_core(a)
    for cap in (1, 5, 64):
        with pytest.raises(NotInjective) as got:
            order_in_On(parse(_data(name)[1]), cap=cap)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", OUTSIDE_On)
def test_cli_order_refuses_a_core_outside_On_at_the_default_cap(name,
                                                                 capsys):
    start = time.perf_counter()
    code = cli.main(["order", _data(name)[0]])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: not invertible: not injective: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert elapsed < 1.0


def test_cycle_balance_witnesses():
    balanced, witness = cycle_balance(unbalanced_core_3())
    assert not balanced
    states, read, written = witness
    assert (read, written) == (2, 3)
    assert set(states) == {"a", "b"}
    balanced, witness = cycle_balance(torsion_core_2())
    assert not balanced and witness[1:] == (2, 3)
    assert cycle_balance(minimize(balanced_core_2())) == (True, None)
    assert cycle_balance(identity_core(2)) == (True, None)


def test_classify_fixture_flags():
    f = classify_subgroup(sample_3_2())
    assert (f.in_Gnr, f.in_Pn, f.in_Ln, f.in_On) == (False, True, True, True)
    assert f.level == 2 and f.core_states == 3

    f = classify_subgroup(synchronous_core_3())
    assert f.in_Pn and f.in_Ln and not f.in_Gnr

    f = classify_subgroup(unbalanced_core_3())
    assert not f.in_Ln and not f.in_Pn and f.level == 2

    f = classify_subgroup(balanced_core_2())
    assert f.in_Ln and not f.in_Pn

    f = classify_subgroup(torsion_core_2())
    assert not f.in_Ln

    f = classify_subgroup(unbalanced_4_2())
    assert not f.in_Ln and f.in_On


def test_classify_rejects_non_bisync():
    with pytest.raises(NotSynchronizing):
        classify_subgroup(delayed_copy())


def test_flags_monotone():
    fixtures = [sample_3_2(), synchronous_core_3(), unbalanced_core_3(),
                balanced_core_2(), torsion_core_2(),
                random_gnr_element(A32, 77)]
    for t in fixtures:
        f = classify_subgroup(t)
        assert (not f.in_Gnr or f.in_Pn) and (not f.in_Pn or f.in_Ln) \
            and (not f.in_Ln or f.in_On)


def test_gnr_element_flags():
    f = classify_subgroup(random_gnr_element(A32, 123))
    assert f.in_Gnr and f.in_Pn and f.in_Ln and f.core_states == 1


def test_permutation_state_analysis():
    tw = twist_transducer((2, 0, 1), Alphabet(3, 1))
    is_perm, sigma, is_twist = check_permutation_state(tw, "t")
    assert is_perm and sigma == (2, 0, 1) and is_twist

    t = sample_3_2()
    is_perm, sigma, is_twist = check_permutation_state(t, "q2")
    assert is_perm and sigma == (1, 2, 0) and not is_twist

    is_perm, sigma, is_twist = check_permutation_state(torsion_core_2(), "b")
    assert not is_perm and sigma is None


def test_distinct_twist_cores():
    a31 = Alphabet(3, 1)
    forms = {
        canonical_form(core_of(twist_transducer(s, a31)))
        for s in permutations(range(3))
    }
    assert len(forms) == 6


def test_coset_core_invariance():
    for seed in range(5):
        a = random_bisync(A32, seed)
        g = random_gnr_element(A32, 5_000 + seed)
        assert canonical_form(core_of(minimize(compose(a, g)))) == \
            canonical_form(core_of(minimize(a)))


def test_conjugation_closure_sample():
    phi = sample_3_2()
    phi_inv = invert(phi)
    for seed in range(8):
        g = random_gnr_element(A32, 300 + seed)
        assert is_in_Gnr(compose(compose(phi_inv, g), phi))


def test_synchronous_core_inverse_matches_hand_computation():
    # the fixture's states act by digit permutations, so its inverse is
    # read off transition by transition: swap input with output and
    # follow the preimage letter's target
    from cantrans import CORE, Transducer, invert_core
    hand = Transducer(3, None, CORE, ["ai", "bi"], None, {
        ("ai", 1): ((0,), "ai"), ("ai", 2): ((1,), "ai"),
        ("ai", 0): ((2,), "bi"),
        ("bi", 2): ((0,), "ai"), ("bi", 1): ((1,), "ai"),
        ("bi", 0): ((2,), "bi"),
    })
    got = invert_core(synchronous_core_3())
    assert canonical_form(got) == canonical_form(minimize(hand))


def test_torsion_square_is_prefix_exchange():
    # order two in the outer group: the square of any map with this core
    # lies in the prefix-exchange group, the map itself does not
    from cantrans import embed_core, is_in_Gnr
    e = embed_core(torsion_core_2())
    assert not is_in_Gnr(e)
    assert is_in_Gnr(compose(e, e))


def test_outer_class_independent_of_r():
    # the same digit permutation twisted over one or two copies of the
    # space lands in the same outer class: cores live over C_n alone
    a31, a32 = Alphabet(3, 1), Alphabet(3, 2)
    s = (1, 2, 0)
    assert outer_class_equal(twist_transducer(s, a31),
                             twist_transducer(s, a32))
    assert not outer_class_equal(twist_transducer(s, a31),
                                 twist_transducer((0, 2, 1), a32))


def test_fixture_cores_pairwise_distinct():
    from cantrans import canonical_form, minimize
    over_2 = [minimize(torsion_core_2()), minimize(balanced_core_2()),
              core_of(twist_transducer((1, 0), Alphabet(2, 1)))]
    forms = {canonical_form(c) for c in over_2}
    assert len(forms) == 3
    over_3 = [minimize(unbalanced_core_3()), minimize(synchronous_core_3()),
              core_of(sample_3_2())]
    forms = {canonical_form(minimize(c)) for c in over_3}
    assert len(forms) == 3
