import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    EventuallyPeriodicPoint,
    INITIAL,
    Transducer,
    TransducerError,
    UnboundedOutput,
    canonical_form,
    common_prefix,
    eval_point,
    guaranteed_output,
    identity_transducer,
    local_action,
    minimize,
    parse_word,
    run_word,
    theta,
    twist_transducer,
    validate,
)
from cantrans.fixtures import sample_3_2, synchronous_core_3, torsion_core_2
from cantrans.machine import relabel
from cantrans.randgen import random_transducer

w = parse_word


def point(text):
    return EventuallyPeriodicPoint.parse(text)


def toy_loop():
    """Single digit state with guaranteed output '0'."""
    trans = {
        ("q0", -1): ((-1,), "q"),
        ("q", 0): (w("0 0"), "q"),
        ("q", 1): (w("0 1"), "q"),
    }
    return Transducer(2, 1, INITIAL, ["q0", "q"], "q0", trans)


def test_fixture_valid():
    assert validate(sample_3_2()) == []


def test_epsilon_cycle_flagged():
    trans = {("q0", -1): ((-1,), "s"), ("s", 0): ((), "s"), ("s", 1): ((1,), "s")}
    t = Transducer(2, 1, INITIAL, ["q0", "s"], "q0", trans)
    bad = validate(t)
    assert any("cycle" in v for v in bad)


def test_missing_transition_flagged():
    trans = {("q0", -1): ((-1,), "s"), ("s", 0): ((0,), "s")}
    t = Transducer(2, 1, INITIAL, ["q0", "s"], "q0", trans)
    bad = validate(t)
    assert any("incomplete transition table" in v for v in bad)


def test_run_word_examples():
    t = sample_3_2()
    assert run_word(t, "q0", w(".0 0")) == (w(".0"), "q3")
    assert run_word(t, "q0", ()) == ((), "q0")
    f4 = synchronous_core_3()
    assert run_word(f4, "a", w("2 2")) == (w("0 0"), "b")


def test_run_word_admissibility():
    t = sample_3_2()
    with pytest.raises(TransducerError):
        run_word(t, "q0", w("0"))
    with pytest.raises(TransducerError):
        run_word(t, "q2", w(".0"))


def test_eval_sample_against_run_word_oracle():
    t = sample_3_2()
    x = point(".0 | 0")
    got = eval_point(t, x)
    # independent oracle: truncated runs pin a prefix of the image
    out, _ = run_word(t, "q0", x.expand(25))
    assert got.expand(len(out)) == out
    assert got == point(".0 0 | 1")


def test_eval_identity_and_twist():
    ident = identity_transducer(Alphabet(2, 1))
    for text in [".0 | 0", ".0 1 0 | 1 0", ".0 | 0 1 1"]:
        assert eval_point(ident, point(text)) == point(text)
    tw = twist_transducer((1, 0), Alphabet(2, 1))
    assert eval_point(tw, point(".0 | 0 1")) == point(".0 | 1 0")


def test_eval_agrees_with_run_word_depths():
    rng = random.Random(11)
    for seed in range(10):
        t = random_transducer(Alphabet(2, 1), 3, 2, seed)
        u = (-1,) + tuple(rng.randrange(2) for _ in range(3))
        v = tuple(rng.randrange(2) for _ in range(1 + rng.randrange(3)))
        x = EventuallyPeriodicPoint(u, v)
        y = eval_point(t, x)
        out, _ = run_word(t, "q0", x.expand(50))
        assert y.expand(len(out)) == out


def test_guaranteed_output_examples():
    f5 = torsion_core_2()
    v = guaranteed_output(f5)
    # oracle: longest common prefix over all depth-6 runs from b
    outs = []
    for k in range(64):
        word = tuple((k >> i) & 1 for i in range(6))
        outs.append(run_word(f5, "b", word)[0])
    assert common_prefix(*outs) == ()
    assert v["b"] == ()
    assert guaranteed_output(toy_loop())["q"] == w("0")
    for q, val in guaranteed_output(minimize(sample_3_2())).items():
        assert val == ()


def test_guaranteed_output_unbounded():
    trans = {
        ("q0", -1): ((-1,), "s"),
        ("s", 0): ((0,), "s"),
        ("s", 1): ((0,), "s"),
    }
    t = Transducer(2, 1, INITIAL, ["q0", "s"], "q0", trans)
    assert validate(t) == []
    with pytest.raises(UnboundedOutput):
        guaranteed_output(t)


def test_theta_examples():
    t = sample_3_2()
    assert theta(t, w(".0")) == ()
    assert theta(t, w(".0 0")) == w(".0")
    ident = identity_transducer(Alphabet(3, 2))
    for text in [".0", ".1 2", ".0 0 1"]:
        assert theta(ident, w(text)) == w(text)
    assert theta(ident, ()) == ()
    # with a single root letter the empty cone already owes its root
    ident1 = identity_transducer(Alphabet(2, 1))
    assert theta(ident1, ()) == w(".0")


def test_theta_monotonic_random():
    rng = random.Random(5)
    for seed in range(15):
        t = random_transducer(Alphabet(3, 2), 3, 2, seed)
        for _ in range(20):
            nu = (-1 - rng.randrange(2),) + tuple(
                rng.randrange(3) for _ in range(rng.randrange(4)))
            ext = nu + tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
            a, b = theta(t, nu), theta(t, ext)
            assert b[:len(a)] == a


def test_local_action():
    t = sample_3_2()
    la = local_action(t, w(".0 0"))
    assert la.mode == CORE
    assert la.initial == "q3"
    # tail map matches: (nu x) . h == theta(nu) + (x . h_nu)
    th = theta(t, w(".0 0"))
    x = point("- | 0 1")
    lhs = eval_point(t, EventuallyPeriodicPoint(w(".0 0"), x.period))
    rhs = eval_point(la, x, state="q3")
    assert lhs.expand(20) == (th + rhs.expand(20))[:20]
    assert local_action(t, ()) is t
    with pytest.raises(TransducerError):
        local_action(t, w(".0"))  # root letter of the image not settled


def test_canonical_form_relabeling_invariance():
    t = sample_3_2()
    base = canonical_form(t)
    rng = random.Random(1)
    names = list(t.states)
    for _ in range(1000):
        perm = names[:]
        rng.shuffle(perm)
        mapping = dict(zip(names, perm))
        assert canonical_form(relabel(t, mapping)) == base


def test_canonical_form_core_mode():
    f4 = synchronous_core_3()
    swapped = relabel(f4, {"a": "b", "b": "a"})
    assert canonical_form(f4) == canonical_form(swapped)
    from cantrans import core_of, identity_core
    assert canonical_form(core_of(sample_3_2())) != canonical_form(
        identity_core(3))


def test_canonical_form_rejects_unreachable():
    trans = {
        ("q0", -1): ((-1,), "s"),
        ("s", 0): ((0,), "s"),
        ("s", 1): ((1,), "s"),
        ("junk", 0): ((0,), "junk"),
        ("junk", 1): ((1,), "junk"),
    }
    t = Transducer(2, 1, INITIAL, ["q0", "s", "junk"], "q0", trans)
    with pytest.raises(TransducerError):
        canonical_form(t)


def test_canonical_form_rejects_disconnected_core():
    """Two disjoint echo cores, and a core whose state a cannot be
    reached again once left: both valid, neither strongly connected."""
    trans = {}
    for q in ("a", "b"):
        for x in range(2):
            trans[(q, x)] = ((x,), q)
    one_way = dict(trans)
    one_way[("a", 0)] = ((0,), "b")
    for table in (trans, one_way):
        t = Transducer(2, None, CORE, ["a", "b"], None, table)
        assert validate(t) == []
        with pytest.raises(TransducerError,
                           match="disconnected core has no canonical form"):
            canonical_form(t)


def test_rejection_budget():
    from cantrans import RejectionBudgetExceeded
    with pytest.raises(RejectionBudgetExceeded):
        random_transducer(Alphabet(2, 1), 1, 0, 0, budget=5)
