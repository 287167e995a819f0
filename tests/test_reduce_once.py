"""Each machine is validated and minimized once per operation: compose
validates only the factors not known to be valid (never the pair machine
of valid factors), invert and from_prefix_code_map validate the machine
they build once, invert validates an input not known to be valid once
and a minimal one not at all, is_in_Gnr reduces its input once, each
machine is collapsed (synchro._collapse, the work behind every
synchronization level) at most once per membership test,
classification, order search and core ladder rung, degenerate
constructions are still refused with their old types, and the
bi-synchronizing verdicts equal the three-minimize path they replaced
(kept in helpers.py as an oracle)."""

import importlib
import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    NotInvertible,
    Transducer,
    TransducerError,
    classify_subgroup,
    compose,
    core_product,
    core_of,
    from_prefix_code_map,
    identity_core,
    identity_transducer,
    invert,
    is_bisynchronizing,
    is_in_Gnr,
    minimize,
    order_in_On,
    outer_class_equal,
    parse,
    random_prefix_code_map,
    serialize,
    sync_level,
)
from cantrans import algebra, fixtures, machine, synchro
from cantrans.randgen import random_gnr_element

from helpers import count_calls, delayed_copy, random_bisync, \
    round_remap_collapse, three_minimize_bisync, three_minimize_in_gnr

# the package's `minimize` attribute is the function, not the module
minimize_module = importlib.import_module("cantrans.minimize")


def _gnr_pair(seed):
    alphabet = Alphabet(3, 2)
    return (random_gnr_element(alphabet, seed),
            random_gnr_element(alphabet, seed + 1))


def test_compose_validates_the_product_once(monkeypatch):
    # valid factors make a valid pair machine, so only they are checked,
    # and factors known to be valid (minimal ones) not at all
    a, b = _gnr_pair(3)
    seen = count_calls(monkeypatch, machine, "validate")
    product = compose(a, b)
    assert seen == []
    a2, b2 = (Transducer(t.n, t.r, t.mode, t.states, t.initial, t.trans)
              for t in (a, b))
    assert serialize(compose(a2, b2)) == serialize(product)
    assert seen == [a2, b2]


def test_invert_validates_its_input_and_the_inverse_once(monkeypatch):
    # compose's result is known to be minimal, so only the inverse is
    # validated; a copy through the public constructor is validated too
    a = compose(*_gnr_pair(5))
    copy = Transducer(a.n, a.r, a.mode, a.states, a.initial, a.trans)
    seen = count_calls(monkeypatch, machine, "validate")
    inverse = invert(a)
    assert len(seen) == 1
    assert all(isinstance(q, tuple) for q in seen[0].states)
    assert serialize(invert(copy)) == serialize(inverse)
    assert len(seen) == 3
    assert seen[1] is copy
    assert all(isinstance(q, tuple) for q in seen[2].states)


def test_from_prefix_code_map_validates_once(monkeypatch):
    alphabet = Alphabet(3, 2)
    pm = random_prefix_code_map(alphabet, 11)
    seen = count_calls(monkeypatch, machine, "validate")
    from_prefix_code_map(pm, alphabet)
    assert len(seen) == 1


@pytest.mark.parametrize("t", [
    compose(*_gnr_pair(7)), fixtures.sample_3_2(),
    minimize(fixtures.torsion_core_2()),
], ids=["gnr", "sample_3_2", "torsion_core_2"])
def test_is_in_Gnr_minimizes_its_input_once(monkeypatch, t):
    seen = count_calls(monkeypatch, minimize_module, "_reduce")
    is_in_Gnr(t)
    # a machine the reduction built is taken as it is, any other is
    # reduced once
    assert seen.count(t) == (0 if t._known == machine._MINIMAL else 1)
    # everything else reduced is built by the inversion, on pairs (state,
    # pending word): invert's one machine, or invert_core's configuration
    # machines
    others = [m for m in seen if m is not t]
    assert all(isinstance(q, tuple) for m in others for q in m.states)
    if t.mode == INITIAL:
        assert len(others) == 1


@pytest.mark.parametrize("t", [
    compose(*_gnr_pair(7)), random_gnr_element(Alphabet(2, 1), 3),
    fixtures.sample_3_2(), minimize(fixtures.torsion_core_2()),
], ids=["gnr", "gnr-2-1", "sample_3_2", "torsion_core_2"])
def test_is_in_Gnr_synchronizes_each_machine_once(monkeypatch, t):
    seen = count_calls(monkeypatch, synchro, "_collapse")
    verdict = is_in_Gnr(t)
    # the core is taken at the level already found, not collapsed again
    assert len({id(m) for m in seen}) == len(seen)
    if t.mode == INITIAL and verdict:
        assert len(seen) == 2
    monkeypatch.undo()
    assert verdict == three_minimize_in_gnr(t)


def test_classify_synchronizes_each_machine_once(monkeypatch):
    a = minimize(fixtures.balanced_core_2())
    cube = core_product(core_product(a, a), a)
    seen = count_calls(monkeypatch, synchro, "_collapse")
    flags = classify_subgroup(cube)
    assert flags.core_states == 103
    # the cube, the inverse's machine of run sets (664 pending-word
    # configurations before they were merged by run set) and the inverse
    # core; invert_core and core_of read the cube's level, and the
    # round-trip products check neither factor again
    assert [len(t.states) for t in seen] == [103, 131, 103]


def test_order_search_synchronizes_its_core_once(monkeypatch):
    a = minimize(fixtures.balanced_core_2())
    seen = count_calls(monkeypatch, synchro, "_collapse")
    assert order_in_On(a, cap=3) == ("unknown", None)
    assert [len(t.states) for t in seen] == [10]


def test_a_ladder_rung_is_collapsed_once(monkeypatch):
    """A power of the core ladder, leveled, cored, compared with itself
    and multiplied into the next power: only its level needs a collapse,
    and every answer is the one fresh copies give."""
    a = minimize(fixtures.balanced_core_2())
    sync_level(a)
    p = core_product(a, a)
    seen = count_calls(monkeypatch, synchro, "_collapse")
    level = sync_level(p)
    core = core_of(p)
    same = outer_class_equal(p, p)
    cube = core_product(p, a)
    assert seen == [p]
    monkeypatch.undo()
    fresh = Transducer(p.n, None, CORE, p.states, None, p.trans)
    assert level == round_remap_collapse(fresh)[2] is not None
    assert serialize(core) == serialize(core_of(fresh))
    assert same is True
    assert serialize(cube) == serialize(core_product(fresh, a))


def _silent_initial():
    """Writes nothing on digit 0 in a loop: not a valid machine, and its
    product with the identity has an empty-output cycle."""
    trans = {("q0", -1): ((-1,), "s"), ("s", 0): ((), "s"),
             ("s", 1): ((1,), "s")}
    return Transducer(2, 1, INITIAL, ["q0", "s"], "q0", trans)


def test_degenerate_compose_is_still_refused():
    silent = _silent_initial()
    ident = identity_transducer(Alphabet(2, 1))
    core = Transducer(2, None, CORE, ["s"], None,
                      {("s", 0): ((), "s"), ("s", 1): ((1,), "s")})
    for x, y in ((silent, ident), (ident, silent),
                 (core, identity_core(2))):
        with pytest.raises(TransducerError, match="degenerate product"):
            compose(x, y)


def test_degenerate_inverse_is_still_refused(monkeypatch):
    # the pending-suffix inverses of the fixtures and of seeded random
    # machines all validate, so the validation of the constructed inverse
    # is made to report a violation
    real = algebra.validate

    def strict(t):
        if any(isinstance(q, tuple) for q in t.states):
            return ["forced violation"]
        return real(t)

    monkeypatch.setattr(algebra, "validate", strict)
    with pytest.raises(NotInvertible,
                       match="inverse construction degenerate: forced"):
        invert(fixtures.sample_3_2())


def _fixture_machines():
    return [parse(text) for text in fixtures.ALL.values()] + [delayed_copy()]


def test_bisync_verdicts_match_three_minimize_path_on_fixtures():
    for t in _fixture_machines():
        assert is_bisynchronizing(t) == three_minimize_bisync(t)
        assert is_in_Gnr(t) == three_minimize_in_gnr(t)


def test_bisync_verdicts_match_three_minimize_path_on_gnr_elements():
    rng = random.Random(17)
    alphabets = [Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2)]
    for _ in range(50):
        t = random_gnr_element(rng.choice(alphabets), rng.randrange(2 ** 32))
        assert is_bisynchronizing(t) == three_minimize_bisync(t)
        assert is_in_Gnr(t) is three_minimize_in_gnr(t) is True


def test_bisync_verdicts_match_three_minimize_path_on_bisync_cores():
    verdicts = set()
    for seed in range(12):
        alphabet = Alphabet(2 + seed % 2, 1)
        t = random_bisync(alphabet, seed)
        core = core_of(minimize(t))
        for m in (t, core):
            got = is_bisynchronizing(m)
            assert got == three_minimize_bisync(m)
            assert is_in_Gnr(m) == three_minimize_in_gnr(m)
            verdicts.add(got[0])
    assert verdicts == {True}
