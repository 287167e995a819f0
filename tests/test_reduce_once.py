"""Each machine is validated and minimized once per operation: compose
validates only the factors not known to be valid (never the pair machine
of valid factors), invert and from_prefix_code_map validate no machine
they build (each is valid by construction, checked here on copies),
invert validates an input not known to be valid once and a minimal one
not at all, is_in_Gnr reduces its input once, each machine is collapsed
(synchro._collapse, the work behind every synchronization level) at
most once per membership test, classification, order search and core
ladder rung, degenerate constructions are refused at the gate with
their factor's violations, and the bi-synchronizing verdicts equal the
three-minimize path they replaced (kept in helpers.py as an oracle)."""

import importlib
import random
import sys

import pytest

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    InvalidTransducer,
    NotInvertible,
    Transducer,
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
    twist_transducer,
    validate,
)
from cantrans import algebra, fixtures, machine, synchro
from cantrans.randgen import random_gnr_element, random_transducer

from helpers import count_calls, deep_twist, delayed_copy, \
    letter_loop_validate, random_bisync, round_remap_collapse, \
    three_minimize_bisync, three_minimize_in_gnr

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
    seen = count_calls(monkeypatch, machine, "_stages")
    product = compose(a, b)
    assert seen == []
    a2, b2 = (Transducer(t.n, t.r, t.mode, t.states, t.initial, t.trans)
              for t in (a, b))
    assert serialize(compose(a2, b2)) == serialize(product)
    assert seen == [a2._rows, b2._rows]


def test_invert_validates_its_input_once_and_never_its_inverse(
        monkeypatch):
    # compose's result is known to be minimal, so nothing is validated;
    # a copy through the public constructor is validated once, and the
    # machine of sets, valid by construction, never
    a = compose(*_gnr_pair(5))
    copy = Transducer(a.n, a.r, a.mode, a.states, a.initial, a.trans)
    seen = count_calls(monkeypatch, machine, "validate")
    inverse = invert(a)
    assert seen == []
    assert serialize(invert(copy)) == serialize(inverse)
    assert seen == [copy]


def test_from_prefix_code_map_validates_nothing(monkeypatch):
    # its raw machine is valid by construction once the map's codes pass
    # (checked on 200 maps in test_validate.py), and the reduction's
    # result is minimal
    alphabet = Alphabet(3, 2)
    pm = random_prefix_code_map(alphabet, 11)
    seen = count_calls(monkeypatch, machine, "validate")
    from_prefix_code_map(pm, alphabet)
    assert seen == []


# each machine with what decides its membership: the walk of its prefix
# replacement map, or the inversion, of a core or of a code past the
# walk's budget
DECIDED = {
    "gnr": (compose(*_gnr_pair(7)), "walk"),
    "gnr-2-1": (random_gnr_element(Alphabet(2, 1), 3), "walk"),
    "sample_3_2": (fixtures.sample_3_2(), "walk"),
    "torsion_core_2": (minimize(fixtures.torsion_core_2()), "core"),
    "deep_twist": (deep_twist(Alphabet(2, 1), 7, (1, 0)), "budget"),
}


@pytest.mark.parametrize("t, decided", [
    DECIDED[k] for k in ("gnr", "sample_3_2", "torsion_core_2", "deep_twist")
], ids=["gnr", "sample_3_2", "torsion_core_2", "deep_twist"])
def test_is_in_Gnr_minimizes_its_input_once(monkeypatch, t, decided):
    seen = count_calls(monkeypatch, minimize_module, "_reduce")
    inverted = count_calls(monkeypatch, algebra, "invert")
    # the inversion each reduction is called from, found on the stack
    sources = []
    counting = minimize_module._reduce

    def recording(m):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        sources.append(next((f for f in ("invert", "_inverse_from")
                             if f in names), None))
        return counting(m)

    for module in (minimize_module, algebra):
        monkeypatch.setattr(module, "_reduce", recording)
    is_in_Gnr(t)
    assert len(sources) == len(seen)
    # a machine the reduction built is taken as it is, any other is
    # reduced once, outside the inversion
    own = [m for m, source in zip(seen, sources) if source is None]
    assert own == ([] if t._known == machine._MINIMAL else [t])
    # everything else reduced is built by the inversion: none on the
    # walk of an initial-mode machine's prefix replacement map, invert's
    # one machine for a code past the walk's budget, or invert_core's
    # cores of machines of run sets
    others = [source for source in sources if source is not None]
    if decided == "core":
        assert others and set(others) == {"_inverse_from"}
    elif decided == "budget":
        assert others == ["invert"] and len(inverted) == 1
    else:
        assert others == [] and inverted == []


@pytest.mark.parametrize("t, decided", list(DECIDED.values()),
                         ids=list(DECIDED))
def test_is_in_Gnr_synchronizes_each_machine_once(monkeypatch, t, decided):
    seen = count_calls(monkeypatch, synchro, "_collapse")
    verdict = is_in_Gnr(t)
    # the core is taken at the level already found, not collapsed again,
    # and the walk of an initial-mode machine collapses nothing, nor does
    # the inversion of a code past its budget
    assert len({id(m) for m in seen}) == len(seen)
    if decided == "core":
        assert seen
    else:
        assert seen == []
        assert verdict or decided != "budget"
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
    # the core, then the machine of sets of its inverse, which the search
    # builds once to refuse a core outside O_n; no power is collapsed
    assert [len(t.states) for t in seen] == [10, 11]


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
    assert seen == [p._rows]
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
    """The factor with the empty-output loop is refused at the gate, on
    either side, with its violations."""
    silent = _silent_initial()
    ident = identity_transducer(Alphabet(2, 1))
    core = Transducer(2, None, CORE, ["s"], None,
                      {("s", 0): ((), "s"), ("s", 1): ((1,), "s")})
    for x, y in ((silent, ident), (ident, silent),
                 (core, identity_core(2))):
        bad = silent if core not in (x, y) else core
        with pytest.raises(InvalidTransducer) as err:
            compose(x, y)
        assert str(err.value) == "; ".join(letter_loop_validate(bad)) == \
            "epsilon-output cycle through 's' -> 's'"


def _inversion_corpus():
    """Initial machines whose inversion succeeds or is refused in each
    way: the fixtures, twists, a delayed copy, G_{n,r} elements and
    their products, bi-synchronizing machines and random machines."""
    alphabets = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2),
                 Alphabet(4, 1))
    out = [fixtures.sample_3_2(), fixtures.unbalanced_4_2(),
           twist_transducer((1, 2, 0), Alphabet(3, 1)),
           twist_transducer((1, 0, 3, 2), Alphabet(4, 2)), delayed_copy()]
    for i in range(40):
        alphabet = alphabets[i % 4]
        gnr = random_gnr_element(alphabet, 3_000 + i)
        out += [gnr, compose(gnr, random_gnr_element(alphabet, 3_500 + i)),
                random_bisync(alphabet, 4_000 + i)]
    out += [random_transducer(alphabets[i % 4], 1 + i % 2, 1, 88_000 + i)
            for i in range(200)]
    return out


def test_raw_inverses_are_valid_by_construction(monkeypatch):
    """invert reduces its machine of sets without validating it: a
    public-constructor copy of each, named by its configurations, passes
    validate and the letter loop, and minimizing the copy gives invert's
    result."""
    raws = []
    explore = algebra._explore

    def recording(*args, **kwargs):
        raws.append(explore(*args, **kwargs))
        return raws[-1]

    monkeypatch.setattr(algebra, "_explore", recording)
    checked = 0
    for a in _inversion_corpus():
        raws.clear()
        try:
            inverse = invert(a)
        except NotInvertible:
            inverse = None
        if not raws:
            continue
        (raw,) = raws
        trans = {(q, x): (w, raw.states[j])
                 for q, letters, outs, targets in zip(
                     raw.states, raw.letters, raw.outs, raw.targets)
                 for x, w, j in zip(letters, outs, targets)}
        copy = Transducer(a.n, a.r, INITIAL, raw.states, raw.states[0],
                          trans)
        assert validate(copy) == []
        assert letter_loop_validate(copy) == []
        if inverse is not None:
            assert serialize(minimize(copy)) == serialize(inverse)
        checked += 1
    assert checked >= 150


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
