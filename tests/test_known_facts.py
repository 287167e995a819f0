"""What a machine knows about itself.  A machine that holds rows is
valid: validate keeps the view of a machine it passes as its rows (and
so check_valid and parse do), and the library builds on rows only what
is valid by construction (from_prefix_code_map's raw machine, _core_at's
core); the reduction marks the machines it builds minimal.  A collapse
records the machine's synchronization level, or that it has none, and
core_product and invert_core mark what they build as synchronizing;
nothing else marks a machine.  The idempotence oracle behind
`minimize(m) is m`: reducing a machine marked minimal gives the same
machine, down to its states tuple, entry, table order and document.
The oracle behind a remembered level: the collapse of
helpers.round_remap_collapse, on the machine as it stands."""

import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    InvalidTransducer,
    Transducer,
    check_valid,
    compose,
    core_of,
    core_product,
    invert,
    invert_core,
    merge_equivalent_states,
    minimize,
    parse,
    random_transducer,
    serialize,
    sync_level,
    validate,
    witness_pair,
)
from cantrans import fixtures, machine, synchro
from cantrans.machine import _MINIMAL, _NOT_SYNCHRONIZING, _SYNCHRONIZES, \
    _view_of, relabel
from cantrans.minimize import _reduce
from cantrans.randgen import random_gnr_element
from cantrans.synchro import _core_at

from helpers import balanced_powers, count_calls, duplicated_states, \
    empty_output_chain, fixture_cores, multi_core_bisync, \
    letter_loop_validate, round_remap_collapse


def _copy(t):
    """t through the public constructor, which marks nothing and holds no
    rows."""
    return Transducer(t.n, t.r, t.mode, t.states, t.initial, t.trans)


def _whole(t):
    return t.states, t.initial, list(t.trans.items()), serialize(t)


@pytest.fixture(scope="module")
def minimal_corpus():
    """Machines the reduction built: the fixtures minimized,
    BALANCED_CORE_2 a^1 .. a^5 and their inverse cores, products of the
    fixture cores, compose and invert of seeded prefix-exchange pairs,
    seeded random machines minimized, and the two-cycle cores of 10 and
    12 states, numbered by name."""
    machines = [minimize(parse(text)) for text in fixtures.ALL.values()]
    powers = balanced_powers(5)
    machines += powers + [invert_core(a) for a in powers]
    cores = fixture_cores()
    machines += [core_product(a, b) for a in cores for b in cores
                 if a.n == b.n]
    for seed in range(12):
        alphabet = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))[seed % 3]
        a = random_gnr_element(alphabet, seed)
        b = random_gnr_element(alphabet, 500 + seed)
        machines += [compose(a, b), invert(a), invert(compose(b, a))]
    for seed in range(30):
        alphabet = (Alphabet(2, 1), Alphabet(3, 2))[seed % 2]
        machines.append(minimize(random_transducer(alphabet, 6, 2, seed)))
    machines += [minimize(_two_cycles(size)) for size in (5, 6)]
    return machines


def test_reducing_a_minimal_machine_gives_it_back(minimal_corpus):
    modes = set()
    for m in minimal_corpus:
        assert m._known == _MINIMAL
        assert _whole(_reduce(m)) == _whole(m)
        assert minimize(m) is m
        modes.add(m.mode)
    assert modes == {CORE, INITIAL}
    assert len(minimal_corpus) == 6 + 10 + 13 + 36 + 30 + 2


def _two_cycles(size):
    """A valid core of two disjoint cycles of `size` states each; on
    digit 0 a state writes its cycle's digit and its own index in three
    bits, so no two states are equivalent, and no state reaches the
    other cycle."""
    trans = {}
    for tag, prefix in enumerate("ab"):
        for i in range(size):
            bits = tuple(map(int, format(i, "03b")))
            trans[(f"{prefix}{i}", 0)] = ((tag, *bits),
                                         f"{prefix}{(i + 1) % size}")
            trans[(f"{prefix}{i}", 1)] = ((1,), f"{prefix}{i}")
    return Transducer(2, None, CORE, sorted({q for q, _ in trans}), None,
                      trans)


def test_a_core_numbered_by_name_is_minimal():
    # no state reaches every other, so the states are numbered by name
    # length, then name: s2 sorts before s10, and reducing again gives
    # the same machine
    for size in (5, 6):
        m = minimize(_two_cycles(size))
        assert len(m.states) == 2 * size
        assert m._known == _MINIMAL
        assert minimize(m) is m
        assert _whole(_reduce(m)) == _whole(m)
        assert _whole(_reduce(_copy(m))) == _whole(m)


def _root_writing_core():
    return Transducer(2, None, CORE, ["a"], None,
                      {("a", 0): ((0,), "a"), ("a", 1): ((-1,), "a")})


def test_an_invalid_machine_is_refused_on_every_call(monkeypatch):
    t = _root_writing_core()
    seen = count_calls(monkeypatch, machine, "validate")
    messages = []
    for check in (check_valid, check_valid, minimize, check_valid):
        with pytest.raises(InvalidTransducer) as err:
            check(t)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert "root letter" in messages[0]
    assert len(seen) == 4
    assert t._known is None


def test_check_valid_marks_a_machine_and_then_returns_at_once(monkeypatch):
    t = _copy(fixtures.sample_3_2())
    assert t._rows is None
    seen = count_calls(monkeypatch, machine, "_stages")
    for _ in range(3):
        assert check_valid(t) is t
    assert seen == [t._rows] and t._rows is not None
    assert t._known is None
    assert parse(fixtures.SAMPLE_3_2)._rows is not None


def test_a_pass_marks_the_machine():
    machines = [_copy(fixtures.sample_3_2()), _copy(fixtures.torsion_core_2())]
    machines += [empty_output_chain(True), empty_output_chain(False)]
    for t in machines:
        assert t._rows is None
        assert validate(t) == []
        assert t._rows is not None and t._known is None


def test_a_failing_machine_stays_unmarked(monkeypatch):
    t = _root_writing_core()
    seen = count_calls(monkeypatch, machine, "_violations")
    got = [validate(t) for _ in range(3)]
    assert got[0] and got == [got[0]] * 3
    assert "root letter" in got[0][0]
    assert seen == [t] * 3
    assert t._rows is None and t._known is None


def test_a_known_machine_runs_no_stage(monkeypatch, minimal_corpus):
    valid = [parse(text) for text in fixtures.ALL.values()]
    valid += [check_valid(empty_output_chain(core)) for core in (True, False)]
    seen = count_calls(monkeypatch, machine, "_stages")
    for t in valid + minimal_corpus:
        assert t._rows is not None
        assert validate(t) == []
        assert check_valid(t) is t
    assert seen == []


def test_single_steps_and_raw_products_are_not_marked():
    m = minimize(fixtures.balanced_core_2())
    assert sync_level(m) == 6 and m._level == 6
    assert _copy(m)._known is None
    renamed = relabel(m, {q: f"x{q}" for q in m.states})
    assert renamed._known is None
    doubled = check_valid(duplicated_states(m, random.Random(5)))
    sync_level(doubled)
    merged = merge_equivalent_states(doubled)
    assert len(merged.states) == len(m.states)
    assert merged._known is None
    # nor do they know a level: the copy and the renaming of a leveled
    # machine, a single step, a reduction and a core
    assert doubled._level is not None
    for t in (_copy(m), renamed, merged, _reduce(doubled),
              _core_at(m, _view_of(m)), core_of(m), parse(serialize(m))):
        assert t._level is None


def test_a_core_is_marked_valid_only_when_its_machine_is():
    """A core is built on rows, the mark of a valid machine, and only
    from a machine that passes the gate: core_of of an unchecked copy
    validates the copy first, and refuses an invalid machine with its
    validate list."""
    t = fixtures.balanced_core_2()
    assert t._rows is not None
    core = _core_at(t, _view_of(t))
    assert core._rows is not None and core._known is None
    assert letter_loop_validate(_copy(core)) == []
    copy = _copy(t)
    assert copy._rows is None
    core = core_of(copy)
    assert copy._rows is not None and core._rows is not None
    assert _whole(core) == _whole(core_of(t))
    bad = _root_writing_core()
    with pytest.raises(InvalidTransducer) as err:
        core_of(bad)
    assert str(err.value) == "; ".join(letter_loop_validate(bad))
    assert bad._rows is None


@pytest.fixture(scope="module")
def level_corpus():
    """BALANCED_CORE_2 a^1 .. a^5 (a^1 leveled and a^2 .. a^5 marked as
    synchronizing by the products that built the ladder), the two
    3000-state empty-output chains, maps with multi-state cores, 200
    seeded random machines and the cores of those that synchronize, each
    as built; none but a^1 knows its level yet."""
    machines = balanced_powers(5)
    machines += [empty_output_chain(True), empty_output_chain(False)]
    machines += [multi_core_bisync(seed) for seed in range(6)]
    alphabets = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))
    randoms = [random_transducer(alphabets[seed % 3], 1 + seed % 6, 2,
                                 91_000 + seed) for seed in range(200)]
    machines += randoms
    machines += [core_of(_copy(t)) for t in randoms
                 if round_remap_collapse(t)[2] is not None]
    return machines


def test_a_remembered_level_equals_the_collapse_oracle(monkeypatch,
                                                       level_corpus):
    collapsed = count_calls(monkeypatch, synchro, "_collapse")
    marks, levels = [], []
    for t in level_corpus:
        want = round_remap_collapse(t)[2]
        marks.append(t._level)
        leveled = isinstance(t._level, int)
        if leveled:
            assert t._level == want
        done = len(collapsed)
        assert sync_level(t) == want
        assert t._level == (_NOT_SYNCHRONIZING if want is None else want)
        # read back without a collapse
        assert sync_level(t) == want
        if want is not None:
            assert witness_pair(t) is None
            core_of(t)
        assert len(collapsed) == done + (not leveled)
        levels.append(want)
    assert marks[:5] == [6] + [_SYNCHRONIZES] * 4
    assert marks.count(None) == len(marks) - 5
    assert levels.count(None) >= 100
    assert len(levels) - levels.count(None) >= 80
    assert levels[:5] == [6, 12, 18, 24, 30]
    # the ring never synchronizes; the initial chain does after 3000 rounds
    assert levels[5:7] == [None, 3000]


def test_witness_pair_of_a_machine_known_not_to_synchronize(level_corpus):
    pairs = 0
    for t in level_corpus:
        if sync_level(t) is None:
            assert t._level == _NOT_SYNCHRONIZING
            pair = witness_pair(t)
            assert pair is not None and pair == witness_pair(_copy(t))
            pairs += 1
    assert pairs >= 30


def test_products_and_inverse_cores_are_marked_as_synchronizing(
        monkeypatch):
    """The mark core_product and invert_core leave agrees with a fresh
    collapse, on both routes of invert_core."""
    cores = fixture_cores() + balanced_powers(3)
    made = [core_product(a, b) for a in cores for b in cores if a.n == b.n]
    made += [invert_core(c) for c in cores]
    monkeypatch.setattr(synchro, "_zero_repeat_config", lambda runs: None)
    made += [invert_core(_copy(c)) for c in cores]
    assert len(made) == 5 * 5 + 3 * 3 + 8 + 8
    for m in made:
        assert m._level == _SYNCHRONIZES
        want = round_remap_collapse(m)[2]
        assert want is not None
        assert sync_level(m) == want == sync_level(_copy(m))
