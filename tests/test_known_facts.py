"""What a machine knows about itself.  check_valid and parse mark a
machine valid, the reduction marks the machines it builds minimal, and
_core_at marks the core of a machine known to be valid; nothing else
marks a machine.  The idempotence oracle behind `minimize(m) is m`:
reducing a machine marked minimal gives the same machine, down to its
states tuple, entry, table order and document."""

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
)
from cantrans import fixtures, machine
from cantrans.machine import _MINIMAL, _VALID, relabel
from cantrans.minimize import _reduce
from cantrans.randgen import random_gnr_element
from cantrans.synchro import _core_at

from helpers import balanced_powers, count_calls, duplicated_states, \
    fixture_cores, unreduced_compose


def _copy(t):
    """t through the public constructor, which marks nothing."""
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
    assert t._known is None
    seen = count_calls(monkeypatch, machine, "validate")
    for _ in range(3):
        assert check_valid(t) is t
    assert seen == [t]
    assert t._known == _VALID
    assert parse(fixtures.SAMPLE_3_2)._known == _VALID


def test_single_steps_and_raw_products_are_not_marked():
    m = minimize(fixtures.balanced_core_2())
    assert _copy(m)._known is None
    renamed = relabel(m, {q: f"x{q}" for q in m.states})
    assert renamed._known is None
    doubled = check_valid(duplicated_states(m, random.Random(5)))
    merged = merge_equivalent_states(doubled)
    assert len(merged.states) == len(m.states)
    assert merged._known is None
    raw = unreduced_compose(m, m)
    assert raw._known is None
    a = random_gnr_element(Alphabet(3, 2), 1)
    assert unreduced_compose(a, a)._known is None


def test_a_core_is_marked_valid_only_when_its_machine_is():
    t = fixtures.balanced_core_2()
    assert t._known == _VALID
    assert _core_at(t)._known == _VALID
    copy = _copy(t)
    assert _core_at(copy)._known is None
    # core_of checks that core and marks it
    core = core_of(copy)
    assert core._known == _VALID
    assert _whole(core) == _whole(core_of(t))
