"""The one gate for machines not yet checked (machine._view_of).

Every public reader and kernel validates a machine that holds no rows
before it reads it, and refuses an invalid one with InvalidTransducer,
whose message is the violation list helpers.letter_loop_validate words;
a machine refused there keeps its table and holds no rows.  Past the
gate only valid rows are read: every machine the library builds on rows
while it reduces, cores, inverts, classifies and composes seeded random
machines and prefix-exchange maps, the inversion and validate corpora,
the fixtures, powers of BALANCED_CORE_2 and the long chains passes the
letter loop."""

import random

import pytest

from cantrans import (
    EventuallyPeriodicPoint,
    INITIAL,
    InvalidTransducer,
    Transducer,
    canonical_form,
    check_valid,
    classify_subgroup,
    compose,
    core_of,
    eval_point,
    fixtures,
    guaranteed_output,
    invert,
    is_bisynchronizing,
    minimize,
    parse,
    run_word,
    serialize,
    sync_level,
    validate,
)
from cantrans.machine import relabel
from cantrans.randgen import random_gnr_element, random_transducer

from helpers import balanced_powers, empty_output_chain, \
    letter_loop_validate, multi_core_bisync
from test_reduce_once import _inversion_corpus
from test_refusals import EMPTY_CORE, ROOT_LOOP, TWICE_CORE, TWICE_INITIAL
from test_validate import ALPHABETS, _corpus, _with


def _start(t):
    """A start state for the readers: the gate refuses before it is
    looked at."""
    return t.initial if t.initial is not None else \
        (t.states[0] if t.states else "nowhere")


READERS = {
    "run_word": lambda t: run_word(t, _start(t), ()),
    "eval_point": lambda t: eval_point(
        t, EventuallyPeriodicPoint((-1,) if t.mode == INITIAL else (), (0,)),
        _start(t)),
    "step": lambda t: t.step(_start(t), 0),
    "reachable": lambda t: t.reachable(_start(t)),
    "pre_root_states": lambda t: t.pre_root_states(),
    "max_output_len": lambda t: t.max_output_len(),
    "serialize": serialize,
    "canonical_form": canonical_form,
    "guaranteed_output": guaranteed_output,
    "minimize": minimize,
    "sync_level": sync_level,
}


def _invalid_machines():
    """The invalid machines of the validate corpus (one- and two-step
    mutations of valid machines, and machines with no states) and of
    the refusal corpus."""
    machines = [t for t in _corpus() if letter_loop_validate(t)]
    return machines + [EMPTY_CORE, ROOT_LOOP, TWICE_INITIAL, TWICE_CORE]


def test_every_gated_reader_refuses_an_invalid_machine():
    machines = _invalid_machines()
    assert len(machines) >= 3000
    for t in machines:
        t = _with(t)
        want = "; ".join(letter_loop_validate(t))
        for name, read in READERS.items():
            with pytest.raises(InvalidTransducer) as err:
                read(t)
            assert str(err.value) == want, name
        assert t._rows is None and t._trans is not None


def test_the_ungated_readers_read_the_table_of_an_invalid_machine():
    """The constructor, trans, input_letters, validate, check_valid and
    relabel read the table as it is."""
    for t in (ROOT_LOOP, TWICE_CORE):
        copy = _with(t)
        assert copy.trans == t.trans
        assert copy.input_letters(copy.states[0]) == \
            t.input_letters(t.states[0])
        bad = letter_loop_validate(t)
        assert validate(copy) == bad
        with pytest.raises(InvalidTransducer) as err:
            check_valid(copy)
        assert err.value.violations == bad
        assert copy._rows is None
    renamed = relabel(ROOT_LOOP, {"q0": "p0"})
    assert renamed.trans == {("p0", -1): ((-1,), "p0")}
    assert renamed._rows is None


@pytest.fixture
def built(monkeypatch):
    """Every machine Transducer._of_rows builds while the test runs."""
    seen = []
    real = Transducer._of_rows.__func__

    def recording(cls, *args):
        seen.append(real(cls, *args))
        return seen[-1]

    monkeypatch.setattr(Transducer, "_of_rows", classmethod(recording))
    return seen


def _exercise(t):
    """The reductions, cores, inversions and classifiers the library
    runs on t, each refusal swallowed; on a small machine only, the
    classifiers and the product with itself (of all pairs of states, in
    core mode)."""
    steps = [minimize, lambda t: core_of(minimize(t))]
    if len(t.states) <= 40:
        steps += [is_bisynchronizing, classify_subgroup,
                  lambda t: invert(t) if t.mode == INITIAL else None,
                  lambda t: compose(t, t)]
    for step in steps:
        try:
            step(t)
        except ValueError:
            pass


def test_every_machine_built_on_rows_passes_the_letter_loop(built):
    rng = random.Random(4242)
    machines = [parse(text) for text in fixtures.ALL.values()]
    machines += balanced_powers(3)
    machines += [multi_core_bisync(seed) for seed in range(4)]
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(20):
            machines.append(random_transducer(alphabet, 1 + i % 5, 2,
                                              96_000 + 100 * k + i))
            machines.append(random_gnr_element(alphabet,
                                               97_000 + 100 * k + i))
    machines += _inversion_corpus()
    machines += rng.sample(_corpus(), 300)
    machines += [empty_output_chain(True), empty_output_chain(False)]
    for t in machines:
        _exercise(_with(t))
    assert len(built) >= 3000
    for m in built:
        assert m._rows is not None
        assert letter_loop_validate(m) == [], m
