"""Machines the library builds keep the quotient's integer rows
(minimize._build) and build their name-keyed table only when something
reads it.

Every reduction corpus gives the same machine as the eager build it
replaced (helpers.eager_build, which zips the table at once and
validates it): the same table in the same order, states, entry,
document and canonical form.  On the benchmark's hot paths, minimizing
a long chain and evaluating points on it, one rung of the core ladder
with core_of and the classifiers on it, and inverting machines and
building prefix-code maps, no machine built on rows builds its table,
no view of one is built from a table, and the library builds no
name-keyed table at all after parse.  parse builds a document's rows
with no view of a table and validates them once; a machine checked by
validate keeps the view it was checked on.  So neither core_of of a
parsed chain, core_product of a parsed core, nor minimize and
eval_point of a validated chain builds a view.  run_word and eval_point
walk the rows of such a machine and give the results and refusal texts
of the letter-by-letter table walks (helpers.letter_step_run_word and
helpers.pump_loop_eval_point) on its public-constructor copy.  A
machine not yet checked is validated before anything reads it, and an
invalid one is refused with its validate list."""

import importlib
import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    EventuallyPeriodicPoint,
    INITIAL,
    InvalidTransducer,
    Transducer,
    TransducerError,
    canonical_form,
    classify_subgroup,
    compose,
    core_of,
    core_product,
    cycle_balance,
    eval_point,
    fixtures,
    from_prefix_code_map,
    invert,
    invert_core,
    merge_equivalent_states,
    minimize,
    order_in_On,
    outer_class_equal,
    parse,
    remove_incomplete_response,
    run_word,
    serialize,
    sync_level,
    twist_transducer,
    validate,
)
from cantrans import machine
from cantrans.machine import _View
from cantrans.randgen import random_gnr_element, random_prefix_code_map, \
    random_transducer

import helpers
from helpers import balanced_powers, count_calls, duplicated_states, \
    eager_build, empty_output_chain, letter_loop_validate, \
    letter_step_run_word, multi_core_bisync, pump_loop_eval_point, \
    random_bisync

minimize_module = importlib.import_module("cantrans.minimize")

ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 1))


def outcome(f, *args):
    """f(*args), or the type and message of the cantrans error it
    raises."""
    try:
        return f(*args)
    except TransducerError as e:
        return type(e), str(e)


def _cores():
    return [minimize(c) for c in (fixtures.torsion_core_2(),
                                  fixtures.synchronous_core_3(),
                                  fixtures.unbalanced_core_3(),
                                  fixtures.balanced_core_2())]


def _reductions():
    """(label, call) for every operation that ends in a reduction, over
    seeded corpora: each call builds its result afresh."""
    rng = random.Random(2207)
    calls = []
    machines = []
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(40):
            machines.append(random_transducer(alphabet, 1 + i % 5, 2,
                                              22_000 + 100 * k + i))
        for i in range(10):
            machines.append(random_gnr_element(alphabet,
                                               23_000 + 100 * k + i))
    cores = _cores()
    doubled = [duplicated_states(c, rng) for c in cores]
    for t in machines + doubled + [parse(text)
                                   for text in fixtures.ALL.values()]:
        # a fresh copy: random_transducer's machines are minimal already
        calls.append(("minimize", lambda t=t: minimize(Transducer(
            t.n, t.r, t.mode, t.states, t.initial, t.trans))))
    for a, b in zip(machines[::3], machines[1::3]):
        if (a.n, a.r) == (b.n, b.r):
            calls.append(("compose", lambda a=a, b=b: compose(a, b)))
    for a in cores + doubled:
        for b in cores:
            if a.n == b.n:
                calls.append(("compose", lambda a=a, b=b: compose(a, b)))
                calls.append(("core_product",
                              lambda a=a, b=b: core_product(a, b)))
    initials = [fixtures.sample_3_2(), fixtures.unbalanced_4_2(),
                twist_transducer((1, 2, 0), Alphabet(3, 1)),
                twist_transducer((1, 0, 3, 2), Alphabet(4, 2))]
    initials += [random_gnr_element(alphabet, 24_000 + i)
                 for i, alphabet in enumerate(ALPHABETS * 5)]
    initials += [random_bisync(Alphabet(2, 1), 25_000 + i)
                 for i in range(5)]
    initials += machines[::9]
    for a in initials:
        calls.append(("invert", lambda a=a: invert(a)))
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(25):
            pm = random_prefix_code_map(alphabet, 26_000 + 100 * k + i)
            calls.append(("from_prefix_code_map",
                          lambda pm=pm, alphabet=alphabet:
                          from_prefix_code_map(pm, alphabet)))
    inverted = cores + balanced_powers(3) + \
        [core_of(minimize(multi_core_bisync(75_000 + seed)))
         for seed in range(6)]
    for c in inverted:
        calls.append(("invert_core", lambda c=c: invert_core(c)))
    calls.append(("BALANCED_CORE_2 powers", lambda: balanced_powers(5)))
    for core in (False, True):
        calls.append(("chain",
                      lambda core=core: minimize(empty_output_chain(core))))
    return calls


def _results(value):
    return value if isinstance(value, list) else [value]


def _same_as_eager(got, want):
    assert got._rows is not None and got._trans is None
    assert want._rows is not None and want._rows is not got._rows
    assert got.states == want.states
    assert got.initial == want.initial
    assert serialize(got) == serialize(want)
    assert outcome(canonical_form, got) == outcome(canonical_form, want)
    # the table is read last, so the document and the form came from rows
    assert got._trans is None
    assert list(got.trans.items()) == list(want.trans.items())


def test_reductions_match_the_eager_build(monkeypatch):
    labels = set()
    for label, call in _reductions():
        got = outcome(call)
        monkeypatch.setattr(minimize_module, "_build", eager_build)
        want = outcome(call)
        monkeypatch.undo()
        if isinstance(want, tuple):
            assert got == want
            continue
        labels.add(label)
        for g, w in zip(_results(got), _results(want), strict=True):
            _same_as_eager(g, w)
    assert labels == {"minimize", "compose", "core_product", "invert",
                      "from_prefix_code_map", "invert_core",
                      "BALANCED_CORE_2 powers", "chain"}


@pytest.fixture
def watch(monkeypatch):
    """Records the machines built on rows, the name-keyed tables built
    (from a machine's rows, or given to a machine by the public
    constructor), and the machines built on rows a _View was built
    from."""
    seen = {"built": [], "tables": [], "views": []}
    real_of_rows = Transducer._of_rows.__func__
    real_table, real_init = _View._table, _View.__init__
    real_new = Transducer.__init__

    def of_rows(cls, *args):
        t = real_of_rows(cls, *args)
        seen["built"].append(t)
        return t

    def new(self, *args):
        seen["tables"].append(args[-1])
        real_new(self, *args)

    def table(self):
        seen["tables"].append(self)
        return real_table(self)

    def init(self, t):
        if t._rows is not None:
            seen["views"].append(t)
        real_init(self, t)

    monkeypatch.setattr(Transducer, "_of_rows", classmethod(of_rows))
    monkeypatch.setattr(Transducer, "__init__", new)
    monkeypatch.setattr(_View, "_table", table)
    monkeypatch.setattr(_View, "__init__", init)
    return seen


def _chain_points(core, rng):
    """Four points as the benchmark evaluates them on a chain: a long
    lead of zeros, a one, and a random tail."""
    points = []
    for _ in range(4):
        lead = (0,) * rng.randrange(helpers.CHAIN) + (1,)
        if not core:
            lead = (-1,) + lead
        tail = next(helpers.random_points(rng, 2, 1))
        points.append(EventuallyPeriodicPoint(lead + tail.preperiod[1:],
                                              tail.period))
    return points


def test_chain_paths_build_no_table_from_rows(watch):
    rng = random.Random(2208)
    for core in (False, True):
        chain = empty_output_chain(core)
        points = _chain_points(core, rng)
        watch["tables"].clear()
        m = minimize(chain)
        got = [eval_point(m, x) for x in points]
        assert watch["built"] and watch["built"][-1] is m
        assert watch["tables"] == [] and watch["views"] == []
        assert m._trans is None
        assert got == [eval_point(chain, x) for x in points]


def test_core_of_a_parsed_chain_builds_no_view(monkeypatch):
    """parse builds the chain's rows in its line loop, with no table and
    no view of one, and validates the chain once, on those rows, which
    the chain keeps: core_of builds no view for its collapse and its
    closure."""
    text = serialize(empty_output_chain(False))
    stages = count_calls(monkeypatch, machine, "_stages")
    views = []
    real_init = _View.__init__

    def init(self, m):
        views.append(m)
        real_init(self, m)

    monkeypatch.setattr(_View, "__init__", init)
    t = parse(text)
    assert stages == [t._rows] and views == []
    assert t._trans is None and t._rows is not None
    core = core_of(t)
    assert stages == [t._rows] and views == []
    assert core.states == ("e",) and core._rows is not None


def test_checked_machines_build_no_view_after_validate(monkeypatch):
    """A machine keeps the view validate checked: parse of
    BALANCED_CORE_2 runs validate's stages once, on the rows it builds,
    and builds no view of a table, nor does core_product(a, a) after it,
    and minimize then eval_point of a validated chain build none, with
    the images its unchecked copy gives."""
    stages = count_calls(monkeypatch, machine, "_stages")
    views = []
    real_init = _View.__init__

    def init(self, m):
        views.append(m)
        real_init(self, m)

    monkeypatch.setattr(_View, "__init__", init)
    a = parse(fixtures.BALANCED_CORE_2)
    assert stages == [a._rows] and views == []
    product = core_product(a, a)
    assert stages == [a._rows] and views == [] and len(product.states) == 34
    rng = random.Random(2209)
    for core in (False, True):
        chain = empty_output_chain(core)
        copy = Transducer(chain.n, chain.r, chain.mode, chain.states,
                          chain.initial, chain.trans)
        assert validate(chain) == [] and views[-1] is chain
        del views[:]
        points = _chain_points(core, rng)
        m = minimize(chain)
        got = [eval_point(x, p) for x in (chain, m) for p in points]
        assert views == []
        assert got == [eval_point(copy, p) for p in points] * 2


def test_the_core_of_a_checked_copy_is_built_on_rows(watch):
    """core_of of a public-constructor copy validates the copy at the
    gate and builds its core on rows, valid by construction: it builds
    no table from them and no view of them, and the core keeps them."""
    a = fixtures.balanced_core_2()
    copy = Transducer(a.n, a.r, a.mode, a.states, a.initial, a.trans)
    watch["tables"].clear()
    core = core_of(copy)
    assert copy._rows is not None
    assert watch["built"][-1] is core and core._known is None
    assert watch["tables"] == [] and watch["views"] == []
    assert core._trans is None and len(core.states) == 10


def test_inversions_and_prefix_maps_build_no_table(watch):
    """After parse, invert builds its machine of sets, and
    from_prefix_code_map its prefix tree, on rows: neither builds a
    name-keyed table or a _View of a machine built on rows, and no
    machine built on rows builds its table."""
    initials = [parse(serialize(t)) for t in (
        fixtures.sample_3_2(), twist_transducer((1, 2, 0), Alphabet(3, 1)),
        *(random_gnr_element(alphabet, 28_000 + i)
          for i, alphabet in enumerate(ALPHABETS)),
        random_bisync(Alphabet(2, 1), 28_100))]
    maps = [(random_prefix_code_map(alphabet, 28_200 + i), alphabet)
            for i, alphabet in enumerate(ALPHABETS * 3)]
    watch["built"].clear()
    watch["tables"].clear()
    inverses = [invert(t) for t in initials]
    built = [from_prefix_code_map(pm, alphabet) for pm, alphabet in maps]
    assert watch["tables"] == [] and watch["views"] == []
    # invert: the input's reduction, the machine of sets and its
    # reduction; from_prefix_code_map: the prefix tree and its reduction
    assert len(watch["built"]) == 3 * len(initials) + 2 * len(maps)
    assert all(t._trans is None for t in watch["built"])
    assert all(m._rows is not None for m in inverses + built)


def _ladder_answers(base):
    """A rung of the core ladder on `base` and the classifiers on it:
    (the base and its two powers, their core_of results, answers)."""
    power = core_product(base, base)
    machines = (base, power, core_product(power, base))
    cores, answers = [], []
    for p in machines:
        cores.append(core_of(p))
        answers.append((sync_level(p), canonical_form(p), cycle_balance(p),
                        serialize(p)))
    answers += [classify_subgroup(base), order_in_On(base, cap=4),
                outer_class_equal(base, power), outer_class_equal(power,
                                                                  power)]
    return machines, cores, answers


@pytest.mark.parametrize("name", ["BALANCED_CORE_2", "UNBALANCED_CORE_3"])
def test_core_ladder_rung_builds_no_table_from_rows(watch, name):
    """After parse, the ladder, core_of and the classifiers build no
    name-keyed table and no _View from a machine built on rows, and give
    the answers of the public-constructor copy of the fixture, whose
    cores are built on rows too."""
    base = parse(getattr(fixtures, name))
    watch["tables"].clear()
    machines, cores, answers = _ladder_answers(base)
    assert len(watch["built"]) >= 2
    assert watch["tables"] == [] and watch["views"] == []
    assert all(t._trans is None for t in watch["built"])
    assert all(c._rows is not None for c in cores)
    # the powers, built on rows, give the answers of their
    # public-constructor copies, read through their tables
    for p, core, answer in zip(machines[1:], cores[1:], answers[1:3]):
        copy = Transducer(p.n, p.r, p.mode, p.states, p.initial, p.trans)
        assert p._rows is not None and copy._rows is None
        assert (sync_level(copy), core_of(copy).states, canonical_form(copy),
                cycle_balance(copy), serialize(copy)) == \
            (answer[0], core.states) + answer[1:]
    copy = Transducer(base.n, base.r, base.mode, base.states, base.initial,
                      base.trans)
    _, copy_cores, copy_answers = _ladder_answers(copy)
    assert copy_answers == answers
    for got, want in zip(cores, copy_cores, strict=True):
        assert want._rows is not None
        public = Transducer(got.n, got.r, got.mode, got.states, got.initial,
                            got.trans)
        for c in (want, public):
            assert c.states == got.states
            assert dict(c.trans) == dict(got.trans)
            assert serialize(c) == serialize(got)
            assert canonical_form(c) == canonical_form(got)
    if name == "UNBALANCED_CORE_3":
        assert not answers[0][2][0] and not answers[1][2][0]


def _walked(seed):
    """Machines built on rows, and their public-constructor copies:
    minimized random machines, multi-state cores and both chains."""
    built = [minimize(random_transducer(alphabet, 1 + i % 5, 2,
                                        seed + 100 * k + i))
             for k, alphabet in enumerate(ALPHABETS) for i in range(15)]
    built += [minimize(core_of(minimize(multi_core_bisync(75_000 + i))))
              for i in range(4)]
    built += [minimize(empty_output_chain(core)) for core in (False, True)]
    return [(m, Transducer(m.n, m.r, m.mode, m.states, m.initial, m.trans))
            for m in built]


def test_rows_walks_match_the_table_walks():
    rng = random.Random(2209)
    refusals = set()
    for m, copy in _walked(27_000):
        assert m._rows is not None and copy._rows is None
        n = m.n
        digit = next(q for q in m.states if m.mode == CORE or q != m.initial)
        calls = []
        for q in m.states[:20]:
            word = tuple(rng.randrange(n) for _ in range(rng.randrange(8)))
            if m.mode == INITIAL and q == m.initial:
                word = (-1 - rng.randrange(m.r),) + word
            calls.append((run_word, q, word))
        for x in helpers.random_points(rng, n, 6):
            if m.mode == CORE:
                x = EventuallyPeriodicPoint(x.preperiod[1:], x.period)
            calls.append((eval_point, x, m.initial if m.mode == INITIAL
                          else digit))
        bad = [
            (run_word, digit, (0,) * 3 + (n,)),                # digit >= n
            (run_word, digit, (n + 5,)),
            (run_word, "no such state", ()),                   # unknown
            (run_word, digit, (-1, 0)),                        # rooted
            (eval_point, EventuallyPeriodicPoint((0,), (n,)), digit),
            (eval_point, EventuallyPeriodicPoint((), (0,)), "no such state"),
        ]
        if m.mode == INITIAL:
            r = m.r
            bad += [
                (run_word, m.initial, (-1 - r,)),              # root >= r
                (run_word, m.initial, (-1, 0, n)),
                (run_word, m.initial, (0, 1)),                 # digit word
                (eval_point, EventuallyPeriodicPoint((-1 - r, 0), (0,)),
                 m.initial),
                (eval_point, EventuallyPeriodicPoint((), (0,)), m.initial),
            ]
        oracles = {run_word: letter_step_run_word,
                   eval_point: pump_loop_eval_point}
        for fn, *args in calls + bad:
            got = outcome(fn, m, *args)
            assert got == outcome(oracles[fn], copy, *args)
            if isinstance(got, tuple) and isinstance(got[0], type):
                refusals.add(got[1].split(" (")[0].split(" '")[0])
    assert {"no transition", "unknown state",
            "rooted word fed to a non-initial state",
            "digit word fed to the initial state",
            "core-mode machine only reads digit words"} <= refusals


def test_an_unchecked_machine_is_refused_before_its_rows_are_built():
    """A machine whose digit transition enters the entry, and one whose
    states are all pre-root (no tracked state), are refused by the gate
    before merge_equivalent_states builds a quotient on rows, and so are
    run_word, eval_point and sync_level on them, with the violations
    helpers.letter_loop_validate finds."""
    trans = {("q0", -1): ((-1,), "a"),
             ("a", 0): ((0,), "b"), ("a", 1): ((1,), "q0"),
             ("b", 0): ((0,), "c"), ("b", 1): ((1,), "q0"),
             ("c", 0): ((0,), "b"), ("c", 1): ((1,), "q0")}
    entered = Transducer(2, 1, INITIAL, ["q0", "a", "b", "c"], "q0", trans)
    trans = {("q0", -1): ((), "a"), ("a", 0): ((), "b"), ("a", 1): ((), "b"),
             ("b", 0): ((), "a"), ("b", 1): ((), "a")}
    silent = Transducer(2, 1, INITIAL, ["q0", "a", "b"], "q0", trans)
    point = EventuallyPeriodicPoint((-1,), (0, 1))
    for t in (entered, silent):
        want = (InvalidTransducer, "; ".join(letter_loop_validate(t)))
        assert outcome(merge_equivalent_states, t) == want
        assert outcome(run_word, t, "q0", (-1, 1, 0)) == want
        assert outcome(eval_point, t, point) == want
        assert outcome(sync_level, t) == want
        assert t._rows is None
    assert outcome(sync_level, entered)[1].startswith(
        "initial state has an incoming transition from ('a', 1)")
    assert outcome(sync_level, silent)[1].startswith(
        "epsilon-output cycle through")


def test_an_initial_state_outside_the_states_is_refused_by_name():
    """The public constructor does not check that the initial state is
    among the states; canonical_form, merge_equivalent_states and
    remove_incomplete_response refuse it at the gate with
    InvalidTransducer, naming it."""
    trans = {("a", 0): ((0,), "b"), ("a", 1): ((1,), "a"),
             ("b", 0): ((0,), "b"), ("b", 1): ((1,), "a")}
    t = Transducer(2, 1, INITIAL, ["a", "b"], "z", trans)
    for f in (canonical_form, merge_equivalent_states,
              remove_incomplete_response):
        with pytest.raises(InvalidTransducer) as caught:
            f(t)
        assert str(caught.value) == "; ".join(letter_loop_validate(t))
        assert "initial state 'z' not in state list" in str(caught.value)
