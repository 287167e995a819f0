"""validate against the letter-by-letter validate it replaced
(helpers.letter_loop_validate): the same violation strings in the same
order on fresh copies of valid machines and on one- and two-step
mutations of them, and the same ParseError text from parse.  The stages
validate runs on the view of the table (machine._table_view and
machine._stages) agree with the table stages that word its messages
(machine._violations) on the validate, refusal and mutation corpora,
random machines and the long chains, and the peel of the empty-output
edges with the depth-first search on the table.  The missing and stray
transitions are listed in one order under every hash seed.  Also: the
checks dropped from core extraction hold on every core it extracts, the
CLI verbs that reduce, invert or take a core no longer validate or
synchronize twice, on a document that synchronizes or not, and the raw
machines from_prefix_code_map builds on rows pass the letter loop."""

import importlib
import os
import random
import subprocess
import sys

import pytest

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    InvalidTransducer,
    NotInvertible,
    ParseError,
    Transducer,
    TransducerError,
    canonical_form,
    check_valid,
    core_of,
    fixtures,
    from_prefix_code_map,
    invert,
    invert_core,
    is_in_Gnr,
    minimize,
    outer_class_equal,
    parse,
    serialize,
    sync_level,
    validate,
    witness_pair,
)
from cantrans import algebra, cli, machine, randgen, synchro
from cantrans.document import HEADER
from cantrans.randgen import random_gnr_element, random_prefix_code_map, \
    random_transducer
from cantrans.words import format_letter, format_word

from helpers import balanced_powers, count_calls, empty_output_chain, \
    fixture_cores, fresh_parser_main, letter_loop_validate, \
    multi_core_bisync, queue_pre_root_states, strongly_connected, \
    view_machine
from test_refusals import EMPTY_CORE, ROOT_LOOP, TWICE_CORE, TWICE_INITIAL

minimize_module = importlib.import_module("cantrans.minimize")

ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 1),
             Alphabet(4, 3))

# one pattern per violation message validate can give
MESSAGES = (
    "no states",
    "duplicate state names",
    "not in state list",
    "incomplete transition table",
    "stray transition",
    "targets unknown state",
    "roots may only lead a word",
    "out of range",
    "initial state has an incoming transition",
    "enters a pre-root state",
    "leaves the pre-root region",
    "emits root letters",
    "epsilon-output cycle",
)


def _valid_machines():
    """The fixtures as parsed, minimized and cored, and random machines
    and prefix-exchange maps over five alphabets."""
    out = []
    for text in fixtures.ALL.values():
        t = parse(text)
        m = minimize(t)
        out += [t, m]
        if sync_level(m) is not None:
            out.append(core_of(m))
    for alphabet in ALPHABETS:
        for seed in range(4):
            out.append(random_transducer(alphabet, 3, 2, seed))
            out.append(random_gnr_element(alphabet, seed))
    return out


def _with(t, trans=None, states=None, initial=False):
    return Transducer(t.n, t.r, t.mode,
                      t.states if states is None else states,
                      t.initial if initial is False else initial,
                      t.trans if trans is None else trans)


def _edge(t, rng):
    return rng.choice(sorted(t.trans, key=str))


def _deleted(t, rng):
    trans = dict(t.trans)
    del trans[_edge(t, rng)]
    return _with(t, trans)


def _stray_key(t, rng):
    """A digit key at the entry or out of range, or a root key at a
    digit-reading state."""
    q = rng.choice(t.states)
    if t.mode == INITIAL and q == t.initial:
        x = rng.randrange(t.n)
    else:
        x = rng.choice((-1, t.n))
    trans = dict(t.trans)
    trans[(q, x)] = ((0,), q)
    return _with(t, trans)


def _unknown_target(t, rng):
    trans = dict(t.trans)
    key = _edge(t, rng)
    trans[key] = (trans[key][0], "nowhere")
    return _with(t, trans)


def _root_mid_word(t, rng):
    trans = dict(t.trans)
    key = _edge(t, rng)
    w, tgt = trans[key]
    trans[key] = ((w or (0,)) + (-1,), tgt)
    return _with(t, trans)


def _out_of_range(t, rng):
    """A digit n at the end, or a root letter past r in front."""
    trans = dict(t.trans)
    key = _edge(t, rng)
    w, tgt = trans[key]
    if t.mode == INITIAL and rng.random() < 0.5:
        w = (-(t.r + 1),) + w[1:]
    else:
        w = w + (t.n,)
    trans[key] = (w, tgt)
    return _with(t, trans)


def _root_in_front(t, rng):
    """A root letter of the alphabet in front of a word: in a core, a
    root letter in a core; in initial mode a second root or a root
    written after the first."""
    trans = dict(t.trans)
    key = _edge(t, rng)
    w, tgt = trans[key]
    root = -1 - rng.randrange(t.r or 1)
    trans[key] = ((root,) + (w[1:] if w and w[0] < 0 else w), tgt)
    return _with(t, trans)


def _root_dropped(t, rng):
    """The root letter cut from a rooted word (any word's first letter
    when none is rooted)."""
    trans = dict(t.trans)
    rooted = [k for k, (w, _) in trans.items() if w and w[0] < 0]
    key = rng.choice(rooted) if rooted else _edge(t, rng)
    w, tgt = trans[key]
    trans[key] = (w[1:], tgt)
    return _with(t, trans)


def _into_initial(t, rng):
    trans = dict(t.trans)
    key = _edge(t, rng)
    target = t.initial if t.initial is not None else t.states[0]
    trans[key] = (trans[key][0], target)
    return _with(t, trans)


def _empty_self_loop(t, rng):
    trans = dict(t.trans)
    key = _edge(t, rng)
    trans[key] = ((), key[0])
    return _with(t, trans)


def _empty_into_pre_root(t, rng):
    """An empty-output edge into a pre-root state (in a core: into any
    state)."""
    trans = dict(t.trans)
    key = _edge(t, rng)
    pre = sorted(queue_pre_root_states(t), key=str) or t.states
    trans[key] = ((), rng.choice(pre))
    return _with(t, trans)


def _duplicate_name(t, rng):
    return _with(t, states=[*t.states, rng.choice(t.states)])


def _unknown_start(t, rng):
    return _with(t, initial="nowhere")


MUTATIONS = (_deleted, _stray_key, _unknown_target, _root_mid_word,
             _out_of_range, _root_in_front, _root_dropped, _into_initial,
             _empty_self_loop, _empty_into_pre_root, _duplicate_name,
             _unknown_start)


def _mutants(t, rng, pairs):
    """Every one-step mutation of t, t with no states (which no second
    step can mutate), and `pairs` random two-step ones."""
    out = [m(t, rng) for m in MUTATIONS] + [_with(t, {}, [])]
    for _ in range(pairs):
        first, second = rng.choice(MUTATIONS), rng.choice(MUTATIONS)
        out.append(second(first(t, rng), rng))
    return out


def _corpus(seed=0):
    rng = random.Random(seed)
    out = []
    for t in _valid_machines():
        out.append(t)
        for _ in range(3):
            out += _mutants(t, rng, 10)
    return out


def _agree(machines):
    """validate on a fresh copy of each machine (validate trusts a
    machine that holds rows) against the letter loop."""
    seen = set()
    for t in machines:
        got = validate(_with(t))
        assert got == letter_loop_validate(t), t
        seen.update(p for p in MESSAGES for msg in got if p in msg)
    return seen


def test_validate_agrees_with_the_letter_loop():
    seen = _agree(_corpus())
    assert seen == set(MESSAGES)


def test_validate_agrees_on_long_chains():
    rng = random.Random(1)
    chains = [empty_output_chain(core) for core in (False, True)]
    assert [validate(c) for c in chains] == [[], []]
    machines = list(chains)
    for c in chains:
        machines += _mutants(c, rng, 4)
    assert len(_agree(machines)) >= 8


def _oracle_corpus(monkeypatch):
    """The validate corpus (valid machines and their one- and two-step
    mutations), the machines of the refusal corpus, every draw of seeded
    random_transducer runs, kept or rejected, and both 3000-state chains
    with mutations of them."""
    draws = []
    real = randgen.validate

    def recording(t):
        draws.append(_with(t))
        return real(t)

    monkeypatch.setattr(randgen, "validate", recording)
    for i in range(60):
        random_transducer(ALPHABETS[i % 5], 1 + i % 4, 1 + i % 2, 93_000 + i)
    monkeypatch.undo()
    rng = random.Random(3)
    chains = [empty_output_chain(core) for core in (False, True)]
    return (_corpus(seed=3) + [EMPTY_CORE, ROOT_LOOP, TWICE_CORE,
                               TWICE_INITIAL] + draws + chains +
            [m for c in chains for m in _mutants(c, rng, 2)])


def test_rows_stages_agree_with_the_table_stages(monkeypatch):
    """validate's stages on the view of the table (machine._table_view
    and machine._stages) against the table stages that word its messages
    (machine._violations) and the letter loop, on a fresh copy of each
    machine of the oracle corpus: the same list.  A copy that passes
    keeps the view as its rows and drops its table, which is built again
    equal to the table it had; one that fails keeps its table and holds
    no rows.  Where stages 1 and 2 pass, so that the view holds the
    whole table, stages 3 to 5 on it give the letter loop's verdict, and
    the peel of its empty-output edges finds a cycle exactly when the
    depth-first search on the table does."""
    verdicts, peeled = set(), set()
    for t in _oracle_corpus(monkeypatch):
        copy = _with(t)
        table = copy.trans
        got = validate(copy)
        assert got == machine._violations(_with(t)) == \
            letter_loop_validate(t), t
        if got:
            assert copy._trans is table and copy._rows is None
        else:
            assert copy._trans is None
            assert copy._rows is not None and copy.trans == table
        assert copy._known is None
        verdicts.add(not got)
        view = machine._table_view(_with(t))
        if view is None:
            continue
        assert machine._stages(view, t.n, t.r) == (not got), t
        cycle = machine._silent_cycle(view)
        assert cycle == (machine._epsilon_cycle(t) is not None), t
        peeled.add(cycle)
    assert verdicts == peeled == {True, False}


# a three-state core holding one transition, and a core with stray keys
# at a digit out of range, at a root letter and at a state not listed
SPARSE_CORE = ({("b", 0): ((0,), "a")}, ["a", "b", "c"])
STRAY_CORE = ({("a", 0): ((0,), "a"), ("a", 5): ((0,), "a"),
               ("a", 1): ((1,), "a"), ("a", -1): ((1,), "a"),
               ("z", 0): ((0,), "a")}, ["a"])


def missing_three():
    """SAMPLE_3_2 with three transitions left out, q1 0 among them."""
    lines = fixtures.SAMPLE_3_2.splitlines()
    return "\n".join(line for k, line in enumerate(lines)
                     if k not in (5, 8, 12)) + "\n"


def refusal_texts():
    """The validate lists of the two cores, and the parse refusals of
    missing_three and of a document with two stray lines."""
    out = [validate(Transducer(2, None, CORE, states, None, trans))
           for trans, states in (SPARSE_CORE, STRAY_CORE)]
    stray = (f"{HEADER}\nalphabet n=2 core\na 0 -> a : 0\na 3 -> a : 0\n"
             "a 1 -> a : 1\na 2 -> a : 1\n")
    for text in (missing_three(), stray):
        try:
            parse(text)
        except ParseError as e:
            out.append(str(e))
    return out


def test_missing_and_stray_transitions_keep_one_order_under_every_seed():
    """Missing transitions are listed in state order, then letter order,
    and stray ones in table order, so validate and parse word a refusal
    alike under every string hashing: child processes under four hash
    seeds print this process's texts."""
    want = refusal_texts()
    assert want[0] == [f"incomplete transition table: missing ({q!r}, {x})"
                       for q, x in (("a", 0), ("a", 1), ("b", 1), ("c", 0),
                                    ("c", 1))]
    assert [m.split("(")[1] for m in want[1]] == \
        ["'a', 5)", "'a', .0)", "'z', 0)"]
    assert want[2] == (
        "line 0, column 0: invalid transducer: "
        "incomplete transition table: missing ('q1', 0); "
        "incomplete transition table: missing ('q2', 0); "
        "incomplete transition table: missing ('q3', 1)")
    assert want[3].endswith("line 4: stray transition ('a', 3); "
                            "line 6: stray transition ('a', 2)")
    script = "from test_validate import refusal_texts\nprint(refusal_texts())"
    path = os.pathsep.join([os.path.dirname(__file__), *sys.path])
    for seed in "0123":
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{want}\n"


def _document(t):
    """t as a document, transitions in table order (names must be
    tokens; states that only appear in the state list are lost)."""
    alphabet = f"r={t.r}" if t.mode == INITIAL else "core"
    lines = [HEADER, f"alphabet n={t.n} {alphabet}"]
    if t.mode == INITIAL:
        lines.append(f"initial {t.initial}")
    lines += [f"{q} {format_letter(x)} -> {tgt} : {format_word(w)}"
              for (q, x), (w, tgt) in t.trans.items()]
    return "\n".join(lines) + "\n"


def _parse_error(text):
    try:
        parse(text)
    except ParseError as e:
        return str(e)
    return None


def test_parse_reports_invalid_documents_as_before(monkeypatch):
    docs = [_document(t) for t in _corpus(seed=2)]
    got = [_parse_error(d) for d in docs]
    # the letter loop decides each document and words its refusal
    stages = machine._stages

    def decided(view, n, r):
        entry = None if view.entry is None else view.states[view.entry]
        t = Transducer(n, r, CORE if r is None else INITIAL, view.states,
                       entry, view._table())
        return not letter_loop_validate(t) and stages(view, n, r)

    monkeypatch.setattr(machine, "_stages", decided)
    monkeypatch.setattr(machine, "_violations", letter_loop_validate)
    assert got == [_parse_error(d) for d in docs]
    invalid = [e for e in got if e and "invalid transducer" in e]
    assert len(invalid) > len(docs) // 2
    assert any("line " in e.split(": ", 2)[2] for e in invalid)


@pytest.mark.parametrize("body, stages, message", [
    ("alphabet n=2 core\na 0 -> a : 5\na 1 -> b : 1\nb 0 -> a : 0\n"
     "b 1 -> b : 1\n", 1,
     "line 3: output of ('a', 0) uses digit 5 out of range"),
    ("alphabet n=2 r=1\ninitial q0\nq0 .0 -> s : 0\ns 0 -> s : 0\n"
     "s 1 -> s : 1\n", 1,
     "line 4: transition ('q0', .0) leaves the pre-root region with "
     "non-rooted output '0'"),
    ("alphabet n=2 core\nb 1 -> a : 1\na 0 -> b : -\nb 0 -> a : -\n"
     "a 1 -> a : 1\n", 1, "epsilon-output cycle through 'b' -> 'a' -> 'b'"),
    ("alphabet n=2 core\na 0 -> a : 0\n", 0,
     "incomplete transition table: missing ('a', 1)"),
], ids=["digit", "pre-root", "cycle", "missing"])
def test_a_refused_document_is_checked_once(monkeypatch, body, stages,
                                            message):
    """parse runs validate's stages once, on the rows, where it can cut
    them, and words the refusal once, on the table in line order."""
    staged = count_calls(monkeypatch, machine, "_stages")
    worded = count_calls(monkeypatch, machine, "_violations")
    assert _parse_error(f"{HEADER}\n{body}") == \
        f"line 0, column 0: invalid transducer: {message}"
    assert (len(staged), len(worded)) == (stages, 1)


def test_a_machine_with_no_states_is_refused():
    empty = Transducer(2, None, CORE, [], None, {})
    with pytest.raises(InvalidTransducer, match="^no states$"):
        check_valid(empty)
    with pytest.raises(ParseError) as err:
        parse(f"{HEADER}\nalphabet n=2 core\n")
    assert str(err.value) == \
        "line 0, column 0: invalid transducer: no states"


def _record_core_at(monkeypatch):
    cores = []
    real = synchro._core_at

    def recording(t, view):
        cores.append(real(t, view))
        return cores[-1]

    monkeypatch.setattr(synchro, "_core_at", recording)
    return cores


def _record_reduced(monkeypatch):
    """The rows synchro reduces, one per call, as named core-mode
    machines: invert_core's core of the machine of run sets, whether it
    comes from one seed or from the full exploration."""
    machines = []
    real = synchro._reduce_rows

    def recording(n, r, mode, initial, view):
        machines.append(view_machine(view, n))
        return real(n, r, mode, initial, view)

    monkeypatch.setattr(synchro, "_reduce_rows", recording)
    return machines


def test_extracted_cores_are_valid_and_strongly_connected(monkeypatch):
    """The checks core extraction no longer runs: on cores of valid
    machines and on the cores of invert_core's machines of run sets."""
    cores = fixture_cores() + balanced_powers(4)
    cores += [core_of(minimize(multi_core_bisync(seed))) for seed in range(9)]
    extracted = _record_core_at(monkeypatch)
    for c in cores:
        core_of(c)
    assert len(extracted) == len(cores)
    reduced = _record_reduced(monkeypatch)
    for c in cores:
        invert_core(c)
    assert len(reduced) == len(cores)
    for core in extracted + reduced:
        assert letter_loop_validate(core) == []
        assert strongly_connected(core)


def _run(run, argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


# a two-state core on which digit 0 swaps the states and digit 1 fixes
# both: it never synchronizes
SWAP_CORE = (f"{HEADER}\nalphabet n=2 core\na 0 -> b : 0\na 1 -> a : 1\n"
             "b 0 -> a : 1\nb 1 -> b : 0\n")


@pytest.mark.parametrize("name", [*sorted(fixtures.ALL), "swap"])
def test_cli_verbs_validate_and_synchronize_once(name, tmp_path, monkeypatch,
                                                  capsys):
    text = fixtures.ALL.get(name, SWAP_CORE)
    path = tmp_path / f"{name}.ct"
    path.write_text(text)
    t = parse(text)
    level = sync_level(t)
    expected = {
        "minimize": (0, serialize(minimize(t)), ""),
        "canon": (0, canonical_form(minimize(t)).decode() + "\n", ""),
    }
    if level is not None:
        states = " ".join(map(str, core_of(t).states))
        expected["sync"] = (0, f"level: {level}\ncore states: {states}\n", "")
        expected["core"] = (0, serialize(core_of(t)), "")
    else:
        pair = " / ".join(witness_pair(t))
        expected["sync"] = (1, f"not synchronizing; witness pair {pair}\n", "")
        expected["core"] = (2, "", "error: machine is not synchronizing; it "
                            "has no core\n")
    for verb, want in expected.items():
        argv = [verb, str(path)]
        assert _run(fresh_parser_main, argv, capsys) == want
        with monkeypatch.context() as patch:
            validated = count_calls(patch, machine, "_stages")
            synchronized = count_calls(patch, synchro, "_collapse")
            assert _run(cli.main, argv, capsys) == want
        assert len(validated) == 1
        assert len(synchronized) == (1 if verb in ("sync", "core") else 0)


def _answer(compute):
    """The CLI's (exit code, stdout, stderr) for a library call: its
    printed result, or the error line of a refusal."""
    try:
        return compute()
    except (TransducerError, NotInvertible) as e:
        return 2, "", f"error: {e}\n"


@pytest.mark.parametrize("name", [*sorted(fixtures.ALL), "gnr"])
def test_cli_invert_member_outer_eq_validate_each_document_once(
        name, tmp_path, monkeypatch, capsys):
    text = fixtures.ALL.get(name) or \
        serialize(random_gnr_element(Alphabet(3, 2), 5))
    path = str(tmp_path / f"{name}.ct")
    with open(path, "w") as fh:
        fh.write(text)
    t = parse(text)
    yes = is_in_Gnr(t)
    expected = {
        ("invert", path): _answer(lambda: (0, serialize(invert(t)), "")),
        ("member", path): (0, "yes\n", "") if yes else (1, "no\n", ""),
        ("outer-eq", path, path): _answer(
            lambda: (0, "equal\n", "") if outer_class_equal(t, t)
            else (1, "different\n", "")),
    }
    for argv, want in expected.items():
        argv = list(argv)
        assert _run(fresh_parser_main, argv, capsys) == want
        with monkeypatch.context() as patch:
            validated = count_calls(patch, machine, "_stages")
            inverted = count_calls(patch, algebra, "invert")
            collapsed = count_calls(patch, synchro, "_collapse")
            assert _run(cli.main, argv, capsys) == want
        # validate's stages run once per document read, and never on a
        # machine invert builds (its machine of sets, on pairs (state,
        # pending word), is valid by construction); the later validate
        # and check_valid calls on the parsed machines and their cores
        # return at once
        docs = len(argv) - 1
        assert len(validated) == docs
        assert not any(isinstance(m.states[0], tuple) for m in validated)
        # member decides an initial-mode machine by the walk of its
        # prefix replacement map, which neither inverts nor collapses
        assert bool(inverted) == (argv[0] == "invert")
        if argv[0] == "member" and t.mode == INITIAL:
            assert collapsed == []


def test_prefix_map_machines_are_valid_by_construction(monkeypatch):
    """from_prefix_code_map reduces its raw machine without validating
    it, built on rows: a fresh copy of each raw machine passes the letter
    loop, and minimizing that copy gives the same machine."""
    raws = count_calls(monkeypatch, minimize_module, "_reduce")
    checked = 0
    for seed in range(200):
        alphabet = ALPHABETS[seed % len(ALPHABETS)]
        pm = random_prefix_code_map(alphabet, 77_000 + seed)
        raws.clear()
        built = from_prefix_code_map(pm, alphabet)
        (raw,) = raws
        assert raw._rows is not None and raw._known is None
        copy = _with(raw)
        assert letter_loop_validate(copy) == []
        assert serialize(minimize(copy)) == serialize(built)
        checked += len(raw.states) > 3
    assert checked >= 100
