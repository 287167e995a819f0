import random
import re

import pytest

from cantrans import Alphabet, CORE, InvalidTransducer, ParseError, \
    Transducer, core_product, minimize, parse, serialize
from cantrans.document import parse_prefix_map, serialize_prefix_map
from cantrans.algebra import PrefixCodeMap
from cantrans.machine import relabel
from cantrans.randgen import random_gnr_element, random_transducer
from cantrans import fixtures

from helpers import balanced_powers, empty_output_chain, \
    letter_loop_validate, list_queue_serialize, shuffled_relabel, \
    token_loop_parse


def test_fixture_integrity():
    for name, doc in fixtures.ALL.items():
        t = parse(doc)
        assert letter_loop_validate(t) == [], name


def test_roundtrip_on_fixtures():
    for doc in fixtures.ALL.values():
        t = parse(doc)
        assert serialize(parse(serialize(t))) == serialize(t)


def test_serialize_is_normal_form_of_document():
    # whitespace and comments normalize away
    messy = """
# a comment
cantor-transducer 1
alphabet   n=2   r=1
initial q0
q0 .0 -> s : .0    # echo
s 0 -> s : 0
s 1 -> s : 1
"""
    t = parse(messy)
    assert serialize(parse(serialize(t))) == serialize(t)


def test_header_required():
    with pytest.raises(ParseError) as err:
        parse("alphabet n=2 r=1\n")
    assert err.value.line == 1


def test_missing_transition_reported_with_line():
    doc = """cantor-transducer 1
alphabet n=2 r=1
initial q0
q0 .0 -> s : .0
s 0 -> s : 0
"""
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert "incomplete transition table" in str(err.value)
    assert "(s, 1)" in str(err.value).replace("'", "")


def test_degenerate_document_rejected_with_line():
    doc = """cantor-transducer 1
alphabet n=2 r=1
initial q0
q0 .0 -> s : .0
s 0 -> s : -
s 1 -> s : 1
"""
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert "cycle" in str(err.value)
    doc2 = doc.replace("q0 .0 -> s : .0", "q0 .0 -> s : -")
    with pytest.raises(ParseError) as err:
        parse(doc2)
    assert "pre-root" in str(err.value) and "line 6" in str(err.value)


def test_syntax_error_position():
    doc = """cantor-transducer 1
alphabet n=2 r=1
initial q0
q0 .0 -> s
"""
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.line == 4


def test_duplicate_transition_rejected():
    doc = """cantor-transducer 1
alphabet n=2 r=1
initial q0
q0 .0 -> s : .0
s 0 -> s : 0
s 0 -> s : 1
s 1 -> s : 1
"""
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert "duplicate" in str(err.value)


def test_core_document_roundtrip():
    t = parse(fixtures.SYNCHRONOUS_CORE_3)
    assert t.mode == "core"
    assert t.r is None
    again = parse(serialize(t))
    assert again.trans == t.trans


def test_minimized_machine_serializes():
    t = minimize(parse(fixtures.SAMPLE_3_2))
    doc = serialize(t)
    assert parse(doc).trans == t.trans


def test_prefix_map_parse_and_serialize():
    text = """.0 0 -> .1
.0 1 -> .0 0
.1 -> .0 1
"""
    dom, ran = parse_prefix_map(text)
    pm = PrefixCodeMap(dom, ran)
    assert serialize_prefix_map(pm) == text
    with pytest.raises(ParseError):
        parse_prefix_map(".0 0 .1\n")


def test_serialize_parse_fuzz():
    from cantrans import Alphabet, serialize
    from cantrans.randgen import random_transducer
    for seed in range(25):
        t = random_transducer(Alphabet(3, 2), 4, 2, 70_000 + seed)
        again = parse(serialize(t))
        assert again.trans == t.trans
        assert again.initial == t.initial
        assert set(again.states) == set(t.states)


def test_bad_alphabet_values_are_parse_errors():
    doc = """cantor-transducer 1
alphabet n=2 r=2
initial q0
q0 .0 -> s : .0
q0 .1 -> s : .1
s 0 -> s : 0
s 1 -> s : 1
"""
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.line == 2
    # a core alphabet of fewer than two digits, with and without a table
    for n in (1, 0):
        for body in ("", "q 0 -> q : 0\n"):
            with pytest.raises(ParseError) as err:
                parse(f"cantor-transducer 1\nalphabet n={n} core\n{body}")
            assert (err.value.line, err.value.column) == (2, 1)
            assert "need n >= 2" in str(err.value)


def test_serialize_matches_list_queue_walk():
    """Byte for byte the oracle's document, which formats every
    transition's letter and word where it writes it (serialize formats
    each distinct one once): on the fixtures (as parsed, minimized and
    relabelled), BALANCED_CORE_2 a^1 .. a^5, both 3000-state chains,
    seeded random machines and prefix-exchange maps over alphabets of
    up to 12 digits and 10 root letters.  Copies of some with one
    transition deleted and one writing root letters inside its word are
    no valid machines, and are refused with their violations."""
    rng = random.Random(2)
    machines = []
    for doc in fixtures.ALL.values():
        t = parse(doc)
        machines += [t, minimize(t), shuffled_relabel(t, rng)]
    a = minimize(fixtures.balanced_core_2())
    cube = core_product(core_product(a, a), a)
    assert len(cube.states) == 103
    machines += [cube, shuffled_relabel(cube, rng)]
    machines += balanced_powers(5)
    machines += [empty_output_chain(True), empty_output_chain(False)]
    alphabets = (Alphabet(2, 1), Alphabet(3, 2), Alphabet(4, 3),
                 Alphabet(11, 3), Alphabet(12, 10))
    for seed in range(100):
        alphabet = alphabets[seed % len(alphabets)]
        machines.append(random_transducer(
            alphabet, 1 + seed % 6, 1 + seed % 3, 91_000 + seed,
            synchronous=alphabet.n > 10))
        machines.append(random_gnr_element(alphabet, 91_000 + seed))
    for t in machines[-40:]:
        trans = dict(t.trans)
        keys = list(trans)
        del trans[rng.choice(keys)]
        key = rng.choice(keys)
        w, tgt = t.trans[key]
        trans[key] = ((*w, -1, 0), tgt)
        machines.append(Transducer(t.n, t.r, t.mode, t.states, t.initial,
                                   trans))
    # unreachable states are written last, by name
    extra = dict(a.trans)
    extra.update({("z", x): ((x,), "z") for x in range(a.n)})
    machines.append(Transducer(a.n, None, CORE, ["z", *a.states], "s0",
                               extra))
    assert len(machines) == 3 * len(fixtures.ALL) + 2 + 5 + 2 + 200 + 40 + 1
    refused = 0
    for t in machines:
        bad = letter_loop_validate(t)
        if bad:
            with pytest.raises(InvalidTransducer) as err:
                serialize(t)
            assert str(err.value) == "; ".join(bad)
            refused += 1
        else:
            assert serialize(t) == list_queue_serialize(t)
    assert refused == 40
    # tuple names are refused by both; a tuple only as a target is no
    # state, which the gate refuses first
    pairs = relabel(a, {q: (q, 0) for q in a.states})
    for write in (serialize, list_queue_serialize):
        with pytest.raises(ValueError, match="only string state names"):
            write(pairs)
    target = dict(a.trans)
    target[next(iter(target))] = ((0,), ("x", 0))
    t = Transducer(a.n, None, CORE, a.states, None, target)
    with pytest.raises(ValueError, match="only string state names"):
        list_queue_serialize(t)
    with pytest.raises(InvalidTransducer, match=r"targets unknown state "
                       r"\('x', 0\)$"):
        serialize(t)


CORE_HEAD = "cantor-transducer 1\nalphabet n=2 core\n"


@pytest.mark.parametrize("body, line, column, message", [
    # the letter of the repeated transition, not the 0 inside q0
    ("q0 0 -> q0 : 0\nq0 0 -> q0 : 0\n", 4, 4, "duplicate transition"),
    # the misplaced root letter, not the first 0 of the line (in q0)
    ("q0 1 -> q0 : 0 .0\n", 3, 16, "root letter .0 at position 1"),
    ("q0 1 -> q0 : 0 1 q\n", 3, 18, "bad letter token 'q'"),
    ("q0 1 -> q0 : - 0\n", 3, 14, "bad letter token '-'"),
    ("q1 q -> q1 : 0\n", 3, 4, "bad letter token 'q'"),
    ("  q0 0 -> -> : 0\n", 3, 11, "reserved token '->'"),
    ("q0 0 -> q0\n", 3, 1, "expected '<state> <letter>"),
    ("\tq0 0 -> q0 0\n", 3, 2, "expected '<state> <letter>"),
], ids=["duplicate", "root-inside", "bad-output-letter", "dash-in-word",
        "bad-input-letter", "reserved-target", "short-line", "tab-indent"])
def test_parse_error_columns(body, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(CORE_HEAD + body)
    assert (err.value.line, err.value.column) == (line, column)
    assert message in str(err.value)


def test_header_and_alphabet_error_columns():
    with pytest.raises(ParseError) as err:
        parse("   cantor-transducer 2\n")
    assert (err.value.line, err.value.column) == (1, 4)
    with pytest.raises(ParseError) as err:
        parse("cantor-transducer 1\n\n  alphabet n=2\n")
    assert (err.value.line, err.value.column) == (3, 3)
    with pytest.raises(ParseError) as err:
        parse("cantor-transducer 1\nalphabet n=2 r=1\n initial\n")
    assert (err.value.line, err.value.column) == (3, 2)


@pytest.mark.parametrize("text, column, message", [
    (".0 0 -> .1 .0\n", 12, "root letter .0 at position 1"),
    (".0 0 -> .1 0 z\n", 14, "bad letter token 'z'"),
    (".0 .1 -> .1\n", 4, "root letter .1 at position 1"),
    (" x -> .1\n", 2, "bad letter token 'x'"),
    ("  .0 0 .1\n", 3, "expected '<word> -> <word>'"),
])
def test_prefix_map_error_columns(text, column, message):
    with pytest.raises(ParseError) as err:
        parse_prefix_map(".1 -> .1\n" + text)
    assert (err.value.line, err.value.column) == (2, column)
    assert message in str(err.value)


# parse against the token loop it replaced: the same machine, key order
# included, on every document the loop accepts, and the same exception
# on every document it refuses.

def _fields(t):
    return t.n, t.r, t.mode, t.states, t.initial, list(t.trans.items())


def _outcome(read, text):
    """What read(text) gives: a machine's fields, or the type and text of
    the ValueError it raises."""
    try:
        got = read(text)
    except ValueError as e:
        return type(e), str(e)
    return _fields(got) if isinstance(got, Transducer) else got


def _padded(tok):
    """A letter token with a leading zero, which spells the same letter."""
    if tok == "-":
        return tok
    return "." + "0" + tok[1:] if tok.startswith(".") else "0" + tok


def _messy(text, rng):
    """The same lines in a new layout: transitions shuffled, indents, runs
    of spaces and tabs, comments after lines and on lines of their own,
    blank lines, CRLF and CR line ends, and some letters written with a
    leading zero."""
    lines = text.splitlines()
    table = [k for k, line in enumerate(lines)
             if line.split()[2:3] == ["->"]]
    # the transitions in another order, which changes the key order and
    # the state order but not the machine
    for k, line in zip(table, rng.sample([lines[k] for k in table],
                                         len(table))):
        lines[k] = line
    out = []
    for line in lines:
        toks = line.split()
        if "->" in toks and rng.random() < 0.3:
            cut = toks.index("->")
            if toks[cut:cut + 3:2] == ["->", ":"]:  # a transition
                toks = [toks[0], _padded(toks[1]), *toks[2:5],
                        *map(_padded, toks[5:])]
            else:
                toks = [_padded(t) if t != "->" else t for t in toks]
        seps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in toks]
        line = rng.choice(("", " ", "\t")) + "".join(
            tok + sep for tok, sep in zip(toks, seps))
        if rng.random() < 0.3:
            line += "# note -> : 0 .1 -"
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# a comment line")))
        out.append(line)
    ends = [rng.choice(("\n", "\r\n", "\r\n", "\r")) for _ in out]
    return "".join(line + end for line, end in zip(out, ends))


def _valid_documents():
    rng = random.Random(11)
    docs = list(fixtures.ALL.values())
    docs += [serialize(a) for a in balanced_powers(5)]
    a = minimize(fixtures.unbalanced_core_3())
    power = a
    for _ in range(5):
        docs.append(serialize(power))
        power = core_product(power, a)
    alphabets = (Alphabet(2, 1), Alphabet(3, 2), Alphabet(4, 3),
                 Alphabet(11, 3), Alphabet(12, 10))
    for seed in range(250):
        alphabet = alphabets[seed % len(alphabets)]
        # a random table over 11 or 12 digits rarely validates, so those
        # machines write digit permutations
        docs.append(serialize(random_transducer(
            alphabet, 1 + seed % 6, 1 + seed % 3, 90_000 + seed,
            synchronous=alphabet.n > 10)))
        docs.append(serialize(random_gnr_element(alphabet, 90_000 + seed)))
    return docs + [_messy(doc, rng) for doc in docs]


def _rows(t):
    rows = t._rows
    return rows.states, rows.entry, rows.letters, rows.outs, rows.targets


def test_parse_matches_the_token_loop_on_valid_documents():
    """parse gives the token loop's machine, and the rows it builds in its
    line loop are those of the view validate builds of the token loop's
    table."""
    docs = _valid_documents()
    assert len(docs) > 1000
    padded = 0
    for doc in docs:
        got, want = parse(doc), token_loop_parse(doc)
        assert _rows(got) == _rows(want), doc
        assert _fields(got) == _fields(want), doc
        padded += " 00" in doc
    assert padded > 100


def _spliced(doc, rng, lines):
    """doc with `lines` inserted before a random line of its table, and
    the line number the first of them gets."""
    rows = doc.splitlines()
    at = rng.randrange(2, len(rows) + 1)
    return "\n".join(rows[:at] + lines + rows[at:]) + "\n", at + 1


def _cases(test):
    """The argument tuples of a parametrized test."""
    mark = next(m for m in test.pytestmark if m.name == "parametrize")
    return mark.args[1]


def _refused(doc, line=None, column=None, message=None):
    """parse refuses doc with the token loop's exception; and where given,
    that exception is a ParseError at line and column with message in its
    text."""
    got = _outcome(parse, doc)
    assert got == _outcome(token_loop_parse, doc)
    assert isinstance(got[0], type), got
    if message is not None:
        kind, text = got
        assert kind is ParseError
        assert text.startswith(f"line {line}, column {column}: ")
        assert message in text
    return got


def test_parse_refuses_what_the_token_loop_refuses():
    rng = random.Random(5)
    big = serialize(balanced_powers(4)[-1])
    assert len(big.splitlines()) == 602
    for body, line, column, message in _cases(test_parse_error_columns):
        case = body.splitlines()
        for _ in range(4):
            doc, first = _spliced(big, rng, case)
            _refused(doc, first + line - 3, column, message)
    rows = big.splitlines()
    for _ in range(5):
        # a duplicate far from the transition it repeats, output changed
        src, letter, *_ = rows[rng.randrange(2, 20)].split()
        doc = big + f"{src} {letter} -> s0 : 1 1\n"
        _refused(doc, len(rows) + 1, len(src) + 2, "duplicate transition")
    # one transition edited: most edits parse but do not validate, and the
    # notes of those name the line
    gnr = serialize(random_gnr_element(Alphabet(3, 2), 4))
    named = 0
    for base in (big, gnr):
        rows = base.splitlines()
        table = [k for k, row in enumerate(rows) if "->" in row]
        for _ in range(8):
            k = rng.choice(table)
            src, letter, _, tgt, _, *out = rows[k].split()
            out = " ".join(out)
            edits = [
                f"{src} {letter} -> nowhere : {out}",
                f"{src} {letter} -> {tgt} : 0 .0",
                f"{src} {letter} => {tgt} : {out}",
                f"{src} {letter} -> {tgt} = {out}",
                f"{src} {letter} -> {tgt} : .7",
                f"{src} {letter} -> {tgt} : 9",
                f"{src} {letter} -> {src} : -",
                f"{src} 7 -> {tgt} : {out}",
                None,
            ]
            for edit in edits:
                new = rows[:k] + ([] if edit is None else [edit]) + \
                    rows[k + 1:]
                kind, text = _refused("\n".join(new) + "\n")
                assert kind is ParseError
                named += f"line {k + 1}: " in text
    assert named > 40
    # a state named by a reserved token, its table complete
    for name in ("->", ":", "-"):
        doc = re.sub(r"\bs1\b", name, big)
        kind, text = _refused(doc)
        assert f"reserved token {name!r}" in text
    # header, alphabet and initial lines, and documents with no table
    head = "cantor-transducer 1\n"
    for doc in ["", "# nothing\n\n", head, "cantor-transducer 2\n",
                head + "alphabet n=2\n", head + "alphabet n=1 core\n",
                head + "alphabet n=3 r=3\ninitial q0\n",
                head + "alphabet n=2 r=1\n",
                head + "alphabet n=2 r=1\nq0 .0 -> q0 : .0\n",
                head + "alphabet n=2 r=1\ninitial q0 q1\n",
                head + "alphabet n=2 core\n",
                head + "alphabet n=2 core\ninitial q0\n",
                gnr.replace("initial ", "initial\t") + "initial q0\n",
                # digits int refuses: a superscript, too many to convert
                big.replace("s0 0", "s0 \u00b2", 1),
                big.replace(": 1", ": " + "1" * 5000, 1),
                big.replace("n=2", "n=" + "2" * 5000)]:
        assert _refused(doc)[0] is ParseError
