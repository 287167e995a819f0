import random

import pytest

from cantrans import CORE, ParseError, Transducer, core_product, minimize, \
    parse, serialize, validate
from cantrans.document import parse_prefix_map, serialize_prefix_map
from cantrans.algebra import PrefixCodeMap
from cantrans.machine import relabel
from cantrans import fixtures

from helpers import list_queue_serialize, shuffled_relabel


def test_fixture_integrity():
    for name, doc in fixtures.ALL.items():
        t = parse(doc)
        assert validate(t) == [], name


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


def test_serialize_matches_list_queue_walk():
    rng = random.Random(2)
    machines = []
    for doc in fixtures.ALL.values():
        t = parse(doc)
        machines += [t, minimize(t), shuffled_relabel(t, rng)]
    a = minimize(fixtures.balanced_core_2())
    cube = core_product(core_product(a, a), a)
    assert len(cube.states) == 103
    machines += [cube, shuffled_relabel(cube, rng)]
    # unreachable states are written last, by name
    extra = dict(a.trans)
    extra.update({("z", x): ((x,), "z") for x in range(a.n)})
    machines.append(Transducer(a.n, None, CORE, ["z", *a.states], "s0",
                               extra))
    for t in machines:
        assert serialize(t) == list_queue_serialize(t)
    # tuple names are refused by both
    pairs = relabel(a, {q: (q, 0) for q in a.states})
    for write in (serialize, list_queue_serialize):
        with pytest.raises(ValueError, match="only string state names"):
            write(pairs)


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
