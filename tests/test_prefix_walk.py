"""Membership in G_{n,r} by the walk of the prefix replacement map.

is_in_Gnr decides an initial-mode machine from the paths of its minimal
machine to the identity-echo state, and falls back to inversion for
core-mode machines and codes past the walk's budget; both answers, and
every refusal, agree with the inversion kept in helpers.py as the
oracle.  prefix_code_map_of returns the map the walk finds, and
member --why prints it."""

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cantrans import (
    Alphabet,
    INITIAL,
    Transducer,
    TransducerError,
    canonical_form,
    cli,
    compose,
    eval_point,
    fixtures,
    from_prefix_code_map,
    invert,
    is_in_Gnr,
    minimize,
    parse,
    prefix_code_map_of,
    serialize,
    twist_transducer,
)
from cantrans import algebra, synchro
from cantrans.classify import _CODE_BUDGET, _membership
from cantrans.randgen import random_gnr_element, random_transducer

from helpers import count_calls, deep_twist, delayed_copy, \
    empty_output_chain, output_letter_mutants, random_bisync, \
    random_points, three_minimize_in_gnr

ALPHABETS = [Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 3)]
A21, A32 = Alphabet(2, 1), Alphabet(3, 2)


def _outcome(decide, t):
    """decide(t), or the type and text of its refusal."""
    try:
        return decide(t)
    except ValueError as e:
        return type(e), str(e)


def _conjugate(g):
    sample = fixtures.sample_3_2()
    return compose(compose(invert(sample), g), sample)


def _members(rng, count):
    """Random elements, products of two, and twists around them."""
    out = []
    for i in range(count):
        alphabet = ALPHABETS[i % len(ALPHABETS)]
        a, b = (random_gnr_element(alphabet, rng.randrange(2 ** 32),
                                   max_splits=5) for _ in range(2))
        sigma = rng.sample(range(alphabet.n), alphabet.n)
        twist = twist_transducer(sigma, alphabet)
        out += [a, compose(a, b), twist, compose(a, twist),
                compose(compose(twist, a), twist)]
    return out


def _data(name):
    path = os.path.join(os.path.dirname(__file__), "data",
                        f"not_invertible_{name}.ct")
    with open(path) as f:
        return f.read()


def _corpus(group):
    rng = random.Random(f"prefix-walk:{group}")
    if group == "gnr":
        return _members(rng, 40)
    if group == "conjugates":
        return [_conjugate(compose(random_gnr_element(A32, 2 * s),
                                   random_gnr_element(A32, 2 * s + 1)))
                for s in range(20)]
    if group == "random":  # and the non-invertible documents
        return [random_transducer(ALPHABETS[s % 4], 1 + s % 4, 2, s,
                                  synchronous=sync)
                for s in range(40) for sync in (False, True)] + \
            [delayed_copy(), fixtures.sample_3_2(), random_bisync(A21, 3)] + \
            [parse(_data(name)) for name in ("a", "c", "c_mutated")]
    if group == "mutants":
        return [m for g in _members(rng, 12)[1::5]
                for m in output_letter_mutants(g, rng, 12)]
    if group == "deep":
        return [deep_twist(alphabet, k, rng.sample(range(alphabet.n),
                                                   alphabet.n))
                for alphabet in (A21, A32) for k in range(1, 8)]
    if group == "chains":
        return [empty_output_chain(False), empty_output_chain(True)]
    raise AssertionError(group)


GROUPS = ["gnr", "conjugates", "random", "mutants", "deep", "chains"]


@pytest.mark.parametrize("group", GROUPS)
def test_is_in_Gnr_agrees_with_the_inversion_oracle(group):
    """Verdicts, refusal types and refusal texts, on both sides of the
    walk's budget and on every way the walk refuses."""
    for t in _corpus(group):
        assert _outcome(is_in_Gnr, t) == _outcome(three_minimize_in_gnr, t)


def _why_kinds(machines):
    kinds = set()
    for t in machines:
        got = _outcome(_membership, t)
        why = got[1]
        if isinstance(got[0], type):
            kinds.add("invalid")
        elif not isinstance(why, str):
            kinds.add("map")
        else:
            kinds.add(next(k for k in ("comparable pair", "Kraft sum",
                                       "no identity-echo state",
                                       "repeats state", "budget",
                                       "core-mode") if k in why))
    return kinds


def test_the_corpus_meets_every_decision():
    """The oracle corpus reaches the map of a member, both refusals of
    the range code (the mutants, whose identity-echo state is kept), the
    other two refusals of the walk, invalid machines, and the inversion
    on both of its sides: core mode and codes past the budget."""
    assert _why_kinds(_corpus("mutants")) >= {
        "map", "comparable pair", "Kraft sum", "invalid"}
    assert _why_kinds(_corpus("random")) >= {
        "map", "Kraft sum", "no identity-echo state", "repeats state"}
    assert _why_kinds(_corpus("deep")) == {"map", "budget"}
    assert _why_kinds(_corpus("chains")) == {"Kraft sum", "core-mode"}


def test_the_budget_is_linear_in_states_and_letters(monkeypatch):
    """A deep twist is decided on the walk while its code has at most
    _CODE_BUDGET n |Q| words, inverting and collapsing nothing, and by
    inversion past that."""
    inverted = count_calls(monkeypatch, algebra, "invert")
    collapsed = count_calls(monkeypatch, synchro, "_collapse")
    sides = set()
    for k in range(1, 9):
        t = deep_twist(A21, k, (1, 0))
        walked = 2 ** k <= _CODE_BUDGET * 2 * (k + 2)
        del inverted[:], collapsed[:]
        assert is_in_Gnr(t)
        assert (inverted == [] and collapsed == []) is walked
        sides.add(walked)
    assert sides == {True, False}


def test_past_the_budget_invert_alone_decides(monkeypatch):
    """Past the walk's budget every path has been shown to meet the
    identity-echo state, so invert alone decides whether the map is a
    homeomorphism, with no synchronization test and no core: deep twists
    past the budget are members, and their output-letter mutants past it
    are members exactly when the inversion oracle says so."""
    rng = random.Random("past-budget")
    machines = []
    for alphabet, depths in ((A21, (7, 8)), (A32, (4,))):
        for k in depths:
            t = deep_twist(alphabet, k, rng.sample(range(alphabet.n),
                                                   alphabet.n))
            machines += [t, *output_letter_mutants(t, rng, 12)]
    inverted = count_calls(monkeypatch, algebra, "invert")
    bisync = count_calls(monkeypatch, synchro, "is_bisynchronizing")
    cores = count_calls(monkeypatch, synchro, "core_of")
    verdicts = []
    for t in machines:
        del inverted[:], bisync[:], cores[:]
        got = _outcome(_membership, t)
        if isinstance(got[0], type) or "budget" not in str(got[1]):
            continue
        assert len(inverted) == 1 and bisync == [] and cores == []
        verdicts.append(got[0])
    monkeypatch.undo()
    assert verdicts.count(True) >= 3 and verdicts.count(False) >= 5
    for t in machines:
        assert _outcome(is_in_Gnr, t) == _outcome(three_minimize_in_gnr, t)


def _round_trip_machines():
    rng = random.Random(3)
    for s in range(30):
        alphabet = ALPHABETS[s % len(ALPHABETS)]
        g = random_gnr_element(alphabet, rng.randrange(2 ** 32),
                               max_splits=5)
        yield alphabet, g
        if alphabet == A32:
            yield alphabet, _conjugate(g)
    yield A21, deep_twist(A21, 7, (1, 0))


def _carets(pm, n):
    """The domain words u whose n children u x all go to v x."""
    image = dict(pm.pairs())
    parents = {u[:-1] for u in pm.domain if len(u) > 1}
    return [u for u in parents
            if all(u + (x,) in image for x in range(n)) and
            all(image[u + (x,)] == image[u + (0,)][:-1] + (x,)
                for x in range(n))]


def test_prefix_code_map_of_rebuilds_the_minimal_machine():
    """The certificate of a member, conjugates by SAMPLE_3_2 and a code
    past the walk's budget included, builds the machine back, and holds
    no caret to merge."""
    for alphabet, t in _round_trip_machines():
        pm = prefix_code_map_of(t)
        assert canonical_form(from_prefix_code_map(pm, alphabet)) == \
            canonical_form(minimize(t))
        assert _carets(pm, alphabet.n) == []


def test_prefix_code_map_applies_as_the_machine_evaluates():
    rng = random.Random(11)
    for _, t in _round_trip_machines():
        pm = prefix_code_map_of(t)
        depth = max(map(len, pm.domain))
        for point in random_points(rng, t.n, 4):
            image = pm.apply(point.expand(depth))
            assert eval_point(t, point).expand(len(image)) == image


def _machine(n, r, table):
    """An initial-mode machine from lines 'state letter target output',
    its entry q0 and an identity-echo state e added."""
    trans = {(q, x): (w, tgt) for q, x, tgt, w in table}
    trans.update((("e", x), ((x,), "e")) for x in range(n))
    states = ["q0", *dict.fromkeys(q for q, *_ in table if q != "q0"), "e"]
    return Transducer(n, r, INITIAL, states, "q0", trans)


@pytest.mark.parametrize("t, reason", [
    (twist_transducer((1, 0), A21), "no identity-echo state"),
    # 0^k 1 y -> 1^k 0 y: a homeomorphism, but 0 loops on state a
    (_machine(2, 1, [("q0", -1, "a", (-1,)), ("a", 0, "a", (1,)),
                     ("a", 1, "e", (0,))]),
     "a path from the entry repeats state 's1' before the identity-echo "
     "state"),
    (_machine(2, 1, [("q0", -1, "a", (-1,)), ("a", 0, "e", (0,)),
                     ("a", 1, "e", (0,))]),
     "range code invalid: comparable pair '.0 0', '.0 0'"),
    (_machine(2, 1, [("q0", -1, "a", (-1,)), ("a", 0, "e", (0, 0)),
                     ("a", 1, "e", (1,))]),
     "range code invalid: Kraft sum 3/4 != r = 1 (incomplete code)"),
], ids=["twist", "repeat", "comparable", "kraft"])
def test_prefix_code_map_of_names_why_a_machine_is_no_member(t, reason):
    with pytest.raises(TransducerError) as err:
        prefix_code_map_of(t)
    assert str(err.value) == f"not in G_2,1: {reason}"
    assert not is_in_Gnr(t) and not three_minimize_in_gnr(t)


def test_prefix_code_map_of_refuses_a_core():
    with pytest.raises(TransducerError, match="expects an initial-mode"):
        prefix_code_map_of(parse(fixtures.TORSION_CORE_2))


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


PAIRS = ".0 0 -> .0 0 0\n.0 1 0 -> .0 0 1\n.0 1 1 -> .0 1\n"


def test_member_why_prints_the_map_the_reason_or_the_inversion(tmp_path):
    """member --why prints the verdict line member prints, then the map
    (which make-prefix-map builds back into the same machine), the
    walk's reason, or that inversion decided; the exit codes stay."""
    pm_map, pm_ct, back = (str(tmp_path / f) for f in
                           ("pm.map", "pm.ct", "back.map"))
    with open(pm_map, "w") as fh:
        fh.write(PAIRS)
    assert _cli("make-prefix-map", pm_map, "--n", "2", "--r", "1",
                "-o", pm_ct)[0] == 0
    code, out, err = _cli("member", "--why", pm_ct)
    assert (code, err) == (0, "")
    verdict, certificate = out.split("\n", 1)
    assert _cli("member", pm_ct) == (0, verdict + "\n", "") == \
        (0, "yes\n", "")
    with open(back, "w") as fh:
        fh.write(certificate)
    assert _cli("make-prefix-map", back, "--n", "2", "--r", "1")[1] == \
        (tmp_path / "pm.ct").read_text()
    docs = {
        "twist": (serialize(twist_transducer((1, 0), A21)),
                  (1, "no\nno identity-echo state\n", "")),
        "core": (fixtures.TORSION_CORE_2,
                 (1, "no\ndecided by inversion: a core-mode machine\n", "")),
        "deep": (serialize(deep_twist(A21, 7, (1, 0))),
                 (0, "yes\ndecided by inversion: the code passes the "
                  "walk's budget of 72 words\n", "")),
    }
    for name, (text, want) in docs.items():
        path = str(tmp_path / f"{name}.ct")
        with open(path, "w") as fh:
            fh.write(text)
        assert _cli("member", "--why", path) == want
        assert _cli("member", path) == (want[0], want[1].split("\n")[0] +
                                        "\n", "")
