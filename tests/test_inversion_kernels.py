"""Inversion without reduction round trips: the lag walk decides whether a
pair product is the identity without building it, and invert/invert_core
share one pending-word exploration on the minimal machine's integer view.
Both are checked against the code they replaced, kept in helpers.py as
oracles: the reduction round trip (build, validate and minimize the
product, then compare with the identity) and the exploration on
(name, letter) keys."""

import importlib
import random
import re

import pytest

from cantrans import (
    Alphabet,
    CORE,
    NotInjective,
    NotInvertible,
    Transducer,
    TransducerError,
    canonical_form,
    core_of,
    core_product,
    embed_core,
    from_prefix_code_map,
    identity_core,
    identity_transducer,
    invert,
    invert_core,
    minimize,
    parse,
    random_prefix_code_map,
    serialize,
    sync_level,
    twist_transducer,
    validate,
)
from cantrans import algebra, fixtures, machine
from cantrans.algebra import _accepting, _product_is_identity
from cantrans.machine import _View
from cantrans.randgen import random_gnr_element, random_transducer

from helpers import balanced_powers, check_not_injective, count_calls, \
    delayed_copy, fixture_cores, name_keyed_invert, name_keyed_invert_core, \
    random_bisync, reduced_product_is_identity, shuffled_relabel, \
    worklist_accepting

# the package's `minimize` attribute is the function, not the module
minimize_module = importlib.import_module("cantrans.minimize")

BOUND = re.compile(r"pending word exceeds bound \d+$")


def _fixture_initials():
    return [fixtures.sample_3_2(), fixtures.unbalanced_4_2(),
            twist_transducer((1, 2, 0), Alphabet(3, 1)),
            twist_transducer((1, 0, 3, 2), Alphabet(4, 2))]


def _outcome(fn, t):
    """What fn(t) gives: the machine, or the error it raises."""
    try:
        return fn(t)
    except TransducerError as e:
        return e


def _whole(m):
    return m.states, m.initial, m.trans, serialize(m)


def _assert_same_verdict(fn, oracle, t, same=_whole):
    """fn(t) and oracle(t) both give machines, equal under `same`, or
    both refuse with one error type.  The library may refuse with
    NotInjective, a NotInvertible, where the oracle's exploration runs
    on: its certificate is walked again on t.  Otherwise a refusal's text
    is the oracle's, but a bound error appends the word and the state,
    and may be met at another configuration than the oracle's.  Returns
    the oracle's outcome."""
    got, want = _outcome(fn, t), _outcome(oracle, t)
    if not isinstance(want, Exception):
        assert same(got) == same(want)
    elif isinstance(got, NotInjective):
        assert isinstance(want, NotInvertible)
        check_not_injective(t, got)
    elif BOUND.search(str(want)):
        assert type(got) is type(want)
        assert BOUND.search(str(got).split(": '")[0])
        assert " at state " in str(got)
    else:
        assert (type(got), str(got)) == (type(want), str(want))
    return want


def _agree(x, y):
    got = _product_is_identity(_View(x), _View(y))
    assert got is reduced_product_is_identity(x, y)
    return got


def test_lag_walk_accepts_fixture_and_power_round_trips():
    cores = fixture_cores() + balanced_powers(4)
    for c in cores:
        d = invert_core(c)
        assert _agree(c, d) and _agree(d, c)
    for a in _fixture_initials():
        m = minimize(a)
        b = invert(a)
        assert _agree(m, b) and _agree(b, m)


def test_lag_walk_says_no_where_the_reduction_does():
    b2, s3, u3 = (minimize(fixtures.balanced_core_2()),
                  minimize(fixtures.synchronous_core_3()),
                  minimize(fixtures.unbalanced_core_3()))
    # infinite order: no core is its own inverse
    for c in (b2, s3, u3, core_product(b2, b2)):
        assert not _agree(c, c)
    # order two
    t2 = minimize(fixtures.torsion_core_2())
    assert _agree(t2, t2)
    # every edge writes a prefix of its lagged input, but B drops a letter:
    # after 1 the lag is 1, and B 0 writes 1 with lag 0 into A, whose lag
    # is empty
    drop = Transducer(2, None, CORE, ["A", "B"], None, {
        ("A", 0): ((0,), "A"), ("A", 1): ((), "B"),
        ("B", 0): ((1,), "A"), ("B", 1): ((1, 1), "A")})
    ident = identity_core(2)
    assert not _agree(drop, ident) and not _agree(ident, drop)
    assert not _agree(embed_core(drop), identity_transducer(Alphabet(2, 1)))
    # two unrelated prefix maps
    alphabet = Alphabet(3, 2)
    for seed in range(5):
        f, g = (from_prefix_code_map(
            random_prefix_code_map(alphabet, 50 + 2 * seed + k), alphabet)
            for k in range(2))
        assert not _agree(f, g) and not _agree(g, f)


def test_lag_walk_seeds_the_fixed_pair_with_its_lag():
    # the delay core writes the letter it read one step before: the
    # identity up to a lag of one letter, so its fixed pair with the echo
    # core starts with lag 0, and with itself with lag 0 0
    delay = Transducer(2, None, CORE, ["d0", "d1"], None, {
        (f"d{a}", x): ((a,), f"d{x}") for a in range(2) for x in range(2)})
    ident = identity_core(2)
    for x, y in ((delay, ident), (ident, delay), (delay, delay)):
        assert _agree(x, y)


def _one_letter_changed(t, rng):
    """Copies of t with one output letter of one digit-reading transition
    replaced by another digit: as valid as t, since no output changes
    length and no root letter moves."""
    keys = [k for k, (w, _) in t.trans.items()
            if w and k[1] >= 0 and w[-1] >= 0]
    for key in rng.sample(keys, min(3, len(keys))):
        w, tgt = t.trans[key]
        trans = dict(t.trans)
        trans[key] = (w[:-1] + ((w[-1] + 1) % t.n,), tgt)
        yield Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)


def test_lag_walk_rejects_inverses_with_one_letter_changed():
    rng = random.Random(606)
    checked = 0
    for c in fixture_cores() + balanced_powers(2)[1:]:
        d = invert_core(c)
        for bad in _one_letter_changed(d, rng):
            assert validate(bad) == [] and sync_level(bad) is not None
            assert not _agree(c, bad) and not _agree(bad, c)
            checked += 1
    for a in _fixture_initials() + [random_gnr_element(Alphabet(3, 2), 9)]:
        m = minimize(a)
        for bad in _one_letter_changed(invert(m), rng):
            assert validate(bad) == []
            assert not _agree(m, bad) and not _agree(bad, m)
            checked += 1
    assert checked >= 20


def test_lag_walk_matches_reduction_on_random_machines():
    rng = random.Random(707)
    verdicts = []
    for seed in range(8):
        alphabet = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))[seed % 3]
        g = minimize(random_gnr_element(alphabet, 1_000 + seed))
        t = minimize(random_bisync(alphabet, 2_000 + seed))
        c = core_of(t)
        for x in (g, t, c):
            y = invert_core(x) if x.mode == CORE else invert(x)
            xs, ys = shuffled_relabel(x, rng), shuffled_relabel(y, rng)
            for p, q in ((x, y), (y, x), (xs, ys), (ys, xs)):
                assert _agree(p, q)
            # an involution only: twists of order two, the identity core
            verdicts.append(_agree(x, x))
            assert _agree(xs, xs) is verdicts[-1]
    assert set(verdicts) == {True, False}


def _random_initials():
    """Machines whose inversion succeeds or fails in each way the
    exploration can: pending words off the image, pending words over the
    bound, and inverses."""
    out = [random_transducer(alphabet, 3, 2, seed)
           for alphabet, seed in ((Alphabet(2, 1), 0), (Alphabet(3, 1), 0),
                                  (Alphabet(2, 1), 17), (Alphabet(2, 1), 61),
                                  (Alphabet(2, 1), 78), (Alphabet(2, 1), 88),
                                  (Alphabet(3, 1), 102))]
    for seed in range(6):
        alphabet = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))[seed % 3]
        out.append(random_gnr_element(alphabet, 3_000 + seed))
        out.append(random_bisync(alphabet, 4_000 + seed))
    return out


def test_invert_matches_name_keyed_exploration():
    rng = random.Random(808)
    machines = _fixture_initials() + [delayed_copy()] + _random_initials()
    kinds = set()
    for t in machines:
        for u in (t, shuffled_relabel(t, rng)):
            want = _assert_same_verdict(invert, name_keyed_invert, u)
            kinds.add(type(want) if isinstance(want, Exception)
                      else "inverse")
    assert kinds == {"inverse", NotInvertible}


def _random_cores():
    """Cores of random synchronizing machines: invertible ones, one whose
    exploration blows the bound, one with no configuration accepting
    every continuation."""
    out = []
    for alphabet, seed in ((Alphabet(3, 1), 1), (Alphabet(2, 1), 35),
                           (Alphabet(2, 1), 116)):
        out.append(core_of(minimize(random_transducer(alphabet, 4, 2, seed))))
    for seed in range(6):
        alphabet = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))[seed % 3]
        out.append(core_of(minimize(random_bisync(alphabet, 5_000 + seed))))
    return out


def test_invert_core_matches_name_keyed_exploration():
    rng = random.Random(909)
    cores = fixture_cores() + balanced_powers(4) + _random_cores()
    messages = set()
    for c in cores:
        copies = (c,) if len(c.states) > 100 else (c, shuffled_relabel(c, rng))
        for u in copies:
            # the oracle numbers the inverse core from its least-named
            # state, the library from the state digit 0 fixes
            want = _assert_same_verdict(invert_core, name_keyed_invert_core,
                                        u, canonical_form)
            if isinstance(want, Exception):
                messages.add(str(want).split(":")[1].split()[0])
    assert messages == {"pending", "no"}


def _zeros_from_two_loops():
    """A machine on C_{2,1} whose state s writes nothing and goes to a on
    0 and to b on 1, where a and b each write 0 on 0 and stay: reading
    0s, the runs through a and through b never meet at one output
    position, so the inverse never commits to a letter, and its pending
    word grows past the bound."""
    return parse("""\
cantor-transducer 1
alphabet n=2 r=1
initial q0
q0 .0 -> s : .0
s 0 -> a : -
s 1 -> b : -
a 0 -> a : 0
a 1 -> e : 1 0
b 0 -> b : 0
b 1 -> e : 1 1
e 0 -> e : 0
e 1 -> e : 1
""")


def test_bound_error_names_the_state_and_the_pending_word():
    with pytest.raises(NotInvertible) as info:
        invert(_zeros_from_two_loops())
    message = str(info.value)
    head, _, where = message.partition(": '")
    assert BOUND.search(head)
    bound = int(head.rsplit(" ", 1)[1])
    word, _, state = where.partition("' at state ")
    assert word.split() == ["0"] * (bound + 1)
    named = minimize(_zeros_from_two_loops()).states
    assert state in {repr(q) for q in named}
    core = core_of(minimize(random_transducer(Alphabet(2, 1), 3, 3, 67)))
    with pytest.raises(NotInvertible,
                       match=r"exceeds bound 8: '0 1 0 1 0 1 0 1 0' at "
                             r"state 's\d+'$"):
        invert_core(core)


def test_invert_core_minimizes_only_its_input(monkeypatch):
    cube = balanced_powers(3)[2]
    seen = count_calls(monkeypatch, minimize_module, "minimize")
    invert_core(cube)
    # the reduction round trip minimized both products as well
    assert seen == [cube]


@pytest.mark.parametrize("name", ["compose", "canonical_form",
                                  "identity_transducer"])
def test_verified_invert_builds_no_product(monkeypatch, name):
    module = machine if name == "canonical_form" else algebra
    seen = count_calls(monkeypatch, module, name)
    for a in _fixture_initials():
        invert(a)
    # the reduction round trip made two compose calls, three
    # canonical_form calls and one identity_transducer call per inverse
    assert seen == []



def _random_rows(rng, size, n, missing):
    """Rows as _explore builds them: each letter an edge (letter,
    output, target row) or None, None with probability `missing`."""
    return [[None if rng.random() < missing
             else (y, (y,), rng.randrange(size)) for y in range(n)]
            for _ in range(size)]


def test_accepting_matches_the_worklist_pruning():
    rng = random.Random(1414)
    tables = [[]]
    for _ in range(400):
        size, n = rng.randint(1, 12), rng.choice([2, 3])
        tables.append(_random_rows(rng, size, n,
                                   rng.choice([0, 0.05, 0.2, 0.5])))
    # every row dead
    tables += [_random_rows(rng, 6, 2, 1), [[None, (1, (1,), 0)]] * 3]
    # two missing edges in one row
    tables.append([[None, None], [(0, (0,), 0), (1, (1,), 1)]])
    for rows in tables:
        assert _accepting(rows) == worklist_accepting(rows)
    # the cases seen: tables with no missing edge keep every row, tables
    # where every row has a missing edge keep none, and rows miss two
    complete = [rows for rows in tables if rows and all(map(all, rows))]
    dead = [rows for rows in tables if rows and not any(map(all, rows))]
    assert len(complete) > 50 and len(dead) > 10
    assert all(_accepting(rows) == list(range(len(rows)))
               for rows in complete)
    assert not any(_accepting(rows) for rows in dead)
    assert any(0 < len(_accepting(rows)) < len(rows) for rows in tables)
    assert any(row.count(None) >= 2 for rows in tables for row in rows)
