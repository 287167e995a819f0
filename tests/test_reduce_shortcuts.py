"""The reduction's shortcuts against the three steps run one after
another (helpers.three_step_minimize) and the full-pass guaranteed
output (helpers.full_pass_guaranteed_output).

minimize numbers an initial-mode result whose partition is discrete in
the breadth-first order of its reachability walk, mapped through the cut
when some states are unreachable, and walks the quotient again only
when states merge; the merge ends at a round 1 that is already discrete;
the guaranteed output's first pass skips the rows that hold the empty
word, and its pass cap is computed only once |Q| passes have run.  Each
kind of machine below takes one of those paths, and each test counts
that it did."""

import importlib
import random

import pytest

from cantrans import (
    Alphabet,
    INITIAL,
    Transducer,
    TransducerError,
    UnboundedOutput,
    canonical_form,
    guaranteed_output,
    minimize,
    serialize,
    validate,
)
from cantrans.machine import _View, _numbered, _refine
from cantrans.randgen import random_transducer

from helpers import full_pass_guaranteed_output, queue_reachable, \
    rank_until_stable_refine, three_step_minimize

reduction = importlib.import_module("cantrans.minimize")

ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 1))


def outcome(f, *args):
    """f(*args), or the type and message of the cantrans error it
    raises."""
    try:
        return f(*args)
    except TransducerError as e:
        return type(e), str(e)


def _same_reduction(t):
    got, want = minimize(t), three_step_minimize(t)
    assert serialize(got) == serialize(want)
    assert got.states == want.states
    assert canonical_form(got) == canonical_form(want)
    return got


def _bfs_calls(monkeypatch):
    """Record each breadth-first walk the reduction starts."""
    calls = []
    real = reduction._bfs

    def counting(targets, *starts):
        calls.append(starts)
        return real(targets, *starts)

    monkeypatch.setattr(reduction, "_bfs", counting)
    return calls


def with_unreachable(t, rng):
    """t with two to four states no run from the entry reaches, placed
    at random in the state order, each writing digits into t's post-root
    states or an unreachable state placed before it."""
    post = [q for q in t.states if q not in t.pre_root_states()]
    states, trans = list(t.states), dict(t.trans)
    for k in range(rng.randint(2, 4)):
        q = f"u{k}"
        for d in range(t.n):
            out = tuple(rng.randrange(t.n) for _ in range(rng.randrange(3)))
            trans[(q, d)] = (out, rng.choice(post))
        post.append(q)
        states.insert(rng.randrange(len(states) + 1), q)
    return Transducer(t.n, t.r, INITIAL, states, t.initial, trans)


def doubled(t, rng):
    """t with every state but the entry split in two copies, each
    transition landing on a random copy of its target: every copy has an
    equivalent twin, so the partition is not discrete."""
    def copy(q):
        return q if q == t.initial else q + rng.choice("ab")

    states = [t.initial] + [q + c for q in t.states if q != t.initial
                            for c in "ab"]
    trans = {}
    for (q, x), (w, tgt) in t.trans.items():
        for c in ("",) if q == t.initial else "ab":
            trans[(q + c, x)] = (w, copy(tgt))
    return Transducer(t.n, t.r, INITIAL, states, t.initial, trans)


def _random_initial(count, seed):
    rng = random.Random(seed)
    return [random_transducer(ALPHABETS[i % len(ALPHABETS)],
                              1 + rng.randrange(6), 2, seed + i)
            for i in range(count)]


def test_unreachable_states_number_by_the_mapped_walk(monkeypatch):
    """A machine with unreachable states is cut to the reachable ones,
    and the walk's order, mapped through the cut's positions, numbers a
    result whose partition is discrete: one walk per reduction."""
    rng = random.Random(3100)
    calls = _bfs_calls(monkeypatch)
    discrete = 0
    for t in _random_initial(300, 31_000):
        u = with_unreachable(t, rng)
        assert validate(u) == []
        assert len(queue_reachable(u)) < len(u.states)
        del calls[:]
        m = _same_reduction(u)
        if len(m.states) == len(queue_reachable(u)):
            assert len(calls) == 1
            discrete += 1
    assert discrete >= 100


def test_merged_states_walk_the_quotient_again(monkeypatch):
    """A partition that is not discrete falls back to a walk of the
    quotient from its entry, with or without unreachable states."""
    rng = random.Random(3200)
    calls = _bfs_calls(monkeypatch)
    merged = 0
    for i, t in enumerate(_random_initial(200, 32_000)):
        d = doubled(t, rng)
        if i % 2:
            d = with_unreachable(d, rng)
        assert validate(d) == []
        del calls[:]
        m = _same_reduction(d)
        walks = 1 + (len(m.states) < len(queue_reachable(d)))
        assert len(calls) == walks
        merged += walks == 2
    assert merged >= 150


def test_seed_colour_alone_keeps_the_entry_apart():
    """On rows where the entry reads as many letters as every other state
    (r == n, which Alphabet refuses, so the machine is built on rows as
    the kernels see it) and a pre-root state writes the entry's output
    row, only the entry's seed colour tells the two apart in round 1:
    round 1 is discrete with it, and merges the two without it."""
    names = ("q0", "p", "p2", "e")
    outs = [((), (-2,)), ((), (-2,)), ((-1,), (-2,)), ((0,), (1,))]
    targets = [(1, 3), (2, 3), (3, 3), (3, 3)]
    letters = [(-1, -2), (0, 1), (0, 1), (0, 1)]
    view = _View._of_rows(names, letters, outs, targets, 0)
    seed = [1, 0, 0, 0]
    assert _refine(view, seed, ranked=False) == range(4)
    assert len(set(rank_until_stable_refine(view, seed))) == 4
    assert _numbered(list(zip([0] * 4, outs)), False)[1] == 3
    t = Transducer._of_rows(2, 2, INITIAL, "q0", view, None)
    m = reduction._reduce(t)
    assert m.states == ("s0", "s1", "s3", "s2")
    assert m._rows.outs == outs
    assert m._rows.targets == targets


def mixed_rows(alphabet, states, seed):
    """A random initial-mode machine whose digit rows each hold the empty
    word, owe a prefix (one random prefix, then distinct letters), or
    write random words; valid or not (validate sorts them)."""
    rng = random.Random(seed)
    n = alphabet.n
    names = [f"m{i}" for i in range(states)]
    trans = {("q0", -(k + 1)): ((-(k + 1),), rng.choice(names))
             for k in range(alphabet.r)}
    for q in names:
        kind = rng.randrange(3)
        prefix = tuple(rng.randrange(n) for _ in range(1 + rng.randrange(2)))
        for d in range(n):
            word = tuple(rng.randrange(n) for _ in range(rng.randrange(3)))
            if kind == 0 and d == 0:
                word = ()
            elif kind == 1:
                word = prefix + (d,)
            trans[(q, d)] = (word, rng.choice(names))
    return Transducer(n, alphabet.r, INITIAL, ["q0", *names], "q0", trans)


def slow_fixpoint(length, bounded=True):
    """Four states whose guaranteed output takes more than |Q| passes: s
    writes 0 on 0 and stays, and goes on 1 with empty output to t, which
    writes 0^length.  Bounded, t then writes 1 and a letter, so s's
    value grows by one 0 a pass up to 0^length; unbounded, t returns to
    s, every run writes 0s alone, and the cap is reached."""
    lead = (0,) * length + ((1,) if bounded else ())
    back = "e" if bounded else "s"
    trans = {("q0", -1): ((-1,), "s"),
             ("s", 0): ((0,), "s"), ("s", 1): ((), "t"),
             ("t", 0): (lead + (0,) * bounded, back),
             ("t", 1): (lead + (1,) * bounded, back),
             ("e", 0): ((0,), "e"), ("e", 1): ((1,), "e")}
    return Transducer(2, 1, INITIAL, ["q0", "s", "t", "e"], "q0", trans)


@pytest.mark.parametrize("length", [4, 5, 9])
def test_fixpoint_past_q_passes_is_bounded_alike(length):
    t = slow_fixpoint(length)
    v = guaranteed_output(t)
    assert v == full_pass_guaranteed_output(t)
    assert v["s"] == (0,) * length
    _same_reduction(t)


@pytest.mark.parametrize("length", [1, 2, 6])
def test_unbounded_past_the_cap_is_refused_alike(length):
    t = slow_fixpoint(length, bounded=False)
    got = outcome(guaranteed_output, t)
    assert got[0] is UnboundedOutput
    assert got == outcome(full_pass_guaranteed_output, t)
    assert outcome(minimize, t) == outcome(three_step_minimize, t) == got


def test_rows_with_the_empty_word_beside_owing_rows():
    """The first pass skips rows holding the empty word and takes the
    LCP of the others; values, reductions and refusals match the
    full-pass oracle."""
    seen = {"valid": 0, "owing": 0, "unbounded": 0}
    for i in range(900):
        alphabet = ALPHABETS[i % len(ALPHABETS)]
        t = mixed_rows(alphabet, 1 + i % 5, 33_000 + i)
        if validate(t):
            continue
        seen["valid"] += 1
        got = outcome(guaranteed_output, t)
        assert got == outcome(full_pass_guaranteed_output, t)
        if type(got) is tuple:
            assert got[0] is UnboundedOutput
            assert outcome(minimize, t) == outcome(three_step_minimize, t)
            seen["unbounded"] += 1
            continue
        _same_reduction(t)
        seen["owing"] += any(w for q, w in got.items() if q != "q0")
    assert seen["valid"] >= 300
    assert seen["owing"] >= 200
    assert seen["unbounded"] >= 5
