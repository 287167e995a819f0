"""Core extraction from the walk under 0, and the name-keyed breadth-first
walk that reachable and pre_root_states share.

_core_at takes the forward closure of the first state that the walk
under 0 from the first tracked state meets twice.  On every machine
that synchronizes, it equals the level-driven extraction it replaced
(helpers.level_core_at), which reads `steps` zeros and shortcuts the walk
by cycle arithmetic: the same states tuple and the same transitions, at
the machine's own level and at a larger one.  It is built on rows, and
its states tuple and its table list the states in str order of their
names, whatever the string hashing of the process: the order of the
oracle's table, a set's order, is not.
reachable and pre_root_states equal the queue-driven walks they
replaced (helpers.queue_reachable, helpers.queue_pre_root_states) on
valid machines, and refuse a table that is not one (missing
transitions, say) with its violations, as every reader does."""

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
    NotSynchronizing,
    Transducer,
    core_of,
    core_product,
    fixtures,
    invert_core,
    minimize,
    sync_level,
)
from cantrans import synchro
from cantrans.randgen import random_gnr_element, random_transducer
from cantrans.machine import _view_of
from cantrans.synchro import _core_at

from helpers import balanced_powers, empty_output_chain, fixture_cores, \
    letter_loop_validate, level_core_at, multi_core_bisync, \
    queue_pre_root_states, queue_reachable, random_synchronizing, \
    view_machine


def _same_core(t):
    """_core_at against level_core_at at t's level and past it, with
    one state that 0 fixes, and its states and table in str order."""
    level = sync_level(t)
    assert level is not None
    got = _core_at(t, _view_of(t))
    for steps in (level, 2 * level + 3):
        want = level_core_at(t, steps)
        assert got.states == want.states
        assert got.trans == want.trans
        assert (got.n, got.r, got.mode, got.initial) == \
            (want.n, want.r, want.mode, want.initial)
    fixed = [q for q in got.states if got.step(q, 0)[1] == q]
    assert len(fixed) == 1
    assert got._rows is not None
    assert list(got.states) == sorted(got.states, key=str)
    assert list(got.trans) == [(q, x) for q in got.states
                               for x in range(got.n)]
    return got


def _powers(core, top):
    powers = [core]
    while len(powers) < top:
        powers.append(core_product(powers[-1], core))
    return powers


def test_core_at_matches_level_core_at_on_fixture_powers():
    machines = balanced_powers(5)
    machines += _powers(minimize(fixtures.unbalanced_core_3()), 8)
    sizes = [len(_same_core(t).states) for t in machines]
    assert sizes[:5] == [10, 34, 103, 300, 859]


def test_core_at_matches_level_core_at_on_random_machines():
    machines = []
    for seed in range(12):
        t = multi_core_bisync(seed)
        machines += [t, minimize(t)]
    for alphabet in (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2)):
        for seed in range(30):
            t = minimize(random_synchronizing(alphabet, 3, 2, 1300 + seed))
            machines += [t, core_of(t)]
    modes = {t.mode for t in machines}
    assert modes == {INITIAL, CORE}
    cores = [_same_core(t) for t in machines]
    assert max(len(c.states) for c in cores) > 1


def test_core_at_matches_level_core_at_on_long_chains():
    chain = empty_output_chain(False)
    core = _same_core(chain)
    assert core.states == ("e",)
    # the ring permutes its states under 0: it has no level and no core
    ring = empty_output_chain(True)
    assert sync_level(ring) is None
    with pytest.raises(NotSynchronizing):
        core_of(ring)


def test_core_at_matches_level_core_at_on_configuration_machines(
        monkeypatch):
    """The machines of run sets that invert_core's full route checks for
    synchronization, named by their configurations."""
    subs = []
    real = synchro._collapse

    def recording(view):
        if isinstance(view.states[0], tuple):
            subs.append(view_machine(view, view.letters[0][-1] + 1))
        return real(view)

    cores = fixture_cores() + balanced_powers(3)
    monkeypatch.setattr(synchro, "_zero_repeat_config", lambda runs: None)
    monkeypatch.setattr(synchro, "_collapse", recording)
    for c in cores:
        invert_core(c)
    monkeypatch.undo()
    assert len(subs) == len(cores)
    for t in subs:
        _same_core(t)


# a six-state core synchronizing at level 4, three of whose outputs
# write the digit 5, out of range for n = 2
SIX_STATES = {
    ("a", 0): ((0,), "e"), ("a", 1): ((5,), "a"),
    ("b", 0): ((0,), "f"), ("b", 1): ((1,), "a"),
    ("c", 0): ((1,), "f"), ("c", 1): ((1,), "a"),
    ("d", 0): ((5,), "d"), ("d", 1): ((1,), "b"),
    ("e", 0): ((0,), "f"), ("e", 1): ((0,), "c"),
    ("f", 0): ((5,), "d"), ("f", 1): ((0,), "b"),
}


def test_core_of_words_its_refusal_the_same_under_every_hash_seed():
    """core_of refuses the invalid machine at the gate with its
    violations, which name the bad outputs in table order, the same
    whatever the string hashing."""
    t = Transducer(2, None, CORE, list("abcdef"), None, SIX_STATES)
    script = (
        "from cantrans import CORE, InvalidTransducer, Transducer, core_of\n"
        "from test_core_walks import SIX_STATES\n"
        "try:\n"
        "    core_of(Transducer(2, None, CORE, list('abcdef'), None,\n"
        "                       SIX_STATES))\n"
        "except InvalidTransducer as e:\n"
        "    print(e)\n")
    path = os.pathsep.join([os.path.dirname(__file__), *sys.path])
    messages = set()
    for seed in "123":
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        messages.add(run.stdout)
    with pytest.raises(InvalidTransducer) as err:
        core_of(t)
    assert messages == {f"{err.value}\n"}
    assert str(err.value) == "; ".join(letter_loop_validate(t))
    assert str(err.value).count("uses digit 5 out of range") == 3
    with pytest.raises(InvalidTransducer) as again:
        sync_level(t)
    assert str(again.value) == str(err.value)


def _random_table(rng):
    """A machine on an arbitrary table: outputs of up to two letters,
    root letters and empty words included, targets anywhere, some
    transitions missing, and sometimes a state with none at all."""
    n, r = rng.choice([(2, 1), (3, 2)])
    mode = rng.choice([INITIAL, CORE])
    names = [f"s{i}" for i in range(rng.randint(1, 9))]
    if mode == INITIAL:
        names = ["q0"] + names
    silent = rng.choice(names)
    letters = range(-r if mode == INITIAL else 0, n)
    trans = {}
    for q in names:
        for x in letters:
            if q == silent or rng.random() < 0.25:
                continue
            word = tuple(rng.choice(letters)
                         for _ in range(rng.choice([0, 0, 1, 2])))
            trans[(q, x)] = (word, rng.choice(names))
    initial = "q0" if mode == INITIAL else rng.choice([None, *names])
    return Transducer(n, r, mode, names, initial, trans), silent


def test_reachable_and_pre_root_states_match_the_queue_walks():
    rng = random.Random(1313)
    machines = [random_transducer(Alphabet(3, 2), 6, 2, seed)
                for seed in range(40)]
    # prefix-exchange maps, whose entries write nothing at first
    machines += [random_gnr_element(Alphabet(3, 2), seed)
                 for seed in range(40)]
    for seed in range(2):
        t = random_transducer(Alphabet(2, 1), 5, 2, seed)
        trans = dict(t.trans)
        for key in rng.sample(sorted(trans, key=str), 3):
            del trans[key]
        machines.append(Transducer(t.n, t.r, t.mode, t.states, t.initial,
                                   trans))
    silent = []
    for _ in range(300):
        t, q = _random_table(rng)
        machines.append(t)
        silent.append((t, q))
    pre_roots = refused = 0
    for t in machines:
        starts = list(t.states) + ([None] if t.initial is not None else [])
        bad = letter_loop_validate(t)
        if bad:
            for q in starts:
                with pytest.raises(InvalidTransducer) as err:
                    t.reachable(q)
                assert str(err.value) == "; ".join(bad)
            with pytest.raises(InvalidTransducer) as err:
                t.pre_root_states()
            assert str(err.value) == "; ".join(bad)
            refused += 1
            continue
        for q in starts:
            assert t.reachable(q) == queue_reachable(t, q)
        assert t.pre_root_states() == queue_pre_root_states(t)
        pre_roots += len(t.pre_root_states()) > 1
    assert pre_roots > 20
    assert refused >= 300
    # a state with no transitions is no state of a valid machine
    assert all(letter_loop_validate(t) for t, _ in silent)
