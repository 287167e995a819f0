"""invert_core's one construction, _inverse_from, run from one seed
without pruning and, when that refuses, from every seed with pruning.
The one seed is the configuration a seed's walk under 0 repeats at; its
closure is reduced and checked by the lag walk.  On every core both
runs give the same machine under the same names, or the same refusal,
and the one-seed run answers every invertible core.  Both runs match
the two-route construction they replaced (helpers.two_route_invert_core)
byte for byte.  The full run's refusals that no core in the corpus
reaches, configurations that do not synchronize and a failed lag walk,
are forced by monkeypatching, and is_bisynchronizing reads each as a
negative verdict."""

import random

import pytest

from cantrans import (
    Alphabet,
    NotInvertible,
    TransducerError,
    core_of,
    core_product,
    invert_core,
    is_bisynchronizing,
    minimize,
    serialize,
)
from cantrans import algebra, synchro
from cantrans.machine import _View
from cantrans.randgen import random_transducer

from helpers import balanced_powers, fixture_cores, random_synchronizing, \
    shuffled_relabel, two_route_invert_core, walked_zero_repeat_config


def _outcome(c, invert=invert_core):
    """What invert(c) gives: the machine's states, entry, transitions
    and document text, or the type and message of the error it
    raises."""
    try:
        m = invert(c)
    except TransducerError as e:
        return type(e), str(e)
    return m.states, m.initial, m.trans, serialize(m)


def _full_path_only(monkeypatch):
    monkeypatch.setattr(synchro, "_zero_repeat_config", lambda view: None)


def _record_runs(monkeypatch):
    """One (prune, answered) entry per _inverse_from run: whether the
    run pruned, and whether it gave an inverse rather than refusing."""
    runs = []
    real = synchro._inverse_from

    def recording(c, view, seeds, prune):
        try:
            d = real(c, view, seeds, prune)
        except NotInvertible:
            runs.append((prune, False))
            raise
        runs.append((prune, True))
        return d

    monkeypatch.setattr(synchro, "_inverse_from", recording)
    return runs


def _corpus():
    """Fixture cores, BALANCED_CORE_2 a^1 .. a^4, products of fixture
    cores with each other and with their inverses, cores of seeded random
    synchronizing machines, and shuffled relabels of all of them up to
    100 states."""
    fixtures = fixture_cores()
    inverses = [invert_core(c) for c in fixtures]
    cores = fixtures + balanced_powers(4)
    for a, a_inv in zip(fixtures, inverses):
        for b, b_inv in zip(fixtures, inverses):
            if a.n == b.n:
                cores += [core_product(a, b), core_product(a, b_inv),
                          core_product(a_inv, b)]
    for alphabet in (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2)):
        cores += [core_of(minimize(random_synchronizing(alphabet, 3, 2, seed)))
                  for seed in range(30)]
    rng = random.Random(1212)
    return cores + [shuffled_relabel(c, rng) for c in cores
                    if len(c.states) <= 100]


@pytest.fixture(scope="module")
def corpus_outcomes():
    """The corpus, what invert_core gives on each core with the one-seed
    run and with the full run forced, and the runs behind each answer of
    the first."""
    cores = _corpus()
    with pytest.MonkeyPatch.context() as patch:
        _full_path_only(patch)
        full = [_outcome(c) for c in cores]
    with pytest.MonkeyPatch.context() as patch:
        runs = _record_runs(patch)
        got, routes = [], []
        for c in cores:
            got.append(_outcome(c))
            routes.append(tuple(runs))
            runs.clear()
    return cores, got, full, routes


def test_one_seed_matches_the_full_exploration(corpus_outcomes):
    cores, got, want, routes = corpus_outcomes
    assert got == want
    inverses = [not isinstance(w[0], type) for w in want]
    # every inverse came from the one-seed run, and every refusal from
    # the full run, after a one-seed run that refused or none at all
    for ok, route in zip(inverses, routes):
        if ok:
            assert route == ((False, True),)
        else:
            assert route in {((False, False), (True, False)),
                             ((True, False),)}
    messages = {w[1].split(":")[1].split()[0] for w, ok in zip(want, inverses)
                if not ok}
    assert len(cores) == 274
    assert sum(inverses) > 100
    assert messages == {"pending", "no"}


def _as_bytes(o):
    """An _outcome with an inverse cut down to its document bytes."""
    return o if isinstance(o[0], type) else o[3]


def _oracle_outcome(c, one_seed):
    """_outcome of helpers.two_route_invert_core, as document bytes."""
    return _as_bytes(_outcome(c, lambda c: two_route_invert_core(c,
                                                                one_seed)))


def test_both_runs_match_the_two_route_construction(corpus_outcomes):
    """Inverses byte for byte and refusals by type and text, with the
    one-seed run and with the full run forced, and the seed walk's
    repeat, against the hand-written walk and worklist pruning."""
    cores, got, full, _ = corpus_outcomes
    assert [_as_bytes(o) for o in got] == \
        [_oracle_outcome(c, True) for c in cores]
    assert [_as_bytes(o) for o in full] == \
        [_oracle_outcome(c, False) for c in cores]
    for c in cores:
        view = _View(minimize(c))
        assert synchro._zero_repeat_config(view) == \
            walked_zero_repeat_config(view)


def _explorations(monkeypatch):
    """(prune, configurations kept) per _explore call from synchro, and
    one entry per _advance call inside _explore: each configuration
    built reads every digit once."""
    runs = []
    advances = []
    explore, advance = synchro._explore, algebra._advance

    def recording_explore(view, n, seeds, start_letters, prune):
        states, trans = explore(view, n, seeds, start_letters, prune)
        runs.append((prune, len(states)))
        return states, trans

    def counting_advance(*args):
        advances.append(args[2:])
        return advance(*args)

    monkeypatch.setattr(synchro, "_explore", recording_explore)
    monkeypatch.setattr(algebra, "_advance", counting_advance)
    return runs, advances


def test_one_seed_builds_only_the_core_of_the_cube(monkeypatch):
    cube = balanced_powers(3)[2]
    with monkeypatch.context() as patch:
        _full_path_only(patch)
        runs, advances = _explorations(patch)
        want = invert_core(cube)
    # every seed explored: 1565 configurations, pruned to 664
    assert runs == [(True, 664)]
    assert len(advances) == 2 * 1565
    runs, advances = _explorations(monkeypatch)
    got = invert_core(cube)
    assert runs == [(False, 664)]
    assert len(advances) == 2 * 664
    assert serialize(got) == serialize(want)


@pytest.mark.parametrize("alphabet, states, seed, bound", [
    (Alphabet(2, 1), 4, 10, 12),
    (Alphabet(3, 2), 2, 20, 6),
    (Alphabet(2, 1), 4, 30, 12),
])
def test_seed_walk_stops_at_the_bound(monkeypatch, alphabet, states, seed,
                                      bound):
    """On these cores a seed's walk under 0 never repeats: its pending
    word grows without end.  The walk gives up at the bound and the full
    exploration refuses the core as before."""
    core = core_of(minimize(random_transducer(alphabet, states, 2, seed)))
    assert walked_zero_repeat_config(_View(minimize(core))) is None
    with monkeypatch.context() as patch:
        _full_path_only(patch)
        want = _outcome(core)
    assert _as_bytes(want) == _oracle_outcome(core, False) == \
        _oracle_outcome(core, True)
    runs = _record_runs(monkeypatch)
    with pytest.raises(NotInvertible,
                       match=rf"pending word exceeds bound {bound}: '"):
        invert_core(core)
    assert runs == [(True, False)]
    assert _outcome(core) == want


def test_a_rejected_candidate_falls_back_to_the_full_refusal(monkeypatch):
    """A closure the lag walk rejects is never returned: the full run
    follows, meets the same rejection and refuses with its text."""
    walks = []

    def rejecting(a, b):
        walks.append((a, b))
        return False

    runs = _record_runs(monkeypatch)
    monkeypatch.setattr(synchro, "_product_is_identity", rejecting)
    with pytest.raises(NotInvertible, match="^round-trip verification "
                                            "failed: core products are not "
                                            "trivial$"):
        invert_core(fixture_cores()[1])
    assert runs == [(False, False), (True, False)]
    assert len(walks) == 2


def test_inverse_dynamics_that_do_not_synchronize_are_refused(monkeypatch):
    """The full run refuses a configuration machine that does not
    synchronize, and is_bisynchronizing reads the refusal as a negative
    verdict."""
    core = fixture_cores()[1]
    real = synchro.sync_level
    refused = []

    def configurations_never_synchronize(t):
        # configuration machines are named (state name, pending word)
        if isinstance(t.states[0], tuple):
            refused.append(t)
            return None
        return real(t)

    _full_path_only(monkeypatch)
    monkeypatch.setattr(synchro, "sync_level",
                        configurations_never_synchronize)
    with pytest.raises(NotInvertible,
                       match="^inverse dynamics do not synchronize$"):
        invert_core(core)
    assert is_bisynchronizing(core) == (False, None)
    assert len(refused) == 2


def test_inverse_whose_products_are_not_trivial_is_refused(monkeypatch):
    """The full run refuses an inverse that fails a lag walk, and
    is_bisynchronizing reads the refusal as a negative verdict."""
    core = fixture_cores()[1]
    walks = []

    def rejecting(a, b):
        walks.append((a, b))
        return False

    _full_path_only(monkeypatch)
    monkeypatch.setattr(synchro, "_product_is_identity", rejecting)
    with pytest.raises(NotInvertible, match="^round-trip verification "
                                            "failed: core products are not "
                                            "trivial$"):
        invert_core(core)
    assert is_bisynchronizing(core) == (False, None)
    assert len(walks) == 2
