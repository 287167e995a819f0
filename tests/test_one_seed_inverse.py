"""invert_core's one-seed shortcut: the closure of the configuration a
seed's walk under 0 repeats at, reduced and checked by the lag walk,
against the full exploration from every seed that it falls back to.  On
every core both give the same machine under the same names, or the
same refusal, and the shortcut answers every invertible core.  The full
path's refusals that no core in the corpus reaches, configurations that
do not synchronize and a failed lag walk, are forced by monkeypatching,
and is_bisynchronizing reads each as a negative verdict."""

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
from cantrans.randgen import random_transducer

from helpers import balanced_powers, fixture_cores, random_synchronizing, \
    shuffled_relabel


def _outcome(c):
    """What invert_core(c) gives: the machine's states, entry,
    transitions and document text, or the type and message of the error
    it raises."""
    try:
        m = invert_core(c)
    except TransducerError as e:
        return type(e), str(e)
    return m.states, m.initial, m.trans, serialize(m)


def _full_path_only(monkeypatch):
    monkeypatch.setattr(synchro, "_one_seed_inverse", lambda c: None)


def _record_one_seed(monkeypatch):
    """The shortcut's answers, one per call: an inverse core or None."""
    answers = []
    real = synchro._one_seed_inverse

    def recording(c):
        answers.append(real(c))
        return answers[-1]

    monkeypatch.setattr(synchro, "_one_seed_inverse", recording)
    return answers


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


def test_one_seed_matches_the_full_exploration(monkeypatch):
    cores = _corpus()
    with monkeypatch.context() as patch:
        _full_path_only(patch)
        want = [_outcome(c) for c in cores]
    answers = _record_one_seed(monkeypatch)
    got = [_outcome(c) for c in cores]
    assert got == want
    assert len(answers) == len(cores)
    inverses = [not isinstance(w[0], type) for w in want]
    # every inverse came from the shortcut, and every refusal from the
    # full path
    assert [a is not None for a in answers] == inverses
    messages = {w[1].split(":")[1].split()[0] for w, ok in zip(want, inverses)
                if not ok}
    assert sum(inverses) > 100
    assert messages == {"pending", "no"}


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
    with monkeypatch.context() as patch:
        _full_path_only(patch)
        want = _outcome(core)
    answers = _record_one_seed(monkeypatch)
    with pytest.raises(NotInvertible,
                       match=rf"pending word exceeds bound {bound}: '"):
        invert_core(core)
    assert answers == [None]
    assert _outcome(core) == want


def test_a_rejected_candidate_falls_back_to_the_full_refusal(monkeypatch):
    """A closure the lag walk rejects is never returned: the full path
    runs, meets the same rejection and refuses with its own text."""
    walks = []

    def rejecting(a, b):
        walks.append((a, b))
        return False

    answers = _record_one_seed(monkeypatch)
    monkeypatch.setattr(synchro, "_product_is_identity", rejecting)
    with pytest.raises(NotInvertible, match="^round-trip verification "
                                            "failed: core products are not "
                                            "trivial$"):
        invert_core(fixture_cores()[1])
    assert answers == [None]
    assert len(walks) == 2


def test_inverse_dynamics_that_do_not_synchronize_are_refused(monkeypatch):
    """The full path refuses a configuration machine that does not
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
    """The full path refuses an inverse that fails a lag walk, and
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
