"""invert_core's one construction, _inverse_from, run from one seed
without pruning and, when that refuses, from every seed with pruning.
The one seed is the set of runs that a seed's walk under 0 repeats at;
its closure is reduced into an inverse by construction, and every
inverse either run returns here passes the oracles of helpers.py in
both orders (helpers.checked_inverses: the lag walk and the reduction
round trip).  On every core both runs give the
same machine under the same names, or both refuse, and the one-seed run
answers every invertible core.  Both runs match the pending-word
exploration they replaced (helpers.pending_word_invert_core) byte for
byte, under the numbering from the state digit 0 fixes.  The refusals
that no core in the corpus reaches are forced by monkeypatching: a
one-seed run that refuses falls back to the full run, and a full run
whose machine of run sets does not synchronize is refused, which
is_bisynchronizing reads as a negative verdict."""

import random
import re

import pytest

from cantrans import (
    Alphabet,
    NotInjective,
    NotInvertible,
    TransducerError,
    core_of,
    core_product,
    invert_core,
    is_bisynchronizing,
    minimize,
    parse,
    serialize,
)
from cantrans import synchro
from cantrans.algebra import _RunSets
from cantrans.machine import _View
from cantrans.randgen import random_transducer

from helpers import balanced_powers, check_not_injective, \
    checked_inverses, fixture_cores, pending_word_invert_core, \
    pending_zero_repeat_config, random_synchronizing, shuffled_relabel


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
    monkeypatch.setattr(synchro, "_zero_repeat_config", lambda runs: None)


def _record_runs(monkeypatch):
    """One (prune, answered) entry per _inverse_from run: whether the
    run pruned, and whether it gave an inverse rather than refusing."""
    runs = []
    real = synchro._inverse_from

    def recording(c, sets, seeds, prune):
        try:
            d = real(c, sets, seeds, prune)
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
    the first, and how many inverses each of the two passes checked:
    every inverse _inverse_from returns on the way passes the oracles
    (helpers.checked_inverses)."""
    cores = _corpus()
    with pytest.MonkeyPatch.context() as patch:
        _full_path_only(patch)
        checked_full = checked_inverses(patch)
        full = [_outcome(c) for c in cores]
    with pytest.MonkeyPatch.context() as patch:
        runs = _record_runs(patch)
        checked_got = checked_inverses(patch)
        got, routes = [], []
        for c in cores:
            got.append(_outcome(c))
            routes.append(tuple(runs))
            runs.clear()
    return cores, got, full, routes, (len(checked_got), len(checked_full))


def _refused(o):
    return isinstance(o[0], type)


def test_one_seed_matches_the_full_exploration(corpus_outcomes):
    """The same inverses, and a refusal where the full run refuses: the
    one-seed run may refuse first, with NotInjective."""
    cores, got, want, routes, _ = corpus_outcomes
    inverses = [not _refused(w) for w in want]
    for g, w, ok in zip(got, want, inverses):
        if ok:
            assert g == w
        else:
            assert _refused(g) and issubclass(g[0], NotInvertible)
            assert g == w or g[0] is NotInjective
    # every inverse came from the one-seed run, and every refusal from
    # the full run, after a one-seed run that refused or none at all,
    # or from the one-seed run or its seed walk with NotInjective
    for g, ok, route in zip(got, inverses, routes):
        if ok:
            assert route == ((False, True),)
        elif g[0] is NotInjective and route in {(), ((False, False),)}:
            continue
        else:
            assert route in {((False, False), (True, False)),
                             ((True, False),)}
    messages = {w[1].split(":")[1].split()[0] for w, ok in zip(want, inverses)
                if not ok}
    assert len(cores) == 274
    assert sum(inverses) > 100
    assert messages == {"pending", "no", "not"}
    assert {w[0] for w, ok in zip(want, inverses) if not ok} == \
        {NotInvertible, NotInjective}


def _oracle_outcome(c, one_seed):
    """helpers.pending_word_invert_core(c, one_seed): its inverse as
    document bytes, or the error it raises."""
    try:
        return serialize(pending_word_invert_core(c, one_seed))
    except TransducerError as e:
        return e


def _same_verdict(c, outcome, oracle):
    """An inverse byte for byte the oracle's, or a refusal where the
    oracle refuses (NotInjective where it may run on, its certificate
    walked again)."""
    if not _refused(outcome):
        assert outcome[3] == oracle
        return
    assert isinstance(oracle, NotInvertible)
    if outcome[0] is NotInjective:
        with pytest.raises(NotInjective) as error:
            invert_core(c)
        check_not_injective(c, error.value)
    else:
        assert outcome[0] is type(oracle)


def test_both_runs_match_the_two_route_construction(corpus_outcomes):
    """Inverses byte for byte and refusals by verdict, with the one-seed
    run and with the full run forced, against the pending-word
    exploration with its seed walk and without."""
    cores, got, full, _, _ = corpus_outcomes
    for c, g, f in zip(cores, got, full):
        _same_verdict(c, g, _oracle_outcome(c, True))
        with pytest.MonkeyPatch.context() as patch:
            _full_path_only(patch)
            _same_verdict(c, f, _oracle_outcome(c, False))


def _explorations(monkeypatch):
    """(prune, nodes explored) per _explore call from synchro, the nodes
    kept by each pruning, and one entry per step of a node by a letter,
    in the seed walk or the exploration."""
    runs, kept, steps = [], [], []
    explore, accepting = synchro._explore, synchro._accepting
    step = _RunSets.step

    def recording_explore(sets, seeds, first_letters, n, prune):
        view = explore(sets, seeds, first_letters, n, prune)
        runs.append((prune, len(view.states)))
        return view

    def recording_accepting(targets):
        keep = accepting(targets)
        kept.append(len(keep))
        return keep

    def counting_step(self, k, y):
        steps.append((k, y))
        return step(self, k, y)

    monkeypatch.setattr(synchro, "_explore", recording_explore)
    monkeypatch.setattr(synchro, "_accepting", recording_accepting)
    monkeypatch.setattr(_RunSets, "step", counting_step)
    return runs, kept, steps


def test_one_seed_builds_only_the_core_of_the_cube(monkeypatch):
    cube = balanced_powers(3)[2]
    with monkeypatch.context() as patch:
        _full_path_only(patch)
        runs, kept, steps = _explorations(patch)
        want = invert_core(cube)
    # every seed explored: 667 sets of runs, pruned to the 131 of the
    # core; the pending-word exploration built 1565 configurations,
    # pruned to 664
    assert runs == [(True, 667)]
    assert kept == [131]
    assert len(steps) == 2 * 667
    runs, kept, steps = _explorations(monkeypatch)
    got = invert_core(cube)
    # the seed walk takes 30 steps (to 26 sets outside the closure) and
    # the closure 2 per set, where the pending-word closure had 664
    # configurations and 2 * 664 steps
    assert runs == [(False, 131)]
    assert kept == []
    assert len(steps) == 30 + 2 * 131
    assert serialize(got) == serialize(want)


def _two_loops_core():
    """A core on C_3 whose state is its last letter (level 1): from a,
    reading 0 into b and 1 into c both write 0, and b on 0 and c on 1
    write 0 again.  Reading 0s from a, the two runs never meet at one
    output position, so the pending word grows past the bound; the map
    is not injective, as 0 2 and 1 2 both write 0 2 from a back to a."""
    return parse("""\
cantor-transducer 1
alphabet n=3 core
a 0 -> b : 0
a 1 -> c : 0
a 2 -> a : 2
b 0 -> b : 0
b 1 -> c : 1
b 2 -> a : 2
c 0 -> b : 1
c 1 -> c : 0
c 2 -> a : 2
""")


@pytest.mark.parametrize("alphabet, states, seed, bound", [
    (Alphabet(2, 1), 4, 10, 12),
    (Alphabet(3, 2), 2, 20, 6),
    (Alphabet(2, 1), 4, 30, 12),
])
def test_seed_walk_stops_at_the_bound(monkeypatch, alphabet, states, seed,
                                      bound):
    """On these cores the pending-word walk under 0 never repeats: its
    pending word grows until the bound, and the exploration refuses
    there.  The walk on run sets meets two runs at one position first,
    and refuses the core as not injective, with no exploration."""
    core = minimize(core_of(minimize(random_transducer(alphabet, states, 2,
                                                       seed))))
    view = _View(core)
    assert pending_zero_repeat_config(view) is None
    want = _oracle_outcome(core, False)
    assert isinstance(want, NotInvertible)
    assert f"pending word exceeds bound {bound}: '" in str(want)
    runs = _record_runs(monkeypatch)
    with pytest.raises(NotInjective) as error:
        synchro._zero_repeat_config(_RunSets(view))
    check_not_injective(core, error.value)
    with pytest.raises(NotInjective, match=re.escape(str(error.value))):
        invert_core(core)
    assert runs == []


def test_seed_walk_stops_at_the_bound_without_a_clash(monkeypatch):
    """The seed walk gives up at the bound, as the pending-word walk did,
    and the full exploration refuses the core."""
    core = minimize(_two_loops_core())
    view = _View(core)
    assert pending_zero_repeat_config(view) is None
    sets = _RunSets(view)
    assert synchro._zero_repeat_config(sets) is None
    assert max(len(u) for _, u in sets.reps) == sets.bound + 1 == 7
    runs = _record_runs(monkeypatch)
    with pytest.raises(NotInjective) as error:
        invert_core(core)
    assert runs == [(True, False)]
    check_not_injective(core, error.value)
    assert error.value.words == ((0, 2), (1, 2))
    assert isinstance(_oracle_outcome(core, True), NotInvertible)


def test_a_refused_candidate_falls_back_to_the_full_run(monkeypatch):
    """A one-seed closure that refuses is never returned: the full run
    follows and answers, with the inverse the one-seed run gives
    unforced, which passes the oracles."""
    core = fixture_cores()[1]
    want = _outcome(core)
    real = synchro._collapse
    refused = []

    def one_seed_never_synchronizes(view):
        # the one-seed machine of run sets is the first one collapsed
        tracked, cls, level = real(view)
        if isinstance(view.states[0], tuple) and not refused:
            refused.append(view)
            return tracked, cls, None
        return tracked, cls, level

    runs = _record_runs(monkeypatch)
    checked = checked_inverses(monkeypatch)
    monkeypatch.setattr(synchro, "_collapse", one_seed_never_synchronizes)
    assert _outcome(core) == want
    assert runs == [(False, False), (True, True)]
    assert len(refused) == 1 and len(checked) == 1


def test_inverse_dynamics_that_do_not_synchronize_are_refused(monkeypatch):
    """The full run refuses a machine of run sets that does not
    synchronize, and is_bisynchronizing reads the refusal as a negative
    verdict."""
    core = fixture_cores()[1]
    real = synchro._collapse
    refused = []

    def configurations_never_synchronize(view):
        # machines of run sets are named by their configurations
        # (state name, pending word)
        tracked, cls, level = real(view)
        if isinstance(view.states[0], tuple):
            refused.append(view)
            return tracked, cls, None
        return tracked, cls, level

    _full_path_only(monkeypatch)
    monkeypatch.setattr(synchro, "_collapse",
                        configurations_never_synchronize)
    with pytest.raises(NotInvertible,
                       match="^inverse dynamics do not synchronize$"):
        invert_core(core)
    assert is_bisynchronizing(core) == (False, None)
    assert len(refused) == 2


def test_every_inverse_of_the_corpus_passes_the_oracles(corpus_outcomes):
    """Each inverse invert_core returns on the corpus, from the one-seed
    run and from the full run forced, was checked by the oracles in both
    orders as _inverse_from returned it, and no run returned one that
    invert_core then dropped."""
    _, got, full, _, (checked_got, checked_full) = corpus_outcomes
    assert checked_got == sum(not _refused(g) for g in got)
    assert checked_full == sum(not _refused(f) for f in full)
    assert checked_got > 100
