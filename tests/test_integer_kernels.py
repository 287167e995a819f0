"""The integer kernels against the dict-based code they replaced, kept in
helpers.py as oracles: the column-built view against the letter loop,
minimize against the three steps run one after another, the worklist
guaranteed output against the full-pass loop, the merge's hashed
partition and the core form's ranks against the sorted refinement run to
a stable count, the core canonical form against the breadth-first walk
from the one state digit 0 fixes or, on other cores, the refinement on
(name, letter) keys, the column-wise collapse against the row-keyed one
and against the one that relabelled every state each round, eval_point
against one run_word call per pump, and run_word against one
Transducer.step call per letter.  The corpus holds random machines,
fixtures, raw products, the 3000-state empty-output chains and
bi-synchronizing maps with multi-state cores.  minimize's bytes on the
chains, the powers of BALANCED_CORE_2 and the whole corpus are pinned
by digest."""

import hashlib
import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    EventuallyPeriodicPoint,
    INITIAL,
    InvalidTransducer,
    Transducer,
    TransducerError,
    UnboundedOutput,
    canonical_form,
    core_of,
    core_product,
    eval_point,
    guaranteed_output,
    merge_equivalent_states,
    minimize,
    parse,
    remove_incomplete_response,
    run_word,
    serialize,
    validate,
    witness_pair,
)
from cantrans import fixtures
from cantrans.randgen import random_gnr_element, random_transducer
from cantrans.machine import _View, _refine, _view_of
from cantrans.minimize import _complete_responses
from cantrans.synchro import _collapse

from helpers import _tracked_states, dict_initial_form, \
    dict_merge_equivalent_states, dict_remove_incomplete_response, \
    duplicated_states, empty_output_chain, full_pass_guaranteed_output, \
    letter_loop_validate, letter_loop_view, letter_step_run_word, \
    multi_core_bisync, non_synchronizing_core, one_zero_fixed_cores, \
    pair_core, pump_loop_eval_point, random_points, \
    rank_until_stable_refine, \
    round_remap_collapse, row_collapse, shuffled_relabel, \
    sorted_signature_core_form, strongly_connected, three_step_minimize, \
    unreduced_compose, view_machine, zero_root_core_form

ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 1))


def pair_machine(a, b):
    """The named pair core of two cores, built by the core product's
    integer kernel."""
    return view_machine(pair_core(a, b), a.n)


def outcome(f, *args):
    """f(*args), or the type and message of the cantrans error it
    raises."""
    try:
        return f(*args)
    except TransducerError as e:
        return type(e), str(e)


def unbounded_machines(count, seed):
    """Valid random machines over C_{2,1} whose guaranteed output is
    unbounded (random_transducer rejects these)."""
    found = []
    rng = random.Random(seed)
    while len(found) < count:
        names = [f"m{i}" for i in range(rng.randint(1, 3))]
        trans = {("q0", -1): ((-1,) + (0,) * rng.randrange(2),
                              rng.choice(names))}
        for q in names:
            for d in range(2):
                trans[(q, d)] = (tuple(rng.randrange(2) for _ in
                                       range(rng.randrange(3))),
                                 rng.choice(names))
        t = Transducer(2, 1, INITIAL, ["q0", *names], "q0", trans)
        if validate(t):
            continue
        try:
            full_pass_guaranteed_output(t)
        except UnboundedOutput:
            found.append(t)
    return found


@pytest.fixture(scope="module")
def random_machines():
    machines = []
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(600):
            machines.append(random_transducer(alphabet, 1 + i % 5, 2,
                                              52_000 + 1_000 * k + i))
        for i in range(150):
            machines.append(random_gnr_element(alphabet,
                                               57_000 + 1_000 * k + i))
    return machines


@pytest.fixture(scope="module")
def balanced_powers():
    a = minimize(fixtures.balanced_core_2())
    powers = [a]
    for _ in range(3):
        powers.append(core_product(powers[-1], a))
    return powers


@pytest.fixture(scope="module")
def multi_cores():
    """Bi-synchronizing maps with multi-state cores, and those cores."""
    maps = [multi_core_bisync(75_000 + seed) for seed in range(30)]
    cores = [core_of(minimize(t)) for t in maps]
    assert {len(c.states) for c in cores} == {2, 3, 4, 10, 34}
    return maps, cores


@pytest.fixture(scope="module")
def corpus(random_machines, balanced_powers, multi_cores):
    machines = list(random_machines)
    machines += multi_cores[0] + multi_cores[1]
    machines += [parse(text) for text in fixtures.ALL.values()]
    machines += balanced_powers
    raw = 0
    for a, b in zip(random_machines[::50], random_machines[1::50]):
        if (a.n, a.r) == (b.n, b.r):
            try:
                machines.append(unreduced_compose(a, b))
                raw += 1
            except TransducerError:
                pass
    assert raw >= 50
    a = balanced_powers[0]
    products = [pair_machine(p, a) for p in balanced_powers[:3]]
    cores = [minimize(c) for c in (fixtures.torsion_core_2(),
                                   fixtures.synchronous_core_3(),
                                   fixtures.unbalanced_core_3())]
    products += [pair_machine(x, y) for x in cores for y in cores
                 if x.n == y.n]
    chain = empty_output_chain(True)
    # cores whose state order is not their name order
    rng = random.Random(63)
    shuffled = [shuffled_relabel(c, rng) for c in
                balanced_powers + products + [chain] for _ in range(2)]
    return machines + products + shuffled + \
        [empty_output_chain(False), chain]


def _same_machine(got, want):
    assert serialize(got) == serialize(want)
    assert got.states == want.states
    assert got.initial == want.initial
    assert got.trans == want.trans


def test_minimize_matches_three_step_pipeline(corpus):
    assert len(corpus) >= 3000
    for t in corpus:
        _same_machine(minimize(t), three_step_minimize(t))


def _closed_state_lists(t):
    """State lists closed under transitions, in state order: all states,
    the reachable ones (with the entry of an initial-mode machine) and
    the tracked ones (without it)."""
    lists = [t.states]
    if t.mode == INITIAL:
        keep = t.reachable()
        lists.append([q for q in t.states if q in keep])
    lists.append(_tracked_states(t))
    return lists


def _view_of_states(t, states):
    """The library's view of `states` (all of t's states for None): the
    view of the whole table, cut to them."""
    view = _View(t)
    if states is None:
        return view
    return view._cut(list(map(view.index.__getitem__, states)))


def _same_view(got, want):
    assert got.states == want.states
    assert got.index == want.index
    assert got.letters == want.letters
    assert list(map(tuple, got.outs)) == list(map(tuple, want.outs))
    assert list(map(tuple, got.targets)) == list(map(tuple, want.targets))


def test_view_matches_letter_loop_view(corpus):
    without_entry = 0
    for t in corpus:
        for states in _closed_state_lists(t):
            _same_view(_view_of_states(t, states),
                       letter_loop_view(t, states))
            without_entry += t.mode == INITIAL and t.initial not in states
    assert without_entry >= 2000


def _broken_tables(t, rng):
    """Copies of t whose view cannot be built, one transition removed:
    anywhere, and at a state with a transition that leaves it."""
    trans = dict(t.trans)
    del trans[rng.choice(list(trans))]
    gap = Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)
    edges = [kv for kv in t.trans.items()
             if kv[0][0] not in (kv[1][1], t.initial)]
    if not edges:  # every digit transition is a loop
        return [gap]
    (q, x), _ = rng.choice(edges)
    trans = dict(t.trans)
    del trans[(q, rng.choice([y for y in range(t.n) if y != x]))]
    return [gap, Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)]


def test_broken_tables_are_refused_at_the_gate(random_machines,
                                               multi_cores):
    """A table with a transition missing has no view: _view_of, the gate
    every kernel reads through, refuses it with the violations the
    letter loop words, and _View, which only validate builds from a
    table, raises KeyError."""
    rng = random.Random(808)
    machines = random_machines[::7] + multi_cores[0] + \
        [empty_output_chain(False), empty_output_chain(True)]
    refused = 0
    for t in machines:
        for broken in _broken_tables(t, rng):
            bad = letter_loop_validate(broken)
            assert bad[0].startswith("incomplete transition table: missing")
            assert outcome(_view_of, broken) == \
                (InvalidTransducer, "; ".join(bad))
            with pytest.raises(KeyError):
                _View(broken)
            assert broken._rows is None
            refused += 1
    assert refused >= 800


def test_refine_matches_sorted_rounds(corpus, multi_cores):
    """The merge's hashed partition and the ranked colours, both cut
    short at a discrete partition, against ranking to a stable count."""
    rng = random.Random(909)
    doubled = [duplicated_states(c, rng) for c in multi_cores[1]]
    merged = 0
    for t in corpus + doubled:
        kept = _closed_state_lists(t)[1] if t.mode == INITIAL else None
        view = _complete_responses(_view_of_states(t, kept))
        seeds = [[0] * len(view.states)]
        if t.mode == INITIAL:
            seeds[0][view.index[t.initial]] = 1
        else:
            seeds.append([i % 2 for i in range(len(view.states))])
        for seed in seeds:
            want = rank_until_stable_refine(view, seed)
            assert _refine(view, seed) == want
            _same_partition(_refine(view, seed, ranked=False), want)
            merged += len(set(want)) < len(want)
    assert merged >= 50


def _same_partition(got, want):
    """got and want put the same states together, whatever the class
    numbers."""
    pairs = dict(zip(got, want))
    assert len(pairs) == len(set(want)) == len(set(got))
    assert list(map(pairs.__getitem__, got)) == want


@pytest.fixture(scope="module")
def long_and_doubled(balanced_powers, multi_cores):
    """Both 3000-state empty-output chains, and cores in which every
    state has an equivalent twin (duplicated_states), from the powers of
    BALANCED_CORE_2 and the multi-state cores."""
    rng = random.Random(4242)
    doubled = [duplicated_states(c, rng)
               for c in balanced_powers + multi_cores[1]]
    return [empty_output_chain(False), empty_output_chain(True)] + doubled


def test_fixpoint_and_partition_oracles_on_long_and_doubled(
        long_and_doubled):
    """The guaranteed output's first pass, which takes each row's least
    and greatest output and runs Python code only on rows whose two
    words share a first letter, and the merge's partition, which keys
    the outputs in round 1 alone, against their oracles: on the chains,
    where one row of 3000 runs Python code in the first pass, and on
    cores whose every class has two states, which merge."""
    merged = 0
    for t in long_and_doubled:
        assert guaranteed_output(t) == full_pass_guaranteed_output(t)
        view = _complete_responses(_View(t))
        seed = [0] * len(view.states)
        if t.mode == INITIAL:
            seed[view.index[t.initial]] = 1
        want = rank_until_stable_refine(view, seed)
        assert _refine(view, seed) == want
        _same_partition(_refine(view, seed, ranked=False), want)
        merged += 2 * len(set(want)) == len(want)
    assert merged == len(long_and_doubled) - 2


def test_unbounded_output_refused_alike():
    machines = unbounded_machines(60, 61_000)
    for t in machines:
        got = outcome(minimize, t)
        assert got == outcome(three_step_minimize, t)
        assert got[0] is UnboundedOutput
        assert outcome(guaranteed_output, t) == \
            outcome(full_pass_guaranteed_output, t)


def test_guaranteed_output_matches_full_passes(corpus):
    for t in corpus:
        got = guaranteed_output(t)
        assert got == full_pass_guaranteed_output(t)
        assert list(got) == list(t.states)


def test_step_functions_match_dict_steps(random_machines):
    unreachable = 0
    for t in random_machines[::3]:
        _same_machine(remove_incomplete_response(t),
                      dict_remove_incomplete_response(t))
        complete = remove_incomplete_response(t)
        _same_machine(merge_equivalent_states(complete),
                      dict_merge_equivalent_states(complete))
        unreachable += len(t.reachable()) < len(t.states)
    assert unreachable >= 100
    owing = Transducer(2, 1, INITIAL, ["q0", "q", "u"], "q0", {
        ("q0", -1): ((-1,), "q"),
        ("q", 0): ((0, 0), "q"), ("q", 1): ((0, 1), "q"),
        ("u", 0): ((1,), "q"), ("u", 1): ((0,), "u"),
    })
    assert outcome(merge_equivalent_states, owing) == \
        outcome(dict_merge_equivalent_states, owing)


def test_initial_forms_match_dict_form(random_machines):
    for t in random_machines[::2]:
        m = minimize(t)
        assert canonical_form(m) == dict_initial_form(m)


def test_core_forms_match_sorted_signature_oracle(balanced_powers,
                                                   multi_cores):
    """A core with one 0-fixed state is rooted there (zero_root_core_form);
    any other keeps the Moore root (sorted_signature_core_form).  Both
    sides hold relabels, duplicated states, cores on which 0 permutes
    the states, the ring, and a core whose one 0-fixed state is not where
    every 0-walk ends; disconnected cores with one 0-fixed state are
    still refused."""
    rng = random.Random(77)
    bases = balanced_powers + [minimize(c) for c in
                               (fixtures.torsion_core_2(),
                                fixtures.synchronous_core_3(),
                                fixtures.unbalanced_core_3())]
    bases += multi_cores[1][::3]
    corners = one_zero_fixed_cores()
    bases.append(corners["other cycle"])
    drawn = 0
    while drawn < 6:
        c = non_synchronizing_core(rng.choice((2, 3)), rng)
        if strongly_connected(c):
            bases.append(c)
            drawn += 1
    cores = []
    for c in bases:
        cores.append(c)
        cores.extend(shuffled_relabel(c, rng) for _ in range(3))
    for base in bases[:1] + bases[4:6]:
        drawn = 0
        while drawn < 4:
            d = duplicated_states(base, rng)
            if strongly_connected(d):
                cores += [d, shuffled_relabel(d, rng)]
                drawn += 1
    cores.append(empty_output_chain(True))
    rooted = 0
    for c in cores:
        want = zero_root_core_form(c)
        rooted += want is not None
        if want is None:
            want = sorted_signature_core_form(c)
        assert canonical_form(c) == want
    assert rooted >= 3 and len(cores) - rooted >= 3
    for c in (corners["no return"], corners["uncovered"]):
        assert validate(c) == [] and not strongly_connected(c)
        with pytest.raises(TransducerError,
                           match="disconnected core has no canonical form"):
            canonical_form(c)


def test_collapse_matches_row_collapse(random_machines, balanced_powers):
    machines = [minimize(t) for t in random_machines[::2]]
    machines += balanced_powers + [empty_output_chain(True)]
    synchronizing = 0
    for m in machines:
        tracked, cls, level = _collapse(_view_of(m))
        old_tracked, old_cls, old_level = row_collapse(m)
        assert (tracked, level) == (old_tracked, old_level)
        # the same partition, whatever the class numbers
        pairs = dict(zip(cls, old_cls))
        assert len(pairs) == len(set(old_cls)) == len(set(cls))
        assert all(pairs[c] == o for c, o in zip(cls, old_cls))
        if level is None:
            other = next(i for i, c in enumerate(old_cls) if c != old_cls[0])
            want = tuple(sorted((tracked[0], tracked[other]), key=str))
            assert witness_pair(m) == want
        else:
            synchronizing += 1
            assert witness_pair(m) is None
    assert 100 <= synchronizing <= len(machines) - 100


def _eval_cases(random_machines):
    rng = random.Random(404)
    for t in random_machines[::10]:
        for x in random_points(rng, t.n, 3):
            yield t, x, None
    for name in ("sample_3_2", "unbalanced_4_2"):
        t = parse(fixtures.ALL[name])
        for x in random_points(rng, t.n, 5):
            if x.preperiod[0] >= -t.r:
                yield t, x, None
        # a digit period pumped from the initial state
        yield t, EventuallyPeriodicPoint((), (0,)), None
        yield t, EventuallyPeriodicPoint((-1,), (1,)), "nowhere"
    for name in ("balanced_core_2", "torsion_core_2", "synchronous_core_3"):
        t = parse(fixtures.ALL[name])
        for x in random_points(rng, t.n, 5):
            yield t, EventuallyPeriodicPoint(x.preperiod[1:], x.period), \
                t.states[-1]


def test_eval_point_matches_pump_loop(random_machines):
    cases = list(_eval_cases(random_machines))
    assert len(cases) >= 200
    errors = 0
    for t, x, state in cases:
        got = outcome(eval_point, t, x, state)
        assert got == outcome(pump_loop_eval_point, t, x, state)
        errors += isinstance(got, tuple)
    assert errors == 4


@pytest.mark.parametrize("core", [False, True])
def test_eval_point_on_long_chains(core):
    t = empty_output_chain(core)
    root = () if core else (-1,)
    points = [EventuallyPeriodicPoint(root, (0,)),
              EventuallyPeriodicPoint(root + (1,), (0,)),
              EventuallyPeriodicPoint(root + (0,) * 17, (0, 0, 1)),
              EventuallyPeriodicPoint(root + (0,) * 1500, (0,)),
              EventuallyPeriodicPoint(root, (0, 1))]
    for x in points:
        assert eval_point(t, x) == pump_loop_eval_point(t, x)
    assert max(_pumped_states(t, x) for x in points) > 1000


def _pumped_states(t, x):
    """How many states the period visits before one repeats."""
    q = run_word(t, t.initial, x.preperiod)[1]
    seen = set()
    while q not in seen:
        seen.add(q)
        for letter in x.period:
            q = t.step(q, letter)[1]
    return len(seen)


def test_eval_point_refusals_match_pump_loop():
    # a period pumping empty output runs round an empty-output cycle,
    # which no valid machine has: the gate refuses the machine first
    t = Transducer(2, None, CORE, ["a", "b"], "a", {
        ("a", 0): ((), "b"), ("a", 1): ((1,), "a"),
        ("b", 0): ((), "a"), ("b", 1): ((0,), "b"),
    })
    empty = EventuallyPeriodicPoint((1,), (0,))
    assert outcome(pump_loop_eval_point, t, empty) == \
        (TransducerError, "degenerate machine: a period pumps empty output")
    assert outcome(eval_point, t, empty) == \
        (InvalidTransducer, "; ".join(letter_loop_validate(t)))
    assert letter_loop_validate(t)[0].startswith(
        "epsilon-output cycle through")
    chain = empty_output_chain(True)
    for state in ("c3000", ("c0",)):
        got = outcome(eval_point, chain, empty, state)
        assert got == outcome(pump_loop_eval_point, chain, empty, state)
        assert got[0] is TransducerError


def test_collapse_matches_round_remap_collapse(random_machines,
                                               balanced_powers, multi_cores):
    """The class of every state read off once from the rounds' maps: the
    same tracked states, the same class numbers and the same level as
    remapping every state in every round."""
    a5 = core_product(balanced_powers[-1], balanced_powers[0])
    machines = [minimize(t) for t in random_machines[::3]]
    machines += random_machines[1::9]
    machines += balanced_powers + [a5]
    machines += multi_cores[0] + multi_cores[1]
    machines += [empty_output_chain(True), empty_output_chain(False)]
    levels = []
    for m in machines:
        got = _collapse(_view_of(m))
        assert got == round_remap_collapse(m)
        assert isinstance(got[1], list)
        levels.append(got[2])
    assert 100 <= levels.count(None) <= len(machines) - 100
    # the ring never synchronizes; the initial chain does after 3000 rounds
    assert levels[-2:] == [None, 3000]


def _run_word_cases(random_machines, multi_cores):
    """(machine, state, word) triples: admissible words on random
    machines, cores and both chains, then every refusal: an unknown
    state, a rooted word at a non-initial state, a digit word at the
    entry, a root letter fed to a core, and missing transitions, at the
    entry, at the first letter and deep in a word."""
    rng = random.Random(5150)
    chains = [empty_output_chain(False), empty_output_chain(True)]
    machines = random_machines[::10] + multi_cores[1] + chains
    for t in machines:
        long = 3000 if t in chains else 12
        for _ in range(5):
            q = rng.choice(t.states)
            word = tuple(rng.randrange(t.n)
                         for _ in range(rng.randrange(long)))
            if t.mode == INITIAL and q == t.initial:
                word = (-1 - rng.randrange(t.r),) + word
            yield t, q, word
    for t in machines[::4]:
        yield t, "nowhere", ()
        if t.mode == INITIAL:
            q = next(p for p in t.states if p != t.initial)
            yield t, q, (-1, 0)
            yield t, t.initial, (0, 1)
            yield t, t.initial, (-1, 0, -1)
            yield t, t.initial, ()
        else:
            yield t, t.states[0], (0, -1)
            yield t, t.states[0], ()
        trans = dict(t.trans)
        (q, x), _ = rng.choice(list(trans.items()))
        del trans[(q, x)]
        gap = Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)
        yield gap, q, (x,)
        for p in gap.states:
            word = ((-1,) if t.mode == INITIAL and p == t.initial else ()) + \
                tuple(rng.randrange(t.n) for _ in range(40))
            yield gap, p, word


def test_run_word_matches_letter_steps(random_machines, multi_cores):
    """run_word against the letter steps on valid machines; a machine
    with a transition missing is refused at the gate, with the
    violations the letter loop words, before any letter is read."""
    kinds = set()
    cases = 0
    verdicts = {}
    for t, q, word in _run_word_cases(random_machines, multi_cores):
        if t not in verdicts:
            verdicts[t] = letter_loop_validate(t)
        bad = verdicts[t]
        got = outcome(run_word, t, q, word)
        if bad:
            assert got == (InvalidTransducer, "; ".join(bad))
        else:
            assert got == outcome(letter_step_run_word, t, q, word)
        if isinstance(got[0], type):
            kinds.add(got[1].split()[0])
        cases += 1
    assert cases >= 2000
    assert kinds == {"unknown", "rooted", "digit", "core-mode", "no",
                     "incomplete"}


# sha256 of serialize(minimize(.)), one per machine or one over a list,
# pinned from the code before the first pass of guaranteed_output and
# the merge's partition took whole columns: the same bytes must come out
CHAIN_DIGESTS = {
    False: "1ddd1e3f40b1c9a3f6001d91644c8776cceb10c54ef8663483cfd452d1349626",
    True: "582ce696b6875589475df1ab7b8a454411240ab04a7670f90593df67b08cffe5",
}
POWERS_DIGEST = \
    "1980c602131546fed8ad621732557cb1b97535ae5935045f22ef103919ce7a36"
CORPUS_DIGEST = \
    "bef944948c8370d15d665e20d483a900c90c61c3502ef81807363366b1fdbe20"


def _minimized_digest(machines):
    digest = hashlib.sha256()
    for t in machines:
        digest.update(serialize(minimize(t)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("core", [False, True])
def test_minimize_bytes_pinned_on_chains(core):
    assert _minimized_digest([empty_output_chain(core)]) == \
        CHAIN_DIGESTS[core]


def test_minimize_bytes_pinned_on_balanced_powers(balanced_powers):
    """a^1 .. a^5 copied so that minimize reduces them again, with every
    state doubled, and renamed."""
    a = balanced_powers[0]
    powers = balanced_powers + [core_product(balanced_powers[-1], a)]
    rng = random.Random(19)
    machines = []
    for c in powers:
        machines += [Transducer(c.n, None, CORE, c.states, c.initial,
                                c.trans),
                     duplicated_states(c, rng), shuffled_relabel(c, rng)]
    assert _minimized_digest(machines) == POWERS_DIGEST


def test_minimize_bytes_pinned_on_corpus(corpus):
    assert _minimized_digest(corpus) == CORPUS_DIGEST
