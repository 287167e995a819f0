"""The core product's integer kernel against the paths it replaced, kept
in helpers.py as oracles: minimize of the name-keyed pair attractor
(attractor_core_product), which it must match exactly (the same states,
names and table), and the full pair product (full_pair_core_product),
which it must match up to canonical form.  The corpus holds fixture
powers, products of fixture cores with each other and with their
inverses, seeded random cores and shuffled relabels; every product is
strongly connected (core_product does not check it).  The kernel's named
closure is the raw product's core, and it is valid whenever both factors
are, so validate sees only the factors not yet checked; factors that
fail validate are refused with their violations, and non-synchronizing
factors are refused."""

import random

import pytest

from cantrans import (
    Alphabet,
    CORE,
    InvalidTransducer,
    NotSynchronizing,
    Transducer,
    TransducerError,
    canonical_form,
    core_of,
    core_product,
    identity_core,
    invert_core,
    minimize,
    outer_product,
    serialize,
    sync_level,
    validate,
)
from cantrans import machine
from cantrans.fixtures import balanced_core_2, sample_3_2, unbalanced_core_3

from helpers import attractor_core_product, count_calls, fixture_cores, \
    full_pair_core_product, letter_loop_validate, multi_core_bisync, \
    non_synchronizing_core, pair_core, product_attractor, \
    random_synchronizing, shuffled_relabel, strongly_connected, \
    unreduced_compose, view_machine


def _outcome(f, a, b):
    """f(a, b) as its states, entry, table (in order) and document, or
    the type and message of the cantrans error it raises."""
    try:
        m = f(a, b)
    except TransducerError as e:
        return type(e), str(e)
    return m.states, m.initial, list(m.trans.items()), serialize(m)


@pytest.fixture(scope="module")
def product_pairs():
    """Factor pairs: BALANCED_CORE_2 a^k * a and a * a^k up to a^5,
    UNBALANCED_CORE_3 up to a^10, fixture cores with each other and with
    their inverses, cores of seeded random synchronizing machines (30 per
    alphabet) with themselves, a neighbour and a fixture core, and
    shuffled relabels of pairs of small factors."""
    pairs = []
    for load, top in ((balanced_core_2, 5), (unbalanced_core_3, 10)):
        a = minimize(load())
        power = a
        for _ in range(2, top + 1):
            pairs += [(power, a), (a, power)]
            power = core_product(power, a)
    fixtures = fixture_cores()
    inverses = [invert_core(c) for c in fixtures]
    for a, a_inv in zip(fixtures, inverses):
        for b, b_inv in zip(fixtures, inverses):
            if a.n == b.n:
                pairs += [(a, b), (a, b_inv), (a_inv, b), (a_inv, b_inv)]
    for alphabet in (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2)):
        cores = [core_of(minimize(random_synchronizing(alphabet, 3, 2, seed)))
                 for seed in range(30)]
        same_n = [c for c in fixtures if c.n == alphabet.n]
        for k, c in enumerate(cores):
            pairs += [(c, c), (c, cores[k - 1]), (same_n[k % len(same_n)], c)]
    rng = random.Random(2_718)
    small = [(x, y) for x, y in pairs
             if len(x.states) * len(y.states) <= 400]
    pairs += [(shuffled_relabel(x, rng), shuffled_relabel(y, rng))
              for x, y in rng.sample(small, 120)]
    return pairs


def test_kernel_matches_the_attractor_path(product_pairs):
    reordered = 0
    for x, y in product_pairs:
        got = _outcome(core_product, x, y)
        assert got == _outcome(attractor_core_product, x, y)
        names = pair_core(x, y).states
        reordered += list(names) != sorted(names, key=str)
    assert len(product_pairs) == 468
    # discovery order and str order differ on most pair cores
    assert reordered >= len(product_pairs) // 2


def test_named_closure_of_valid_factors_is_valid(product_pairs):
    for x, y in product_pairs:
        assert letter_loop_validate(x) == letter_loop_validate(y) == []
        assert letter_loop_validate(view_machine(pair_core(x, y), x.n)) == []


@pytest.mark.parametrize("load, top", [(balanced_core_2, 4),
                                       (unbalanced_core_3, 8)])
def test_powers_match_full_pair_product(load, top):
    a = minimize(load())
    lazy = oracle = a
    for _ in range(2, top + 1):
        lazy = core_product(lazy, a)
        oracle = full_pair_core_product(oracle, a)
        assert canonical_form(lazy) == canonical_form(oracle)
        assert strongly_connected(lazy)


def test_random_products_match_full_pair_product():
    rng = random.Random(4_417)
    pool = {2: [], 3: []}
    for core in fixture_cores():
        pool[core.n].append(core)
    for seed in range(12):
        core = core_of(minimize(multi_core_bisync(8_100 + seed)))
        pool[core.n].append(core)
    checked = 0
    for cores in pool.values():
        for a in cores:
            for b in rng.sample(cores, 4):
                want = canonical_form(full_pair_core_product(a, b))
                got = core_product(shuffled_relabel(a, rng),
                                   shuffled_relabel(b, rng))
                assert canonical_form(got) == want
                assert strongly_connected(got)
                checked += 1
    assert checked == 4 * (len(pool[2]) + len(pool[3]))


def test_inverse_round_trips_match_full_pair_product():
    a = minimize(balanced_core_2())
    cores = fixture_cores() + [core_product(a, a)]
    cores.append(core_product(cores[-1], a))
    for c in cores:
        d = invert_core(c)
        for x, y in ((c, d), (d, c)):
            product = core_product(x, y)
            assert strongly_connected(product)
            form = canonical_form(product)
            assert form == canonical_form(full_pair_core_product(x, y))
            assert form == canonical_form(identity_core(c.n))


def test_attractor_is_the_raw_products_core():
    a = minimize(balanced_core_2())
    cores = fixture_cores()
    pairs = [(c, c) for c in cores]
    pairs += [(c, invert_core(c)) for c in cores]
    pairs += [(cores[1], cores[0]), (cores[2], cores[3]),
              (core_product(a, a), a), (a, core_product(a, a))]
    for x, y in pairs:
        lazy = view_machine(pair_core(x, y), x.n)
        core = core_of(unreduced_compose(x, y))
        assert set(lazy.states) == set(core.states)
        assert lazy.trans == core.trans
        named = product_attractor(x, y)
        assert lazy.states == named.states
        assert list(lazy.trans.items()) == list(named.trans.items())


def test_pair_machine_is_validated_once(monkeypatch):
    # valid factors make a valid pair machine, so only they are checked,
    # and factors known to be valid (minimal ones) not at all
    a = minimize(balanced_core_2())
    b = core_product(a, a)
    seen = count_calls(monkeypatch, machine, "_stages")
    product = core_product(b, a)
    assert seen == []
    a2, b2 = (Transducer(c.n, None, CORE, c.states, None, c.trans)
              for c in (a, b))
    assert core_product(b2, a2).trans == product.trans
    assert seen == [b2._rows, a2._rows]


def _broken(core, rng):
    """Copies of a core that fail validate, each with one edit: an output
    given a digit out of range, a root letter, or nothing, and a start
    state that is not a state.  The targets stay, so each copy still
    synchronizes when the core does."""
    keys = list(core.trans)
    for edit in ("digit", "root", "silent", "start"):
        trans = dict(core.trans)
        q, x = key = rng.choice(keys)
        w, tgt = trans[key]
        if edit == "digit":
            trans[key] = (w + (core.n,), tgt)
        elif edit == "root":
            trans[key] = ((-1,) + w, tgt)
        elif edit == "silent":
            trans[key] = ((), tgt)
        start = "nowhere" if edit == "start" else core.initial
        t = Transducer(core.n, None, CORE, core.states, start, trans)
        if validate(t):
            yield t


def test_invalid_factors_are_refused_with_their_violations(product_pairs):
    """A factor that fails validate is refused by the gate, on either
    side, with its violations as the letter loop words them, before any
    pair is built."""
    rng = random.Random(31)
    kinds = set()
    checked = 0
    for x, y in rng.sample([p for p in product_pairs
                            if len(p[0].states) * len(p[1].states) <= 400],
                           80):
        for bad in _broken(x, rng):
            want = (InvalidTransducer, "; ".join(letter_loop_validate(bad)))
            for pair in ((bad, y), (y, bad)) if x.n == y.n else ((bad, x),):
                assert _outcome(core_product, *pair) == want
                assert _outcome(outer_product, *pair) == want
                kinds.add(" ".join(want[1].split()[:2]))
                checked += 1
            assert bad._rows is None
    assert checked >= 400
    assert {"output of", "start state", "epsilon-output cycle"} <= kinds


def test_degenerate_product_is_refused():
    # one state writing nothing on 0, which the pair machine with the
    # identity core would loop on with empty output: the factor itself
    # is refused, by sync_level and by core_product on either side
    trans = {("s", 0): ((), "s"), ("s", 1): ((1,), "s")}
    silent = Transducer(2, None, CORE, ["s"], None, trans)
    message = "epsilon-output cycle through 's' -> 's'"
    assert letter_loop_validate(silent) == [message]
    with pytest.raises(InvalidTransducer, match=f"^{message}$"):
        sync_level(silent)
    for x, y in ((silent, identity_core(2)), (identity_core(2), silent)):
        with pytest.raises(InvalidTransducer, match=f"^{message}$"):
            core_product(x, y)


def test_mismatched_factors_are_refused():
    b2, u3 = minimize(balanced_core_2()), minimize(unbalanced_core_3())
    for x, y in ((b2, u3), (u3, b2), (sample_3_2(), u3), (u3, sample_3_2())):
        with pytest.raises(TransducerError):
            core_product(x, y)
        with pytest.raises(TransducerError):
            outer_product(x, y)


def test_non_synchronizing_factors_are_refused():
    rng = random.Random(5)
    b2 = minimize(balanced_core_2())
    refused = 0
    for _ in range(40):
        t = non_synchronizing_core(rng.choice((2, 3)), rng)
        assert sync_level(t) is None
        pairs = [(t, t)] + ([(t, b2), (b2, t)] if t.n == 2 else [])
        for x, y in pairs:
            with pytest.raises(NotSynchronizing):
                core_product(x, y)
            refused += 1
        with pytest.raises(NotSynchronizing):
            invert_core(t)
    assert refused >= 60
