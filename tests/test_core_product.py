"""The core product built from the pair product's attractor alone, against
the full pair product it replaced (kept in helpers.py as an oracle): equal
canonical forms on fixture powers, random cores and inverse round trips,
every product strongly connected (core_product no longer checks it), the
attractor equal to the raw product's core, one validation of the pair
machine, and the refusal of non-synchronizing factors."""

import random

import pytest

from cantrans import (
    CORE,
    NotSynchronizing,
    Transducer,
    TransducerError,
    canonical_form,
    compose,
    core_of,
    core_product,
    identity_core,
    invert_core,
    minimize,
    outer_product,
    sync_level,
)
from cantrans import machine
from cantrans.fixtures import balanced_core_2, sample_3_2, unbalanced_core_3
from cantrans.synchro import _product_attractor

from helpers import count_calls, fixture_cores, full_pair_core_product, \
    multi_core_bisync, non_synchronizing_core, shuffled_relabel, \
    strongly_connected


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
        lazy = _product_attractor(x, y)
        core = core_of(compose(x, y, reduce=False))
        assert set(lazy.states) == set(core.states)
        assert lazy.trans == core.trans


def test_pair_machine_is_validated_once(monkeypatch):
    a = minimize(balanced_core_2())
    seen = count_calls(monkeypatch, machine, "validate")
    core_product(a, a)
    assert len(seen) == 1


def test_degenerate_product_is_refused():
    # one state writing nothing on 0: it synchronizes, and the pair
    # machine with the identity core loops on 0 with empty output
    trans = {("s", 0): ((), "s"), ("s", 1): ((1,), "s")}
    silent = Transducer(2, None, CORE, ["s"], None, trans)
    assert sync_level(silent) == 0
    for x, y in ((silent, identity_core(2)), (identity_core(2), silent)):
        with pytest.raises(TransducerError, match="degenerate product"):
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
