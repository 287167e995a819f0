"""The unbalanced-cycle witness of cycle_balance, extracted in linear time
from the edge where the potential sweep fails, against the simple-path
search it replaced (kept in helpers.py as an oracle, on small cores):
the same verdicts, and every witness re-walks as a cycle of the core."""

import random
import time

import pytest

from cantrans import (
    Alphabet,
    CORE,
    Transducer,
    TransducerError,
    core_of,
    cycle_balance,
    minimize,
    sync_level,
)
from cantrans import fixtures
from cantrans.randgen import random_transducer

from helpers import balanced_powers, cycle_rewalks, duplicated_states, \
    extra_zero_on_last, multi_core_bisync, shuffled_relabel, \
    simple_path_unbalanced_cycle


def _strong_core(rng, n, k, lengths):
    """Random strongly connected core on k states: digit 0 runs round a
    ring, the other digits jump anywhere; output lengths drawn from
    `lengths` (all 1: every cycle balances)."""
    names = [f"r{i}" for i in range(k)]
    trans = {}
    for i, q in enumerate(names):
        trans[(q, 0)] = ((0,) * rng.choice(lengths), names[(i + 1) % k])
        for x in range(1, n):
            trans[(q, x)] = ((x,) * rng.choice(lengths), rng.choice(names))
    return Transducer(n, None, CORE, names, None, trans)


def _small_cores():
    rng = random.Random(1_212)
    cores = [fixtures.unbalanced_core_3(), fixtures.torsion_core_2(),
             fixtures.balanced_core_2(), fixtures.synchronous_core_3(),
             core_of(minimize(fixtures.sample_3_2()))]
    cores += [extra_zero_on_last(p) for p in balanced_powers(2)]
    for seed in range(300):
        alphabet = (Alphabet(2, 1), Alphabet(3, 1))[seed % 2]
        t = random_transducer(alphabet, 3 + seed % 3, 2, 7_000 + seed)
        m = minimize(t)
        if sync_level(m) is not None and len(core_of(m).states) > 1:
            cores.append(core_of(m))
    for k in range(2, 10):
        cores.append(_strong_core(rng, 2 + k % 2, k, (1,)))
        cores.append(_strong_core(rng, 2 + k % 2, k, (0, 1, 1, 2)))
    for seed in range(4):
        # small cores: the simple-path oracle is exponential
        cores.append(core_of(minimize(multi_core_bisync(seed, 10))))
    cores += [duplicated_states(minimize(c), rng) for c in cores[:4]]
    return cores + [shuffled_relabel(c, rng) for c in cores]


def test_witnesses_agree_with_the_simple_path_search():
    verdicts = []
    for core in _small_cores():
        ok, witness = cycle_balance(core)
        oracle = simple_path_unbalanced_cycle(core)
        assert ok is (oracle is None)
        if not ok:
            assert cycle_rewalks(core, *witness)
            assert cycle_rewalks(core, *oracle)
        verdicts.append(ok)
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 10


@pytest.mark.parametrize("power", [3, 4])
def test_perturbed_power_witness_is_fast(power):
    # the simple-path search took seconds on a^3 and did not finish in
    # minutes on a^4
    core = extra_zero_on_last(balanced_powers(power)[-1])
    assert len(core.states) == (103, 300)[power - 3]
    start = time.perf_counter()
    ok, witness = cycle_balance(core)
    elapsed = time.perf_counter() - start
    assert not ok and cycle_rewalks(core, *witness)
    assert elapsed < 0.5


def test_witness_of_a_short_cycle_keeps_its_states_in_order():
    ok, (states, read, written) = cycle_balance(fixtures.unbalanced_core_3())
    assert not ok and states == ("a", "b") and (read, written) == (2, 3)


def test_disconnected_core_is_refused():
    # two paths from a to the sink d write different lengths, and no
    # cycle goes through a: there is no unbalanced cycle to report
    trans = {("a", 0): ((0, 0), "b"), ("a", 1): ((0,), "c"),
             ("b", 0): ((0,), "d"), ("b", 1): ((1,), "d"),
             ("c", 0): ((0,), "d"), ("c", 1): ((1,), "d"),
             ("d", 0): ((0,), "d"), ("d", 1): ((1,), "d")}
    t = Transducer(2, None, CORE, ["a", "b", "c", "d"], None, trans)
    with pytest.raises(TransducerError, match="strongly connected"):
        cycle_balance(t)
