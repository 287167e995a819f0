"""The core canonical form rooted at the one state digit 0 fixes: one
breadth-first walk, with no refinement round, on the counter cores C_N
(whose states Moore refinement tells apart only after about N rounds)
and on the powers of BALANCED_CORE_2; equal forms under shuffled names
and different forms once one output changes; the reversed-edge walk
run only for a core with another cycle under 0; and the rounds of
refinement still run on a core with no 0-fixed state.  These are counts
of calls, not timings."""

import random

import pytest

from cantrans import TransducerError, canonical_form, machine

from helpers import balanced_powers, count_calls, counter_core, \
    empty_output_chain, one_zero_fixed_cores, shuffled_relabel, \
    two_digit_core, zero_root_core_form


def _flipped(t, state):
    """t with the output of `state` on digit 0 changed in its one
    letter."""
    trans = dict(t.trans)
    (letter,), target = trans[(state, 0)]
    trans[(state, 0)] = ((1 - letter,), target)
    return two_digit_core({q: (trans[(q, 0)], trans[(q, 1)])
                           for q in t.states})


@pytest.mark.parametrize("size", [50, 1000, 4000])
def test_counter_core_forms_are_equal_exactly_under_relabelling(size):
    rng = random.Random(size)
    c = counter_core(size)
    form = canonical_form(c)
    assert form == zero_root_core_form(c)
    for _ in range(3):
        assert canonical_form(shuffled_relabel(c, rng)) == form
    flipped = _flipped(c, f"c{size // 2}")
    assert canonical_form(flipped) != form
    assert canonical_form(shuffled_relabel(flipped, rng)) == \
        canonical_form(flipped)


def test_rooted_cores_run_no_refinement_round(monkeypatch):
    cores = balanced_powers(5) + [counter_core(4000)]
    ring = empty_output_chain(True)
    rounds = count_calls(monkeypatch, machine, "_refine")
    for c in cores:
        canonical_form(c)
    assert rounds == []
    canonical_form(ring)
    assert len(rounds) >= 1


def test_reversed_edges_are_walked_only_off_the_zero_root(monkeypatch):
    cores = balanced_powers(3) + [counter_core(50)]
    walks = count_calls(monkeypatch, machine, "_strongly_connected")
    for c in cores:
        canonical_form(c)
    assert walks == []
    corners = one_zero_fixed_cores()
    other_cycle = corners["other cycle"]
    assert canonical_form(other_cycle) == zero_root_core_form(other_cycle)
    assert len(walks) == 1
    with pytest.raises(TransducerError, match="disconnected core"):
        canonical_form(corners["no return"])
    assert len(walks) == 2
    # refused by the walk from the root alone
    with pytest.raises(TransducerError, match="disconnected core"):
        canonical_form(corners["uncovered"])
    assert len(walks) == 2
