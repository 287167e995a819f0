"""Typed refusals for degenerate arguments: machines without states, an
initial machine whose only state is pre-root (neither has a tracked
state), machines that list a state name twice (rows by position would
answer for another machine), all refused at the gate with their
violations, a relabeling that misses a state or gives two states one
name, a twist whose entries are not all ints, and an order search cap
that is not an integer."""

import pytest

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    InvalidTransducer,
    ParseError,
    Transducer,
    TransducerError,
    WordError,
    core_of,
    core_product,
    canonical_form,
    cycle_balance,
    fixtures,
    guaranteed_output,
    identity_core,
    merge_equivalent_states,
    minimize,
    order_in_On,
    outer_product,
    parse,
    serialize,
    sync_level,
    twist_transducer,
    validate,
    witness_pair,
)
from cantrans.document import HEADER
from cantrans.machine import relabel

EMPTY_CORE = Transducer(2, None, CORE, [], None, {})
# q0 writes the root and returns to itself: no state is ever tracked
ROOT_LOOP = Transducer(2, 1, INITIAL, ["q0"], "q0",
                       {("q0", -1): ((-1,), "q0")})
# the initial state listed twice
TWICE_INITIAL = Transducer(2, 1, INITIAL, ["q0", "a", "q0"], "q0",
                           {("q0", -1): ((-1,), "a"), ("a", 0): ((0,), "a"),
                            ("a", 1): ((1,), "a")})
# a core state listed twice
TWICE_CORE = Transducer(2, None, CORE, ["a", "b", "a"], None,
                        {("a", 0): ((0,), "b"), ("a", 1): ((1,), "a"),
                         ("b", 0): ((1,), "a"), ("b", 1): ((0,), "b")})


@pytest.mark.parametrize("call, error, message", [
    (lambda: core_of(EMPTY_CORE), InvalidTransducer,
     str(InvalidTransducer(validate(EMPTY_CORE)))),
    (lambda: core_of(ROOT_LOOP), InvalidTransducer,
     str(InvalidTransducer(validate(ROOT_LOOP)))),
    (lambda: sync_level(EMPTY_CORE), InvalidTransducer, "no states"),
    (lambda: sync_level(ROOT_LOOP), InvalidTransducer,
     str(InvalidTransducer(validate(ROOT_LOOP)))),
    (lambda: witness_pair(EMPTY_CORE), InvalidTransducer, "no states"),
    (lambda: witness_pair(ROOT_LOOP), InvalidTransducer,
     str(InvalidTransducer(validate(ROOT_LOOP)))),
    (lambda: core_product(EMPTY_CORE, identity_core(2)), InvalidTransducer,
     "no states"),
    (lambda: core_product(identity_core(2), EMPTY_CORE), InvalidTransducer,
     "no states"),
    (lambda: outer_product(EMPTY_CORE, EMPTY_CORE), InvalidTransducer,
     "no states"),
    (lambda: cycle_balance(EMPTY_CORE), InvalidTransducer, "no states"),
    (lambda: serialize(EMPTY_CORE), InvalidTransducer, "no states"),
    (lambda: canonical_form(TWICE_INITIAL), TransducerError,
     "duplicate state names"),
    (lambda: merge_equivalent_states(TWICE_INITIAL), TransducerError,
     "duplicate state names"),
    (lambda: guaranteed_output(TWICE_INITIAL), TransducerError,
     "duplicate state names"),
    (lambda: sync_level(TWICE_INITIAL), TransducerError,
     "duplicate state names"),
    (lambda: sync_level(TWICE_CORE), TransducerError,
     "duplicate state names"),
    (lambda: merge_equivalent_states(TWICE_CORE), TransducerError,
     "duplicate state names"),
    (lambda: relabel(fixtures.torsion_core_2(), {"a": "x", "b": "y"}),
     TransducerError, "relabeling misses state 'c'"),
    # every state named x, and three extra keys padding the value set
    (lambda: relabel(fixtures.torsion_core_2(),
                     {"a": "x", "b": "x", "c": "x", "d": "x", 1: 1, 2: 2,
                      3: 3}),
     TransducerError, "relabeling is not a bijection"),
    (lambda: twist_transducer(("a", 1), Alphabet(2, 1)), WordError,
     "('a', 1) is not a permutation of 0..1"),
    (lambda: twist_transducer((1.0, 0.0), Alphabet(2, 1)), WordError,
     "(1.0, 0.0) is not a permutation of 0..1"),
    (lambda: twist_transducer((True, False), Alphabet(2, 1)), WordError,
     "(True, False) is not a permutation of 0..1"),
], ids=["core_of-empty", "core_of-root-loop", "sync_level-empty",
        "sync_level-root-loop", "witness_pair-empty",
        "witness_pair-root-loop", "product-empty-left",
        "product-empty-right", "outer-product-empty", "cycle_balance-empty",
        "serialize-empty", "canonical_form-twice", "merge-twice",
        "guaranteed_output-twice", "sync_level-twice", "sync_level-core-twice",
        "merge-core-twice", "relabel-missing", "relabel-not-injective",
        "twist-str", "twist-float", "twist-bool"])
def test_machines_without_states_are_refused(call, error, message):
    assert validate(ROOT_LOOP) != []
    with pytest.raises(error) as err:
        call()
    assert str(err.value).startswith(message)


def test_a_machine_without_states_is_not_serialized():
    """No valid machine has no states: serialize refuses one at the gate,
    and parse refuses the document of its two header lines."""
    with pytest.raises(InvalidTransducer, match="^no states$"):
        serialize(EMPTY_CORE)
    with pytest.raises(ParseError) as err:
        parse(f"{HEADER}\nalphabet n=2 core\n")
    assert str(err.value) == \
        "line 0, column 0: invalid transducer: no states"


@pytest.mark.parametrize("cap", [0, -3, 2.5, 4.0, "3", None])
def test_order_cap_must_be_a_positive_integer(cap):
    core = minimize(fixtures.torsion_core_2())
    with pytest.raises(TransducerError) as err:
        order_in_On(core, cap=cap)
    assert str(err.value) == \
        f"order search cap must be an integer >= 1, got {cap!r}"
    assert order_in_On(core, cap=2) == ("finite", 2)
