"""Asynchronous transducers on the Cantor spaces C_{n,r}.

Finite machines read one letter per step and emit a word per step; the
library evaluates, minimizes, composes and inverts them, measures
synchronization, extracts cores, and classifies the maps they induce
(prefix-exchange membership, outer classes, synchronous and
cycle-balanced subgroups).
"""

from .words import (
    Alphabet,
    EventuallyPeriodicPoint,
    Relation,
    WordError,
    common_prefix,
    format_word,
    parse_word,
    validate_prefix_code,
    word_relate,
    word_subtract,
)
from .machine import (
    CORE,
    INITIAL,
    InvalidTransducer,
    Transducer,
    TransducerError,
    UnboundedOutput,
    canonical_form,
    check_valid,
    eval_point,
    guaranteed_output,
    local_action,
    run_word,
    theta,
    validate,
)
from .minimize import (
    merge_equivalent_states,
    minimize,
    remove_inaccessible,
    remove_incomplete_response,
)
from .algebra import (
    NotInjective,
    NotInvertible,
    PrefixCodeMap,
    compose,
    embed_core,
    from_prefix_code_map,
    identity_core,
    identity_transducer,
    invert,
    twist_transducer,
)
from .synchro import NotSynchronizing, core_of, core_product, \
    invert_core, is_bisynchronizing, sync_level, witness_pair
from .classify import (
    SubgroupFlags,
    check_permutation_state,
    classify_subgroup,
    cycle_balance,
    is_identity_core,
    is_in_Gnr,
    order_in_On,
    outer_class_equal,
    outer_product,
    prefix_code_map_of,
)
from .document import ParseError, parse, parse_prefix_map, serialize, \
    serialize_prefix_map
from .randgen import (
    RejectionBudgetExceeded,
    random_gnr_element,
    random_prefix_code,
    random_prefix_code_map,
    random_transducer,
)
from . import fixtures

__all__ = [
    "Alphabet", "EventuallyPeriodicPoint", "Relation", "WordError",
    "common_prefix", "format_word", "parse_word", "validate_prefix_code",
    "word_relate", "word_subtract",
    "CORE", "INITIAL", "InvalidTransducer", "Transducer", "TransducerError",
    "UnboundedOutput", "canonical_form", "check_valid", "eval_point",
    "guaranteed_output", "local_action", "run_word", "theta", "validate",
    "merge_equivalent_states", "minimize", "remove_inaccessible",
    "remove_incomplete_response",
    "NotInjective", "NotInvertible", "PrefixCodeMap", "compose",
    "embed_core",
    "from_prefix_code_map", "identity_core", "identity_transducer",
    "invert", "twist_transducer",
    "NotSynchronizing", "core_of", "core_product", "invert_core",
    "is_bisynchronizing", "sync_level", "witness_pair",
    "SubgroupFlags", "check_permutation_state", "classify_subgroup",
    "cycle_balance", "is_identity_core", "is_in_Gnr", "order_in_On",
    "outer_class_equal", "outer_product", "prefix_code_map_of",
    "ParseError", "parse", "parse_prefix_map", "serialize",
    "serialize_prefix_map",
    "RejectionBudgetExceeded", "random_gnr_element", "random_prefix_code",
    "random_prefix_code_map", "random_transducer",
    "fixtures",
]
