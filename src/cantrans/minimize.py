"""The three-step reduction to the unique minimal machine.

Step 1 pushes every state's guaranteed output back onto the transitions
entering it, step 2 drops unreachable states, step 3 merges states that
induce the same local map (partition refinement).  The pipeline yields
the unique representative of the machine's omega-equivalence class, up
to strong isomorphism; its canonical form is the class invariant.
"""

from .words import EMPTY, word_subtract
from .machine import (
    CORE,
    INITIAL,
    Transducer,
    TransducerError,
    canonical_relabel,
    check_valid,
    guaranteed_output,
    _bfs_order,
)


def remove_incomplete_response(t):
    """Shift outputs so that no reachable state still owes a prefix.

    New output for (q, x):  (old + v(target)) minus v(q), where v is the
    guaranteed-output map; the initial state, having no incoming
    transitions, keeps its owed prefix and emits it up front instead.
    Unreachable states are left untouched (step 2 removes them).
    """
    keep = set(t.states) if t.mode == CORE else t.reachable()
    sub = _restriction(t, keep)
    v = guaranteed_output(sub)
    trans = dict(t.trans)
    for q in keep:
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            if t.mode == INITIAL and q == t.initial:
                trans[(q, x)] = (w + v[tgt], tgt)
            else:
                trans[(q, x)] = (word_subtract(w + v[tgt], v[q]), tgt)
    return Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)


def remove_inaccessible(t):
    """Keep exactly the states reachable from the initial state.  A
    core-mode machine has no distinguished entry; it is returned as is."""
    if t.mode == CORE:
        return t
    keep = t.reachable()
    if len(keep) == len(t.states):
        return t
    return _restriction(t, keep)


def _restriction(t, keep):
    states = [q for q in t.states if q in keep]
    trans = {k: v for k, v in t.trans.items() if k[0] in keep}
    initial = t.initial if (t.initial in keep or t.mode == INITIAL) else None
    return Transducer(t.n, t.r, t.mode, states, initial, trans)


def merge_equivalent_states(t):
    """Quotient by the coarsest partition refining one-step outputs and
    respecting successors.  Sound only once responses are complete, so a
    nonzero guaranteed output on a non-initial reachable state is an
    error (unreachable states just ride along; step 2 owns them).  The
    initial state never merges: it reads a different alphabet."""
    keep = set(t.states) if t.mode == CORE else t.reachable()
    v = guaranteed_output(_restriction(t, keep))
    for q in keep:
        if q != t.initial and v[q] != EMPTY:
            raise TransducerError(
                f"state {q!r} owes output {v[q]!r}; remove incomplete "
                "responses before merging"
            )

    def signature(q, block):
        parts = []
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            parts.append((w, block[tgt]))
        if t.mode == INITIAL and q == t.initial:
            parts.append("initial")
        return tuple(parts)

    block = {q: 0 for q in t.states}
    while True:
        sigs = {q: signature(q, block) for q in t.states}
        order = {}
        for q in t.states:
            order.setdefault((block[q], sigs[q]), len(order))
        nxt = {q: order[(block[q], sigs[q])] for q in t.states}
        if len(set(nxt.values())) == len(set(block.values())):
            block = nxt
            break
        block = nxt

    if len(set(block.values())) == len(t.states):
        return t
    rep = {}
    for q in t.states:
        rep.setdefault(block[q], q)
    trans = {}
    for q in rep.values():
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            trans[(q, x)] = (w, rep[block[tgt]])
    initial = rep[block[t.initial]] if t.initial is not None else None
    return Transducer(t.n, t.r, t.mode, list(rep.values()), initial, trans)


def minimize(t):
    """Full pipeline; the result is minimal and canonically relabeled
    (states s0, s1, ... in breadth-first order from the entry state)."""
    return _reduce(check_valid(t))


def _reduce(t):
    """minimize without its validation, for a machine its caller has
    just validated."""
    t = remove_incomplete_response(t)
    t = remove_inaccessible(t)
    t = merge_equivalent_states(t)
    if t.mode == INITIAL:
        return canonical_relabel(t)
    return _core_relabel(t)


def _core_relabel(t):
    """Deterministic names for a core: breadth-first order from the
    least-named state that reaches the whole machine (names need only be
    reproducible for a given input; isomorphism-invariant equality is
    canonical_form's job, which ignores names)."""
    order = None
    for start in sorted(t.states, key=str):
        order = _bfs_order(t, start)
        if len(order) == len(t.states):
            break
    if order is None or len(order) != len(t.states):
        order = {q: i for i, q in enumerate(sorted(t.states, key=str))}
    mapping = {q: f"s{i}" for q, i in order.items()}
    trans = {(mapping[q], x): (w, mapping[tgt])
             for (q, x), (w, tgt) in t.trans.items()}
    initial = mapping[t.initial] if t.initial is not None else None
    return Transducer(t.n, t.r, CORE,
                      [mapping[q] for q in t.states], initial, trans)
