"""The three-step reduction to the unique minimal machine.

Step 1 pushes every state's guaranteed output back onto the transitions
entering it, step 2 drops unreachable states, step 3 merges states that
induce the same local map (partition refinement).  The pipeline yields
the unique representative of the machine's omega-equivalence class, up
to strong isomorphism; its canonical form is the class invariant.

minimize runs the three steps and the final relabel as one pass over an
integer view of the machine (machine._View): reachability, the
guaranteed-output fixpoint, the shifted outputs, the refinement and the
breadth-first renaming all work on state numbers, and only the result is
built as a Transducer.  The public step functions are thin wrappers over
the same helpers, each building its own view and its own result.
"""

from .words import EMPTY, word_subtract
from .machine import (
    CORE,
    INITIAL,
    Transducer,
    TransducerError,
    check_valid,
    _View,
    _bfs,
    _guaranteed_output,
    _refine,
)


def remove_incomplete_response(t):
    """Shift outputs so that no reachable state still owes a prefix.

    New output for (q, x):  (old + v(target)) minus v(q), where v is the
    guaranteed-output map; the initial state, having no incoming
    transitions, keeps its owed prefix and emits it up front instead.
    Unreachable states are left untouched (step 2 removes them).
    """
    view = _View(t, _kept(t))
    _complete_responses(view, t)
    trans = dict(t.trans)
    for q, letters, outs, targets in zip(view.states, view.letters,
                                         view.outs, view.targets):
        for x, w, j in zip(letters, outs, targets):
            trans[(q, x)] = (w, view.states[j])
    return Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)


def remove_inaccessible(t):
    """Keep exactly the states reachable from the initial state.  A
    core-mode machine has no distinguished entry; it is returned as is."""
    if t.mode == CORE:
        return t
    keep = t.reachable()
    if len(keep) == len(t.states):
        return t
    states = [q for q in t.states if q in keep]
    trans = {k: v for k, v in t.trans.items() if k[0] in keep}
    return Transducer(t.n, t.r, t.mode, states, t.initial, trans)


def merge_equivalent_states(t):
    """Quotient by the coarsest partition refining one-step outputs and
    respecting successors.  Sound only once responses are complete, so a
    nonzero guaranteed output on a non-initial reachable state is an
    error (unreachable states just ride along; step 2 owns them).  The
    initial state never merges: it reads a different alphabet."""
    view = _View(t)
    kept = _kept(t)
    sub = view if len(kept) == len(t.states) else _View(t, kept)
    for q, owed in zip(sub.states, _guaranteed_output(sub)):
        if q != t.initial and owed != EMPTY:
            raise TransducerError(
                f"state {q!r} owes output {owed!r}; remove incomplete "
                "responses before merging"
            )
    rows, initial = _merge(view, t)
    if len(rows) == len(t.states):
        return t
    return _build(t, view, rows, view.states, initial)


def minimize(t):
    """Full pipeline; the result is minimal and canonically relabeled
    (states s0, s1, ... in breadth-first order from the entry state)."""
    return _reduce(check_valid(t))


def _reduce(t):
    """minimize without its validation, for a machine its caller has
    just validated: the three steps and the relabel in one pass over one
    view.  Completed responses leave no guaranteed output to check
    before merging."""
    view = _View(t, _kept(t))
    _complete_responses(view, t)
    rows, initial = _merge(view, t)
    if t.mode == INITIAL:
        order = _bfs(rows, initial)
    else:
        order = _core_order(view, rows)
    names = {i: f"s{k}" for k, i in enumerate(order)}
    return _build(t, view, rows, names, initial)


def _kept(t):
    """The states step 1 rewrites, in state order: all of a core, the
    reachable ones of an initial-mode machine."""
    if t.mode == CORE:
        return t.states
    keep = t.reachable()
    return [q for q in t.states if q in keep]


def _complete_responses(view, t):
    """Step 1 on the view's rows: replace its output words by the shifted
    ones."""
    v = _guaranteed_output(view)
    entry = view.index[t.initial] if t.mode == INITIAL else None
    for i, (outs, targets) in enumerate(zip(view.outs, view.targets)):
        if i == entry or not v[i]:
            view.outs[i] = [w + v[j] for w, j in zip(outs, targets)]
        else:
            view.outs[i] = [word_subtract(w + v[j], v[i])
                            for w, j in zip(outs, targets)]


def _merge(view, t):
    """Step 3 on the view: the coarsest stable partition, with the
    initial state of an initial-mode machine seeded apart.  Returns the
    rows of the quotient, {first state of each class, in state order:
    its targets mapped to their classes' first states}, and the number
    of the state standing for t.initial (None without one)."""
    colour = [0] * len(view.states)
    if t.mode == INITIAL:
        colour[view.index[t.initial]] = 1
    colour = _refine(view, colour)
    rep = {}
    for i, c in enumerate(colour):
        rep.setdefault(c, i)
    rows = {r: [rep[colour[j]] for j in view.targets[r]]
            for r in rep.values()}
    initial = None if t.initial is None else \
        rep[colour[view.index[t.initial]]]
    return rows, initial


def _core_order(view, rows):
    """Deterministic numbering of a core's quotient: breadth-first from
    the least-named state (by str) that reaches the whole machine, else
    by name (names need only be reproducible for a given input;
    isomorphism-invariant equality is canonical_form's job, which
    ignores names)."""
    by_name = sorted(rows, key=lambda i: str(view.states[i]))
    for start in by_name:
        order = _bfs(rows, start)
        if len(order) == len(rows):
            return order
    return by_name


def _build(t, view, rows, names, initial):
    """The Transducer of quotient rows, each state r named names[r]."""
    trans = {}
    for r, targets in rows.items():
        q = names[r]
        for x, w, j in zip(view.letters[r], view.outs[r], targets):
            trans[(q, x)] = (w, names[j])
    return Transducer(t.n, t.r, t.mode, [names[r] for r in rows],
                      None if initial is None else names[initial], trans)
