"""The three-step reduction to the unique minimal machine.

Step 1 pushes every state's guaranteed output back onto the transitions
entering it, step 2 drops unreachable states, step 3 merges states that
induce the same local map (partition refinement).  The pipeline yields
the unique representative of the machine's omega-equivalence class, up
to strong isomorphism; its canonical form is the class invariant.

minimize runs the three steps and the final relabel as one pass over an
integer view of the machine (machine._view_of): reachability, the
guaranteed-output fixpoint, the shifted outputs, the refinement and the
breadth-first renaming all work on state numbers, and the result keeps
the quotient's rows (see _build): its name-keyed table is built only
when something reads it.  Each stage is a few passes over whole columns
at C speed: the view of a machine built from a table is built once, by
validate's lookup of every row, and kept as its rows (a machine the
library built on rows hands its rows out), reachability is a walk on
state numbers, the guaranteed output takes each row's LCP from its
least and greatest word (in its first pass by one min and one max over
all rows, with Python code only for rows whose two words share a first
letter), the merge keys each state's
output row once and then only its target colours, numbers signatures
through a dict and stops at a discrete partition, whose rows the result
takes as they are.  Letter loops run only to word an error.  The public
step functions are thin wrappers over the same helpers, each taking its
own view and building its own result.
"""

from itertools import compress, count
from operator import add, gt, itemgetter, not_

from .words import EMPTY
from .machine import (
    CORE,
    INITIAL,
    Transducer,
    TransducerError,
    check_valid,
    _MINIMAL,
    _View,
    _bfs,
    _guaranteed_output,
    _refine,
    _view_of,
)


def remove_incomplete_response(t):
    """Shift outputs so that no reachable state still owes a prefix.

    New output for (q, x):  (old + v(target)) minus v(q), where v is the
    guaranteed-output map; the initial state, having no incoming
    transitions, keeps its owed prefix and emits it up front instead.
    Unreachable states are left untouched (step 2 removes them).
    """
    view = _complete_responses(_reached(_view_of(t), t))
    trans = dict(t.trans)
    trans.update(view._table())
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
    view = _view_of(t)
    sub = _reached(view, t)
    for q, owed in zip(sub.states, _guaranteed_output(sub)):
        if q != t.initial and owed != EMPTY:
            raise TransducerError(
                f"state {q!r} owes output {owed!r}; remove incomplete "
                "responses before merging"
            )
    reps, cls, initial = _merge(view, t)
    if cls is None:
        return t
    letters, outs, targets = _quotient(view, reps, cls)
    return _build(t.n, t.r, t.mode, tuple(map(view.states.__getitem__, reps)),
                  letters, outs, targets, initial, None)


def minimize(t):
    """Full pipeline; the result is minimal and canonically relabeled
    (states s0, s1, ... in breadth-first order from the entry state).  A
    machine marked minimal (see _reduce) is returned as it is: reducing
    it again gives the same machine."""
    if t._known == _MINIMAL:
        return t
    return _reduce(check_valid(t))


def _reduce(t):
    """minimize without its validation, for a machine its caller has
    just validated or built valid: the three steps and the relabel in
    one pass over one view.  Completed responses leave no guaranteed
    output to check before merging.  The result is marked minimal:
    reducing it again gives it back (see _core_order)."""
    view = _complete_responses(_reached(_view_of(t), t))
    reps, cls, initial = _merge(view, t)
    letters, outs, targets = _quotient(view, reps, cls)
    if t.mode == INITIAL:
        order = _bfs(targets, initial)
    else:
        order = _core_order(targets,
                            list(map(str, map(view.states.__getitem__, reps))))
    return _build(t.n, t.r, t.mode, _numbered_names(order), letters, outs,
                  targets, initial, _MINIMAL)


def _reduce_rows(n, r, mode, initial, view):
    """_reduce of the valid machine on the alphabet (n, r) in `mode`
    whose rows are `view`, with its entry or preferred start named
    `initial`, such as the closure of a pair product: the machine with
    those states in str order of their names, as the machine named by
    them and given to minimize would list them.  A view not in that
    order already is cut into it."""
    names = list(map(str, view.states))
    if any(map(gt, names, names[1:])):
        view = view._cut(sorted(range(len(names)), key=names.__getitem__))
    return _reduce(Transducer._of_rows(n, r, mode, initial, view, None))


def _reached(view, t):
    """The sub-view of the states step 1 rewrites, in state order: all of
    a core's, the ones reachable from the entry of an initial-mode
    machine, cut from its view only when some state is unreachable."""
    if t.mode == CORE:
        return view
    reached = _bfs(view.targets, view.entry)
    if len(reached) == len(view.states):
        return view
    return view._cut(sorted(reached))


def _complete_responses(view):
    """Step 1 on the view's rows: the view with the shifted output words,
    or the view itself when no state owes output.  The new view shares
    the view's letter and target rows and holds a new list of output
    rows, in which only the rows of states that owe output, other than
    the view's entry, and the rows leading to a state that owes output
    are new; each is built by one map (a state's guaranteed output is
    the LCP of its row's words, so cutting it off is a slice).  The rows
    to rebuild are found by one set test per row, at C speed."""
    v = _guaranteed_output(view)
    owing = set(compress(count(), v))
    if not owing:
        return view
    outs, targets, owed = list(view.outs), view.targets, v.__getitem__
    leading = compress(count(), map(not_, map(owing.isdisjoint, targets)))
    for i in sorted(owing.union(leading)):
        words = map(add, outs[i], map(owed, targets[i]))
        if v[i] and i != view.entry:
            words = map(itemgetter(slice(len(v[i]), None)), words)
        outs[i] = tuple(words)
    return _View._of_rows(view.states, view.letters, outs, targets,
                          view.entry)


def _merge(view, t):
    """Step 3 on the view: the coarsest stable partition, with the
    initial state of an initial-mode machine seeded apart.  Returns
    (reps, cls, start): the first state of each class, in state order,
    each state's class as its position in reps, and the class of
    t.initial (None without one).  A discrete partition returns
    range(size) and cls None: every state is its own class, at its own
    position.

    Only the partition matters here, so _refine numbers signatures by
    first appearance, without sorting them, and stops at a discrete
    partition."""
    size = len(view.states)
    colour = [0] * size
    if t.mode == INITIAL:
        start = view.entry
        colour[start] = 1
    else:
        start = None if t.initial is None else view.index[t.initial]
    colour = _refine(view, colour, ranked=False)
    # colour -> first state: zipped backwards, the first state comes last
    first = dict(zip(reversed(colour), reversed(range(size))))
    if len(first) == size:
        return range(size), None, start
    reps = sorted(first.values())
    position = dict(zip(map(colour.__getitem__, reps), count()))
    cls = list(map(position.__getitem__, colour))
    return reps, cls, None if start is None else cls[start]


def _quotient(view, reps, cls):
    """The rows (letters, outs, targets) of the quotient whose classes
    stand for the state numbers `reps`, with targets renumbered through
    `cls` (each state's class, as its position in reps).  With cls None
    every state is its own class, at its own position, and the view's
    rows are taken as they are."""
    if cls is None:
        return view.letters, view.outs, view.targets
    targets = view.targets
    return (list(map(view.letters.__getitem__, reps)),
            list(map(view.outs.__getitem__, reps)),
            [tuple(map(cls.__getitem__, targets[r])) for r in reps])


def _core_order(targets, names):
    """Deterministic numbering of a core's quotient: breadth-first from
    the first state that reaches the whole machine, else the states
    themselves, both in order of name length, then name (`names` gives
    each state number its str name; names need only be reproducible for
    a given input; isomorphism-invariant equality is canonical_form's
    job, which ignores names).  Renamed s0, s1, ..., either order comes
    out again from a second reduction, since s2 sorts before s10.  The
    (length, name, number) keys are zipped at C speed; the number keeps
    the states' order among equal names, as a stable sort would."""
    keys = list(zip(map(len, names), names, count()))
    order = _bfs(targets, min(keys)[2])
    if len(order) == len(targets):
        return order
    ranked = [k for *_, k in sorted(keys)]
    for start in ranked[1:]:
        order = _bfs(targets, start)
        if len(order) == len(targets):
            return order
    return ranked


def _numbered_names(order):
    """The names s0, s1, ... by state number: state order[k] is sk.  One
    loop with %-formatting beats a name map zipped from str.format."""
    names = [None] * len(order)
    for k, i in enumerate(order):
        names[i] = "s%d" % k
    return tuple(names)


def _build(n, r, mode, names, letters, outs, targets, initial, known):
    """The Transducer of quotient rows on the alphabet (n, r) in `mode`:
    state k is named names[k] (a tuple) and its row is letters[k],
    outs[k] and targets[k] (state numbers), `initial` is the entry's or
    preferred start's number (or None), and the machine is marked with
    `known` (None or _MINIMAL).  The result keeps the quotient's
    rows, taken as they are (see Transducer._of_rows): its name-keyed
    table is built only when something reads it, and a kernel walking
    the result next (a core product, the level of an inverse) takes its
    view from the rows (machine._view_of)."""
    rows = _View._of_rows(names, letters, outs, targets,
                          initial if mode == INITIAL else None)
    return Transducer._of_rows(n, r, mode,
                               None if initial is None else names[initial],
                               rows, known)
