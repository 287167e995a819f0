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
built as a Transducer.  Each stage is a few passes over whole columns at
C speed: the view is built by one lookup of every row, reachability is
a walk on state numbers, the guaranteed output takes each row's LCP from
its least and greatest word, the merge numbers signatures through a
dict and stops at a discrete partition, and the result's table is
zipped from columns.  Letter loops run only to word an error.  The
public step functions are thin wrappers over the same helpers, each
building its own view and its own result.
"""

from itertools import chain, compress, count, repeat
from operator import add, itemgetter, not_

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
)


def remove_incomplete_response(t):
    """Shift outputs so that no reachable state still owes a prefix.

    New output for (q, x):  (old + v(target)) minus v(q), where v is the
    guaranteed-output map; the initial state, having no incoming
    transitions, keeps its owed prefix and emits it up front instead.
    Unreachable states are left untouched (step 2 removes them).
    """
    view = _View(t, _kept(t))
    _complete_responses(view)
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
    return _build(t.n, t.r, t.mode, view, rows, view.states, initial, None)


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
    just validated: the three steps and the relabel in one pass over one
    view.  Reachability is a walk on that view's state numbers, and a
    sub-view is built only when some state is unreachable.  Completed
    responses leave no guaranteed output to check before merging.  The
    result is marked minimal: reducing it again gives it back (see
    _core_order)."""
    view = _View(t)
    if t.mode == INITIAL:
        reached = _bfs(view.targets, view.index[t.initial])
        if len(reached) < len(view.states):
            view = _View(t, map(view.states.__getitem__, sorted(reached)))
    _complete_responses(view)
    rows, initial = _merge(view, t)
    if t.mode == INITIAL:
        order = _bfs(rows, initial)
    else:
        order = _core_order(rows, lambda i: str(view.states[i]))
    names = dict(zip(order, map("s{}".format, count())))
    return _build(t.n, t.r, t.mode, view, rows, names, initial, _MINIMAL)


def _reduce_core_rows(view, n):
    """_reduce for a valid core given as a view whose state numbers need
    not follow the names' str order, such as synchro's pair product,
    numbered in discovery order.  The result is the one _reduce gives
    on the machine with those states sorted by str: each class stands
    for its member with the least name (a linear min per class) rather
    than its first, and only these representatives are sorted."""
    _complete_responses(view)
    colour = _refine(view, [0] * len(view.states), ranked=False)
    names = list(map(str, view.states))
    least = {}
    for i, c in enumerate(colour):
        have = least.get(c)
        if have is None or names[i] < names[have]:
            least[c] = i
    reps = sorted(least.values(), key=names.__getitem__)
    if len(reps) == len(colour):
        rows = dict(zip(reps, map(view.targets.__getitem__, reps)))
    else:
        rep = list(map(least.__getitem__, colour))
        rows = {r: tuple(map(rep.__getitem__, view.targets[r]))
                for r in reps}
    order = _core_order(rows, names.__getitem__)
    named = dict(zip(order, map("s{}".format, count())))
    return _build(n, None, CORE, view, rows, named, None, _MINIMAL)


def _kept(t):
    """The states step 1 rewrites, in state order: all of a core, the
    reachable ones of an initial-mode machine."""
    if t.mode == CORE:
        return t.states
    keep = t.reachable()
    return [q for q in t.states if q in keep]


def _complete_responses(view):
    """Step 1 on the view's rows: replace its output words by the shifted
    ones.  Only the rows of states that owe output, other than the
    view's entry, and the rows leading to a state that owes output
    change; each is rewritten by one map (a state's guaranteed output
    is the LCP of its row's words, so cutting it off is a slice).
    The rows to rewrite are found by one set test per row, at C speed."""
    v = _guaranteed_output(view)
    owing = set(compress(count(), v))
    if not owing:
        return
    outs, targets, owed = view.outs, view.targets, v.__getitem__
    leading = compress(count(), map(not_, map(owing.isdisjoint, targets)))
    for i in sorted(owing.union(leading)):
        words = map(add, outs[i], map(owed, targets[i]))
        if v[i] and i != view.entry:
            words = map(itemgetter(slice(len(v[i]), None)), words)
        outs[i] = tuple(words)


def _merge(view, t):
    """Step 3 on the view: the coarsest stable partition, with the
    initial state of an initial-mode machine seeded apart.  Returns the
    rows of the quotient, {first state of each class, in state order:
    its targets mapped to their classes' first states}, and the number
    of the state standing for t.initial (None without one).

    Only the partition matters here, so _refine numbers signatures by
    first appearance, without sorting them, and stops at a discrete
    partition, whose rows are the view's own."""
    size = len(view.states)
    colour = [0] * size
    if t.mode == INITIAL:
        colour[view.index[t.initial]] = 1
    colour = _refine(view, colour, ranked=False)
    # colour -> first state: zipped backwards, the first state comes last
    first = dict(zip(reversed(colour), reversed(range(size))))
    if len(first) == size:
        rep = range(size)
        rows = dict(zip(rep, view.targets))
    else:
        rep = list(map(first.__getitem__, colour))
        rows = {r: tuple(map(rep.__getitem__, view.targets[r]))
                for r in sorted(first.values())}
    initial = None if t.initial is None else rep[view.index[t.initial]]
    return rows, initial


def _core_order(rows, name):
    """Deterministic numbering of a core's quotient: breadth-first from
    the first state that reaches the whole machine, else the states
    themselves, both in order of name length, then name (`name` maps a
    state number to its str name; names need only be reproducible for a
    given input; isomorphism-invariant equality is canonical_form's job,
    which ignores names).  Renamed s0, s1, ..., either order comes out
    again from a second reduction, since s2 sorts before s10."""
    def key(i):
        s = name(i)
        return len(s), s

    order = _bfs(rows, min(rows, key=key))
    if len(order) == len(rows):
        return order
    ranked = sorted(rows, key=key)
    for start in ranked[1:]:
        order = _bfs(rows, start)
        if len(order) == len(rows):
            return order
    return ranked


def _build(n, r, mode, view, rows, names, initial, known):
    """The Transducer of quotient rows on the alphabet (n, r) in `mode`,
    each state k named names[k], marked with `known` (see
    Transducer._own).  Its table is zipped from whole columns: (name,
    letter) keys from the names repeated along their letters, and
    (output, target name) values; the machine takes the table as built,
    without the public constructor's copy."""
    reps = list(rows)
    named = list(map(names.__getitem__, reps))
    letters = list(map(view.letters.__getitem__, reps))
    keys = zip(chain.from_iterable(map(repeat, named, map(len, letters))),
               chain.from_iterable(letters))
    values = zip(chain.from_iterable(map(view.outs.__getitem__, reps)),
                 map(names.__getitem__, chain.from_iterable(rows.values())))
    return Transducer._own(n, r, mode, tuple(named),
                           None if initial is None else names[initial],
                           dict(zip(keys, values)), known)
