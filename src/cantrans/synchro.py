"""Synchronization levels, core extraction and the bi-synchronizing test.

A machine is synchronizing at level m when every digit word of length m
drives every digit-reading state to the same state, so that after m
letters the active state depends on the input alone.  The states every
long word lands in form the core: an inescapable, strongly connected
sub-machine that is the invariant of the outer class.
"""

from itertools import filterfalse

from .machine import CORE, Transducer, TransducerError, \
    _NOT_SYNCHRONIZING, _SYNCHRONIZES, _bfs, _first_repeat, _pre_root, \
    _view_of
from .minimize import _reduce_rows, minimize
from .algebra import NotInjective, NotInvertible, invert, _Pairs, \
    _RunSets, _accepting, _explore, _product_is_identity


class NotSynchronizing(TransducerError):
    pass


def _tracked_numbers(view):
    """The numbers, in order, of the states synchronization is measured
    over, in a view of all of a machine's states: every state in core
    mode; in initial mode the states that have emitted their leading
    root letter.  Pre-root states only ever process the first few
    letters after the root and never recur, so they are not required to
    fall in line (tracking them would inflate the level of machines
    whose inverses wait before committing to a root letter)."""
    if view.entry is None:
        return range(len(view.states))
    return list(filterfalse(set(_pre_root(view)).__contains__,
                            range(len(view.states))))


def _collapse(view):
    """Partition the tracked states of a machine's view by where every
    word of the current length sends them: (tracked, final classes,
    level or None).  _leveled records the level in the machine.

    Round m keeps p and q in one class exactly when every digit word of
    length m drives them to the same state, so round m + 1 merges the
    states whose rows of successor classes agree.  The partitions only
    coarsen; a round that merges nothing is a fixpoint.  The level is the
    number of rounds taken to reach a single class, and None when the
    fixpoint still has several.

    States of one class have equal rows in every later round too, so
    each round works on the classes alone: one successor list per digit,
    over the current classes, keys each class by the zipped columns, and
    the merged classes' lists are mapped through the new classes.  Each
    round's map from old to new classes is kept, and the class of every
    tracked state is read off once at the end, by composing the maps
    backwards (unless a single class is left): the rounds cost the live
    classes alone, not |Q| each.

    The tracked states' rows are cut from `view` (see
    machine._view_of).  A valid machine has a tracked state, and no
    transition leads from one back to a pre-root state."""
    keep = _tracked_numbers(view)
    if len(keep) < len(view.states):
        view = view._cut(keep)
    tracked = list(view.states)
    columns = list(zip(*view.targets))
    count = len(tracked)
    maps = []
    while count > 1:
        ids = {}
        nxt = [ids.setdefault(key, len(ids)) for key in zip(*columns)]
        if len(ids) == count:
            break
        # one member of each new class, in class order
        members = list(dict(zip(nxt, range(count))).values())
        columns = [list(map(nxt.__getitem__, map(col.__getitem__, members)))
                   for col in columns]
        maps.append(nxt)
        count = len(ids)
    else:
        return tracked, [0] * len(tracked), len(maps)
    cls = range(count)
    for nxt in reversed(maps):
        cls = list(map(cls.__getitem__, nxt))
    return tracked, list(cls), None


def _leveled(t, view):
    """_collapse of t's view, its level, or that there is none, recorded
    in t's `_level` slot."""
    found = _collapse(view)
    t._know_level(_NOT_SYNCHRONIZING if found[2] is None else found[2])
    return found


def sync_level(t):
    """Least m such that every digit word of length m is synchronizing,
    or None when no such m exists: the number of collapse rounds that
    bring the tracked states into one class.  Level 0 means a single
    tracked state.  The answer is read from t's `_level` slot when it is
    there; a machine known only to synchronize, or not known at all, is
    collapsed once, and the answer recorded (_leveled)."""
    if t._level is None or t._level == _SYNCHRONIZES:
        _leveled(t, _view_of(t))
    return None if t._level == _NOT_SYNCHRONIZING else t._level


def _synchronizes(t):
    """Whether t synchronizes, read from its `_level` slot, or found by
    one collapse when nothing is known."""
    if t._level is None:
        _leveled(t, _view_of(t))
    return t._level != _NOT_SYNCHRONIZING


def witness_pair(t):
    """For a non-synchronizing machine: two tracked states, sorted by
    name, in different classes of the final collapse, or None when the
    machine synchronizes.  Every word of every length keeps some run
    from the two apart, so by Koenig's lemma some infinite word does.
    A machine known to synchronize returns None at once; the classes
    are not remembered, so any other machine is collapsed."""
    if t._level not in (None, _NOT_SYNCHRONIZING):
        return None
    tracked, cls, level = _leveled(t, _view_of(t))
    if level is not None:
        return None
    other = next(i for i, c in enumerate(cls) if c != cls[0])
    return tuple(sorted((tracked[0], tracked[other]), key=str))


def is_identity_core(c):
    """The one-state core that echoes every digit: the outer class of
    the prefix-exchange maps."""
    if len(c.states) != 1:
        return False
    return list(_view_of(c).outs[0]) == [(x,) for x in range(c.n)]


def core_of(t):
    """The sub-machine on the states long inputs force the machine into.

    Refuses with NotSynchronizing when the machine has no
    synchronization level, and otherwise takes the forward closure of
    the state that digit 0 fixes (see _core_at).  Whether it
    synchronizes is read from the machine when known (see sync_level),
    so a machine whose level was found, or a core product, is not
    collapsed again; the closure needs no level.  The collapse and the
    closure share one view of t (see machine._view_of).  The result is a
    core-mode machine on the original state names, strongly connected
    and closed, built on rows (see _core_at)."""
    view = _view_of(t)
    if t._level is None:
        _leveled(t, view)
    if t._level == _NOT_SYNCHRONIZING:
        raise NotSynchronizing("machine is not synchronizing; it has no core")
    return _core_at(t, view)


def _core_at(t, view):
    """The core of a synchronizing machine: the forward closure of the
    first state met twice by the walk under 0 from the first tracked
    state.  If t synchronizes at level m, 0^m leads every tracked state
    to one state s, and so does 0^(m+1); so 0 fixes s, and the walk
    reaches s within m steps and first repeats there.

    The walk and the closure run on `view`, t's view (see
    machine._view_of), and the result is a machine built on rows: the
    closure's rows cut from that view with the states in str order of
    their names, so its states tuple, and the table built from its rows,
    are in that order.  The closure is valid, as t is: a closed set of
    tracked states reads every digit, writes digit words and keeps t's
    lack of empty-output cycles."""
    targets, names = view.targets, view.states
    start = _first_repeat(_tracked_numbers(view)[0], lambda i: targets[i][0])
    closure = sorted(_bfs(targets, start), key=lambda i: str(names[i]))
    return Transducer._of_rows(t.n, None, CORE, None, view._cut(closure),
                               None)


def core_product(a, b):
    """Product of two cores reduced back to a minimal core: the core of
    the raw pair product (the machine x -> (x . a) . b over all pairs of
    states), with responses completed and equivalent states merged.

    Only that core is built.  If a synchronizes at level m and b at
    level k, the pair product synchronizes too: after m letters a's state
    depends on the input alone, a valid core has no empty-output cycle,
    so a then keeps writing, and once it has written k more letters b's
    state depends on the input alone as well.  So the product's core is
    found as _core_at finds any core: the walk under digit 0 first
    repeats at the state s that 0 fixes, s lies in the core, and
    everything a word leads to from s is the core.  Completing responses
    and merging states look only forward, so reducing that closed set
    gives the same minimal core as reducing the whole product.

    Refuses with NotSynchronizing when either factor does not
    synchronize (such a product need not have a core).  The factors pass
    the gate of machine._view_of, and valid factors never make a
    degenerate pair machine (see algebra._Pairs).  The result is the rows of
    the closure of the pair 0 fixes (_Pairs.fixed and _Pairs.closure),
    reduced as compose reduces its pairs (minimize._reduce_rows), so it
    equals minimize of that named pair machine (same states, names and
    table).  It is strongly connected: the closure is the core of a
    synchronizing machine, and merging states keeps every path.

    Whether each factor synchronizes is read from it when known, so a
    leveled factor or an earlier product is not collapsed again.  The
    result is marked as synchronizing, by the argument above (merging
    states keeps a synchronizing word synchronizing); its level is found
    by sync_level when asked for."""
    if a.mode != CORE or b.mode != CORE:
        raise TransducerError("core_product expects core-mode machines")
    if a.n != b.n:
        raise TransducerError("alphabet mismatch in core product")
    if not (_synchronizes(a) and _synchronizes(b)):
        raise NotSynchronizing("core product of a non-synchronizing core")
    pairs = _Pairs(_view_of(a), _view_of(b))
    product = _reduce_rows(a.n, None, CORE, None,
                           pairs.closure([pairs.fixed()]))
    product._know_level(_SYNCHRONIZES)
    return product


def invert_core(c):
    """The inverse core: the machine this core's outer class inverts to.

    States are sets of runs of c (see algebra._RunSets), each run with
    the input it has read since the inverse last emitted; a set is built
    once, however many configurations (state of c, pending input) lead
    to it.  One construction, _inverse_from, explores them from a set of
    seeds, checks that the machine they make synchronizes, reduces its
    core and checks that both core products with the original reduce to
    the identity core.  It runs first from the one set that repeats when
    the set of a seed (q, empty) reads 0s, without pruning, and only
    when that run refuses for any reason but NotInjective from the sets
    of every seed (state, empty), keeping the largest sub-machine on
    which every digit can always be read (a set surviving that pruning
    accepts every continuation, which is exactly what deep states of an
    inverse must do).  The second run's inverse or refusal, which says
    which step failed, is the answer.  Both runs share one _RunSets, so
    a set is built once for both.  Two runs of one set that write the
    same output after reading different words prove the map not
    injective, and end both runs at once.

    The inverse core is numbered breadth-first from its one state that
    digit 0 fixes, so its names depend on the machine alone, not on the
    route or the order in which sets were found.

    The products are checked by the lag walk, without building them: on
    the core of each pair machine, from the pair digit 0 fixes, every
    pair must carry a lag word u with u x = w u' on each of its edges
    x/w.  Products of a non-synchronizing core need not have a core, so
    such a core is refused up front, before the exploration.  c is
    minimized first, which returns a minimal core as it is, and whether
    it synchronizes is read from it when known (see sync_level), so the
    core is_bisynchronizing has just leveled is not collapsed again.

    The one-seed closure is exact.  It is closed, every set in it reads
    every digit, and it is reached from a seed of the full exploration,
    so it lies inside the pruned machine `sub` of the full run.  When
    `sub` synchronizes, every cycle under 0 is the one fixed point that
    0^level leads to, so the repeat the seed walk stops at is the set
    the full run's core is closed from, and its closure is that core:
    the same sets, hence the same reduction.  Any other outcome of the
    one-seed run (every seed walk refused, the pending-word bound
    exceeded, a digit refused in the closure, a closure that does not
    synchronize, a failed product check) leaves the answer and its
    refusal text to the full run.  So both runs give the same machine
    whenever the full exploration synchronizes; they could differ only
    on a core whose one-seed closure verifies while its full machine of
    sets does not synchronize, which the full run would refuse."""
    if c.mode != CORE:
        raise TransducerError("invert_core expects a core-mode machine")
    c = minimize(c)
    if not _synchronizes(c):
        raise NotSynchronizing("invert_core needs a synchronizing core")
    runs = _RunSets(_view_of(c))
    repeat = _zero_repeat_config(runs)
    if repeat is not None:
        try:
            return _inverse_from(c, runs, [repeat], prune=False)
        except NotInjective:
            raise
        except NotInvertible:
            pass
    seeds = [runs.seed(i) for i in range(len(c.states))]
    return _inverse_from(c, runs, seeds, prune=True)


def _inverse_from(c, runs, seeds, prune):
    """The inverse core of c from the node numbers `seeds` of `runs`:
    _explore's machine of sets, pruned when `prune` is set, its core
    reduced and both products with c checked by the lag walk; a failed
    step is refused with NotInvertible.

    The machine of sets is built once, on the rows _explore builds,
    named by its nodes' configurations, and a pruned one is cut from
    them to the nodes _accepting keeps, for _collapse.  Its core is the
    closure of the node that 0 fixes, found by the walk under 0 from the
    first kept node and cut from those rows in breadth-first order from
    that node.  (Unpruned, the rows are in that order already: the seed
    is a node 0 leads back to, which 0 fixes once the machine
    synchronizes, and _explore numbered the nodes breadth-first from
    it.)  The core is named by zero-padded numbers, so that str order is
    that order, and the reduction numbers its result breadth-first from
    that node's class.  It is valid though never validated: each of its
    nodes reads every digit into it and writes digits, and no cycle of
    it writes nothing, since a run that is at one position after the
    inverse has read more input, with no emission between, would have
    written two outputs there.  It is marked as synchronizing, as the
    reduction of the core of a synchronizing machine; its level is found
    when asked for.  The lag walks take the reduction's view from its
    rows (see machine._view_of)."""
    n = c.n
    sets = _explore(runs, seeds, range(n), n, prune)
    if prune:
        sets = sets._cut(_accepting(sets.targets))
    if not sets.states:
        raise NotInvertible(
            "not invertible: no configuration of the inverse accepts "
            "every continuation"
        )
    if _collapse(sets)[2] is None:
        raise NotInvertible("inverse dynamics do not synchronize")
    # the core of a synchronizing machine, and its reduction, synchronize
    targets = sets.targets
    core = sets._cut(_bfs(targets, _first_repeat(0, lambda m: targets[m][0])))
    width = len(str(len(core.states) - 1))
    core.states = tuple(f"{k:0{width}}" for k in range(len(core.states)))
    d = _reduce_rows(n, None, CORE, None, core)
    inverse = _view_of(d)
    if not _product_is_identity(runs.view, inverse) or \
            not _product_is_identity(inverse, runs.view):
        raise NotInvertible(
            "round-trip verification failed: core products are not trivial"
        )
    d._know_level(_SYNCHRONIZES)
    return d


def _zero_repeat_config(runs):
    """The first node of `runs` that repeats when the node of a seed
    (i, empty) reads 0s, from the first seed, in state order, whose walk
    meets no refusal; None when every walk is refused.  Each walk is one
    _first_repeat, on node numbers.  A letter that leaves no run leads
    to -1, and a node whose pending word exceeds _explore's bound, past
    which the walk need not end, to None; each leads to itself, so -1
    moves on to the next seed, and None ends the whole search.
    NotInjective ends it too, as a refusal of the core."""
    reps, bound = runs.reps, runs.bound

    def zero(k):
        if k is None or k < 0:
            return k
        edge = runs.step(k, 0)
        if edge is None:
            return -1
        k = edge[1]
        return k if len(reps[k][1]) <= bound else None

    for i in range(len(runs.view.states)):
        k = _first_repeat(runs.seed(i), zero)
        if k is None or k >= 0:
            return k
    return None


def is_bisynchronizing(t):
    """(flag, level): whether the map and its inverse both admit
    synchronizing machines; the level reported is the larger of the two.
    An inversion failure means the map is no homeomorphism (or the core
    no invertible class), so the answer is (False, None) rather than an
    error."""
    m = minimize(t)
    fwd = sync_level(m)
    if fwd is None:
        return False, None
    try:
        inv = invert_core(m) if m.mode == CORE else invert(m)
    except NotInvertible:
        return False, None
    bwd = sync_level(inv)
    if bwd is None:
        return False, None
    return True, max(fwd, bwd)
