"""Synchronization levels, core extraction and the bi-synchronizing test.

A machine is synchronizing at level m when every digit word of length m
drives every digit-reading state to the same state, so that after m
letters the active state depends on the input alone.  The states every
long word lands in form the core: an inescapable, strongly connected
sub-machine that is the invariant of the outer class.
"""

from itertools import count
from operator import itemgetter

from .machine import CORE, InvalidTransducer, Transducer, TransducerError, \
    check_valid, validate, _NOT_SYNCHRONIZING, _SYNCHRONIZES, _VALID, \
    _View, _bfs, _bfs_order, _first_repeat
from .minimize import _reduce_core_rows, minimize
from .algebra import NotInjective, NotInvertible, invert, _Pairs, \
    _RunSets, _accepting, _check_product, _explore, _product_is_identity


class NotSynchronizing(TransducerError):
    pass


def _tracked_states(t):
    """States synchronization is measured over: every state in core
    mode; in initial mode the states that have emitted their leading
    root letter.  Pre-root states only ever process the first few
    letters after the root and never recur, so they are not required to
    fall in line (tracking them would inflate the level of machines
    whose inverses wait before committing to a root letter)."""
    if t.mode == CORE:
        return list(t.states)
    pre = t.pre_root_states()
    return [q for q in t.states if q not in pre]


def _collapse(t):
    """Partition the tracked states by where every word of the current
    length sends them: (tracked, final classes, level or None).  The
    level, or that there is none, is recorded in t's `_level` slot.

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

    No valid machine lacks a tracked state, so one that does is refused
    with InvalidTransducer, here for sync_level, witness_pair and every
    _core_at, whose callers collapse first (a machine marked as
    synchronizing has states)."""
    tracked = _tracked_states(t)
    if not tracked:
        raise InvalidTransducer(validate(t))
    columns = list(zip(*_View(t, tracked).targets))
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
        t._know_level(len(maps))
        return tracked, [0] * len(tracked), len(maps)
    t._know_level(_NOT_SYNCHRONIZING)
    cls = range(count)
    for nxt in reversed(maps):
        cls = list(map(cls.__getitem__, nxt))
    return tracked, list(cls), None


def sync_level(t):
    """Least m such that every digit word of length m is synchronizing,
    or None when no such m exists: the number of collapse rounds that
    bring the tracked states into one class.  Level 0 means a single
    tracked state.  The answer is read from t's `_level` slot when it is
    there; a machine known only to synchronize, or not known at all, is
    collapsed once, and the collapse records the answer."""
    if t._level is None or t._level == _SYNCHRONIZES:
        _collapse(t)
    return None if t._level == _NOT_SYNCHRONIZING else t._level


def _synchronizes(t):
    """Whether t synchronizes, read from its `_level` slot, or found by
    one collapse when nothing is known."""
    if t._level is None:
        _collapse(t)
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
    tracked, cls, level = _collapse(t)
    if level is not None:
        return None
    other = next(i for i, c in enumerate(cls) if c != cls[0])
    return tuple(sorted((tracked[0], tracked[other]), key=str))


def is_identity_core(c):
    """The one-state core that echoes every digit: the outer class of
    the prefix-exchange maps."""
    return (len(c.states) == 1 and
            all(c.step(c.states[0], x)[0] == (x,) for x in range(c.n)))


def core_of(t):
    """The sub-machine on the states long inputs force the machine into.

    Refuses with NotSynchronizing when the machine has no
    synchronization level, and otherwise takes the forward closure of
    the state that digit 0 fixes (see _core_at).  Whether it
    synchronizes is read from the machine when known (see sync_level),
    so a machine whose level was found, or a core product, is not
    collapsed again; the closure needs no level.  The result is a
    core-mode machine on the original state names, strongly connected
    and closed.  It is checked with check_valid, which refuses with
    InvalidTransducer the core of a machine that was itself invalid, and
    returns at once for the core of a machine known to be valid (see
    _core_at)."""
    if not _synchronizes(t):
        raise NotSynchronizing("machine is not synchronizing; it has no core")
    return check_valid(_core_at(t))


def _core_at(t):
    """The core of a synchronizing machine: the forward closure of the
    first state met twice by the walk under 0 from the first tracked
    state.  If t synchronizes at level m, 0^m leads every tracked state
    to one state s, and so does 0^(m+1); so 0 fixes s, and the walk
    reaches s within m steps and first repeats there.  The table lists
    the states in breadth-first order from s; the states tuple is sorted
    by str.

    The closure is valid when t is: a closed set of tracked states reads
    every digit, writes digit words and keeps t's lack of empty-output
    cycles.  The closure's table is t's own transitions, so the machine
    takes it without the public constructor's copy.  It is marked valid
    when t is known to be valid; otherwise core_of checks it.  t must
    have a tracked state, which _collapse checks, and which every
    machine marked as synchronizing has."""
    start = _first_repeat(_tracked_states(t)[0], lambda q: t.step(q, 0)[1])
    order = _bfs_order(t, start)
    trans = {(p, x): t.step(p, x) for p in order for x in range(t.n)}
    return Transducer._own(t.n, None, CORE, tuple(sorted(order, key=str)),
                           None, trans, _VALID if t._known else None)


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
    synchronize (such a product need not have a core), and with
    TransducerError when the pair machine is degenerate, as it is when a
    factor has no states.  Valid factors never make one, so the pair
    machine is named and validated only when a factor fails validate, as
    in compose (see algebra._check_product).  The result is the rows of
    the closure of the pair 0 fixes (_Pairs.fixed and _Pairs.closure),
    reduced on their pair numbers, and equals minimize of that named
    pair machine (same states, names and table).  It is strongly
    connected: the closure is the core of a synchronizing machine, and
    merging states keeps every path.

    Whether each factor synchronizes is read from it when known, so a
    leveled factor or an earlier product is not collapsed again.  The
    result is marked as synchronizing, by the argument above (merging
    states keeps a synchronizing word synchronizing); its level is found
    by sync_level when asked for."""
    if a.mode != CORE or b.mode != CORE:
        raise TransducerError("core_product expects core-mode machines")
    if a.n != b.n:
        raise TransducerError("alphabet mismatch in core product")
    if not (a.states and b.states):
        raise TransducerError("degenerate product: no states")
    if not (_synchronizes(a) and _synchronizes(b)):
        raise NotSynchronizing("core product of a non-synchronizing core")
    pairs = _Pairs(_View(a), _View(b))
    view = pairs.closure([pairs.fixed()])
    _check_product(a, b, view, None, "degenerate product: ")
    product = _reduce_core_rows(view, a.n)
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
    runs = _RunSets(_View(c))
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

    The machine of sets is named by its nodes' configurations for
    sync_level.  Its core is the closure of the node that 0 fixes,
    numbered breadth-first from that node.  Pruned, the node is found by
    the walk under 0 from the first kept node.  Unpruned, the rows are
    in that order already: the seed is a node 0 leads back to, which 0
    fixes once the machine synchronizes, and _explore numbered the nodes
    breadth-first from it.  The closure is named by zero-padded numbers,
    so that name order is that order, and _reduce_core_rows numbers the
    reduction breadth-first from that node's class, in the same order.
    It is valid though never validated: each of its nodes reads every
    digit into it and writes digits, and no cycle of it writes nothing,
    since a run that is at one position after the inverse has read more
    input, with no emission between, would have written two outputs
    there.  It is marked as synchronizing, as the reduction of the core
    of a synchronizing machine; its level is found when asked for."""
    n = c.n
    nodes, rows = _explore(runs, seeds, range(n), n, prune)
    keep = _accepting(rows) if prune else range(len(rows))
    if not keep:
        raise NotInvertible(
            "not invertible: no configuration of the inverse accepts "
            "every continuation"
        )
    names = {m: runs.name(nodes[m]) for m in keep}
    trans = {(names[m], y): (out, names[t])
             for m in keep for y, out, t in rows[m]}
    sub = Transducer._own(n, None, CORE, tuple(names.values()), None, trans,
                          None)
    if sync_level(sub) is None:
        raise NotInvertible("inverse dynamics do not synchronize")
    # the core of a synchronizing machine, and its reduction, synchronize
    if prune:
        targets = {m: [t for _, _, t in rows[m]] for m in keep}
        order = _bfs(targets, _first_repeat(keep[0],
                                            lambda m: targets[m][0]))
        number = dict(zip(order, count()))
        rows = [[(y, out, number[t]) for y, out, t in rows[m]]
                for m in order]
    width = len(str(len(rows) - 1))
    view = _View._of_rows(
        [f"{k:0{width}}" for k in range(len(rows))],
        [tuple(range(n))] * len(rows),
        [tuple(map(itemgetter(1), row)) for row in rows],
        [tuple(map(itemgetter(2), row)) for row in rows])
    d = _reduce_core_rows(view, n)
    inverse = _View(d)
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
