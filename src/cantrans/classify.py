"""Classification of bi-synchronizing maps and arithmetic on cores.

The core of a minimal bi-synchronizing machine determines the map's
outer class; two maps lie in the same class exactly when their cores
are strongly isomorphic.  Cores multiply (pair product, reduce, take
the core again), which makes the classes a group; the classifiers below
place a map in the chain

    prefix-exchange maps  <  synchronous cores  <  balanced cores  < all,

where "balanced" means every cycle of the core writes as many letters
as it reads.  Balance is the implemented bi-Lipschitz criterion: an
unbalanced cycle is exactly a certificate of unbounded local expansion
or contraction.
"""

from collections import deque
from dataclasses import dataclass

from .machine import CORE, TransducerError, canonical_form, _view_of, \
    _words
from .minimize import minimize
from .synchro import NotSynchronizing, _synchronizes, core_of, \
    core_product, invert_core, is_bisynchronizing, is_identity_core


def is_in_Gnr(t):
    """Membership in the prefix-exchange group: the minimal machine is
    bi-synchronizing and its core is the single identity-echo state.
    The bi-synchronizing test leaves the minimal machine's level on it,
    so core_of reads that and does not collapse it again."""
    m = minimize(t)
    return is_bisynchronizing(m)[0] and is_identity_core(core_of(m))


def outer_class_equal(a, b):
    """Same outer class: the minimal cores are strongly isomorphic.  The
    alphabets are compared before either machine is minimized."""
    if a.n != b.n:
        raise TransducerError("alphabet mismatch")
    return canonical_form(core_of(minimize(a))) == \
        canonical_form(core_of(minimize(b)))


def outer_product(a, b):
    """The group operation on cores: the minimal core of the pair
    product (see core_product)."""
    return core_product(a, b)


def order_in_On(a, cap=64):
    """Order of a core in the outer-class group, searched up to `cap`.

    Returns ("finite", k) at the first power equal to the identity core
    and ("unknown", None) if the cap runs out first.  No repeat among
    the powers can prove an infinite order: a^i == a^j already makes
    a^(j-i) the identity, which the search meets first.

    The core is minimized, checked for synchronization and inverted
    once: a core outside O_n, whose powers never reach the identity and
    grow without bound, is refused by invert_core's NotInvertible (or
    NotInjective) before the search.  The powers are core products,
    known to be valid and to synchronize, so no factor is validated or
    collapsed again."""
    if a.mode != CORE:
        raise TransducerError("order_in_On expects a core-mode machine")
    if not isinstance(cap, int) or cap < 1:
        raise TransducerError(
            f"order search cap must be an integer >= 1, got {cap!r}")
    a = minimize(a)
    if not _synchronizes(a):
        raise NotSynchronizing("order search needs a synchronizing core")
    invert_core(a)
    power = a
    for k in range(1, cap + 1):
        if is_identity_core(power):
            return "finite", k
        if k < cap:
            power = core_product(power, a)
    return "unknown", None


def cycle_balance(core):
    """Check that every cycle of a strongly connected core emits exactly
    as many letters as it reads.

    All cycles balance exactly when the per-edge weight (output length
    minus one) is a potential difference between states, which one
    depth-first sweep decides; the first edge that breaks the potential
    is expanded into an explicit unbalanced simple cycle for the
    diagnostic, in time linear in the size of the core.  The core is
    swept on its view (see machine._view_of), by state number from its
    first state.

    Returns (True, None) or (False, (cycle states, read, written)).
    """
    if core.mode != CORE:
        raise TransducerError("cycle_balance expects a core-mode machine")
    if not core.states:
        raise TransducerError("cycle_balance expects a strongly connected "
                              "core; it has no states")
    view = _view_of(core)
    outs, targets = view.outs, view.targets
    phi = {0: 0}
    tree = {0: None}
    todo = [0]
    while todo:
        q = todo.pop()
        for x, w, tgt in zip(range(core.n), outs[q], targets[q]):
            want = phi[q] + len(w) - 1
            if tgt not in phi:
                phi[tgt] = want
                tree[tgt] = (q, x)
                todo.append(tgt)
            elif phi[tgt] != want:
                cycle, read, written = _unbalanced_cycle(view, tree, q, x,
                                                         tgt)
                return False, (tuple(map(view.states.__getitem__, cycle)),
                               read, written)
    return True, None


def _unbalanced_cycle(view, tree, q, x, tgt):
    """Some simple cycle whose output length differs from its length,
    from the sweep's tree edges and the edge q -- x --> tgt that breaks
    the potential, walked on the view from the sweep's root, state 0.

    With `back` a path from tgt to the root, the closed walks "tree path
    to q, the edge, back" and "tree path to tgt, back" differ in weight
    by exactly the broken amount, so one of them has nonzero weight.  A
    closed walk's weight is the sum of the weights of the simple cycles
    peeled off it where it repeats a state, so one of those cycles is
    unbalanced."""
    back = _path_to(view.targets, tgt, 0)
    if back is None:
        names = view.states
        raise TransducerError("cycle_balance expects a strongly connected "
                              f"core; {names[tgt]!r} does not lead back to "
                              f"{names[0]!r}")
    for walk in (_tree_path(tree, q) + [x] + back,
                 _tree_path(tree, tgt) + back):
        found = _peel(view, walk)
        if found is not None:
            return found
    raise AssertionError("potential check failed but no witness cycle found")


def _tree_path(tree, q):
    """Letters of the sweep's tree path from the root to q."""
    letters = []
    while tree[q] is not None:
        q, x = tree[q]
        letters.append(x)
    return letters[::-1]


def _path_to(targets, start, goal):
    """Letters of a shortest path from start to goal (breadth-first), or
    None when there is none; targets[q] lists state q's targets in
    letter order."""
    came = {start: None}
    todo = deque([start])
    while goal not in came:
        if not todo:
            return None
        q = todo.popleft()
        for x, tgt in enumerate(targets[q]):
            if tgt not in came:
                came[tgt] = (q, x)
                todo.append(tgt)
    return _tree_path(came, goal)


def _peel(view, letters):
    """Walk `letters` on the view from state 0, cutting a simple cycle off
    the walk each time it returns to a state on its current path; the
    first such cycle that reads and writes different lengths, as (state
    numbers, read, written), or None."""
    outs, targets = view.outs, view.targets
    path = [0]
    taken = []
    at = {0: 0}
    for x in letters:
        p = path[-1]
        w, q = outs[p][x], targets[p][x]
        taken.append(len(w))
        k = at.get(q)
        if k is None:
            at[q] = len(path)
            path.append(q)
            continue
        cycle, written = path[k:], sum(taken[k:])
        if written != len(cycle):
            return tuple(cycle), len(cycle), written
        for p in path[k + 1:]:
            del at[p]
        del path[k + 1:]
        del taken[k:]
    return None


def is_synchronous(core):
    return all(len(w) == 1 for w in _words(core))


@dataclass(frozen=True)
class SubgroupFlags:
    in_Gnr: bool
    in_Pn: bool
    in_Ln: bool
    in_On: bool
    level: int
    core_states: int
    unbalanced: tuple | None


def classify_subgroup(t):
    """Flags for the subgroup chain, computed on the minimal core.

    The map must be bi-synchronizing (otherwise there is no core class
    to talk about and this raises).  in_Pn means the core is synchronous
    (single-letter outputs); in_Ln means the core is cycle-balanced, the
    criterion this library uses for the bi-Lipschitz subgroup; in_Gnr
    means the core is the one-state identity.  t is minimized once;
    is_bisynchronizing and core_of take the minimal machine as it is,
    and core_of reads the level is_bisynchronizing left on it, so the
    minimal machine is collapsed once."""
    m = minimize(t)
    ok, level = is_bisynchronizing(m)
    if not ok:
        raise NotSynchronizing("map is not bi-synchronizing")
    core = core_of(m)
    balanced, witness = cycle_balance(core)
    return SubgroupFlags(
        in_Gnr=is_identity_core(core),
        in_Pn=is_synchronous(core),
        in_Ln=balanced,
        in_On=True,
        level=level,
        core_states=len(core.states),
        unbalanced=witness,
    )


def check_permutation_state(t, q):
    """Analysis of a digit-reading state's one-letter outputs.

    Reports whether they are single letters forming a permutation, and,
    when the state is its own target on every letter, that the local map
    is the corresponding iterated-permutation twist.

    Returns (is_permutation, sigma or None, is_twist)."""
    if t.mode != CORE and q == t.initial:
        raise TransducerError("the initial state reads root letters")
    outs = []
    targets = []
    for x in range(t.n):
        w, tgt = t.step(q, x)
        outs.append(w)
        targets.append(tgt)
    if any(len(w) != 1 for w in outs):
        return False, None, False
    image = [w[0] for w in outs]
    if sorted(image) != list(range(t.n)):
        return False, None, False
    sigma = tuple(image)
    is_twist = all(tgt == q for tgt in targets)
    return True, sigma, is_twist
