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
from itertools import compress, count

from .words import EMPTY, validate_prefix_code
from .machine import CORE, TransducerError, canonical_form, _view_of, \
    _words
from .algebra import NotInvertible, PrefixCodeMap, invert
from .minimize import minimize
from .synchro import NotSynchronizing, _synchronizes, core_of, \
    core_product, invert_core, is_bisynchronizing, is_identity_core


# the words per state and letter of the minimal machine past which the
# walk of is_in_Gnr gives up and the inversion decides (see is_in_Gnr)
_CODE_BUDGET = 4


def is_in_Gnr(t):
    """Membership in Higman's G_{n,r}: the map is a prefix replacement
    map u.y -> R(u).y between complete prefix codes; equivalently, the
    minimal machine is bi-synchronizing and its core is the one
    identity-echo state e (a state that writes each digit it reads and
    stays).

    An initial-mode machine is minimized once and decided by
    _prefix_walk, with no inversion and no collapse:

    * a minimal machine has at most one such e, since two would be
      equivalent, and a member's core is {e};
    * a member synchronizes onto e, so no cycle of states reached from
      the entry avoids e (pre-root states lie on no cycle, which would
      write nothing): a path that repeats a state before e means no;
    * otherwise every path from the entry meets e within |Q| letters,
      the inputs u on which a run first enters e form a complete prefix
      code, and the map sends u.y to R(u).y, R(u) the output written by
      then.  That map is a homeomorphism, and then a prefix replacement
      map, exactly when the words R(u) form a complete prefix code
      (comparable or equal words make two cones overlap, a Kraft sum
      below r leaves a cone uncovered), which words.validate_prefix_code
      decides, rootedness included.

    A twist of each of the first k digits has n^k words on k + 2
    states, so the walk counts the code first, and a code of more than
    _CODE_BUDGET * n * |Q| words goes to the inversion.  By then the
    walk has shown that every path from the entry meets e, so the map is
    u.y -> R(u).y and only whether it is a homeomorphism is open: it is
    a member exactly when invert finds its inverse.  A core-mode machine
    is a member when it is bi-synchronizing and its core (core_of reads
    the level is_bisynchronizing left) is the identity-echo state.  The
    budget of 4 keeps the benchmark's compositions of two random prefix
    replacement maps (at most 0.7 n |Q| words) and their SAMPLE_3_2
    conjugates (up to about 2.4 n |Q|) on the walk.  On the deep twists of C_2,1 invert alone
    takes 190-350 us, and the walk costs less up to about 5 n |Q| words
    (200 us at 4 n |Q|, 430 us at 7; Python 3.11 on a 2-vCPU x86-64
    host)."""
    return _membership(t)[0]


def _membership(t):
    """(verdict, why) for is_in_Gnr and member --why: `why` is the
    member's PrefixCodeMap or the reason found by the walk, or says that
    the inversion decided."""
    m = minimize(t)
    if m.mode == CORE:
        return (is_bisynchronizing(m)[0] and is_identity_core(core_of(m)),
                "decided by inversion: a core-mode machine")
    budget = _CODE_BUDGET * m.n * len(m.states)
    walked = _prefix_walk(m, budget)
    if walked is not None:
        return walked
    why = (f"decided by inversion: the code passes the walk's budget of "
           f"{budget} words")
    try:
        invert(m)
    except NotInvertible:
        return False, why
    return True, why


def prefix_code_map_of(t):
    """The prefix replacement map of an element of G_{n,r}: its
    PrefixCodeMap, whose domain words u are the inputs on which the
    minimal machine first enters its identity-echo state and whose range
    words R(u) are the outputs written by then, in the walk's order (see
    is_in_Gnr).  A machine that is no member is refused with
    TransducerError naming the reason: no identity-echo state, a state
    repeated on a path to it, or the range code's diagnostic.  The walk
    has no budget here: the map is the answer.

    The map holds no caret (n domain words u x, one per digit x, sent to
    v x): the minimal machine writes what a state is bound to write
    before entering it, so the state u leads to would write each digit
    it reads and go on to e, and would have been merged with e."""
    if t.mode == CORE:
        raise TransducerError("prefix_code_map_of expects an initial-mode "
                              "machine")
    ok, found = _prefix_walk(minimize(t))
    if not ok:
        raise TransducerError(f"not in G_{t.n},{t.r}: {found}")
    return found


def _prefix_walk(m, budget=None):
    """The walk of is_in_Gnr on a minimal initial-mode machine m: (True,
    its PrefixCodeMap) for a member, (False, the reason) for a
    non-member, or None when the code has more than `budget` words.

    A depth-first pass on m's rows counts the paths from each state to
    the identity-echo state e, a state's after its targets', e's being
    the one empty path; a target entered and not yet counted lies on the
    current path, which then repeats it.  Only then are the paths from
    the entry spelled out, in letter order, as (input, output) pairs:
    the code's words and their images."""
    view = _view_of(m)
    letters, outs, targets = view.letters, view.outs, view.targets
    echo = tuple(zip(range(m.n)))
    e = next((i for i in compress(count(), map(echo.__eq__, outs))
              if targets[i].count(i) == m.n), None)
    if e is None:
        return False, "no identity-echo state"
    paths = {e: 1}
    entered = set()
    todo = [view.entry]
    while todo:
        i = todo[-1]
        if i in paths:
            todo.pop()
        elif i in entered:
            todo.pop()
            paths[i] = sum(map(paths.__getitem__, targets[i]))
        else:
            entered.add(i)
            ahead = [j for j in targets[i] if j not in paths]
            for j in ahead:
                if j in entered:
                    return False, (f"a path from the entry repeats state "
                                   f"{view.states[j]!r} before the "
                                   "identity-echo state")
            todo += ahead
    if budget is not None and paths[view.entry] > budget:
        return None
    code = []
    todo = [(view.entry, EMPTY, EMPTY)]
    while todo:
        i, u, v = todo.pop()
        if i == e:
            code.append((u, v))
        else:
            todo += [(j, u + (x,), v + w) for x, w, j in
                     zip(letters[i][::-1], outs[i][::-1], targets[i][::-1])]
    domain, range_ = zip(*code)
    ok, why = validate_prefix_code(range_, m.alphabet)
    if not ok:
        return False, f"range code invalid: {why}"
    return True, PrefixCodeMap(domain, range_)


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
