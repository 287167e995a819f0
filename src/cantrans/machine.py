"""Finite asynchronous transducers acting on C_{n,r} and on C_n.

Two flavours share one type:

* initial mode: a machine over C_{n,r} with a distinguished initial
  state q0.  q0 alone reads the r root letters; every other state reads
  the n digits.  States split into R (no output emitted yet on any path
  from q0) and S (the leading root letter is already out); the split is
  derived from the transition table, not stored.

* core mode: a non-initial machine over C_n.  Every state reads every
  digit and all outputs are digit words.  An optional `initial` marks a
  preferred start state (set on cores produced as local actions); it is
  ignored by canonical forms.

Transducers are immutable after construction; all operations here are
pure functions.  A machine's private `_known` slot records what is known
of it: nothing, that it is valid (see check_valid), or that it is
minimal (see minimize._reduce).  Its `_level` slot records what is known
of its synchronization: nothing, that it synchronizes (core products and
inverse cores, see synchro.core_product), its level, or that it does not
synchronize (both recorded by synchro._collapse).  The table never
changes, so neither fact goes stale; the public constructor and relabel
start a machine knowing nothing.
"""

from itertools import chain, compress, count, product, repeat
from operator import add, itemgetter, ne, not_

from .words import (
    EMPTY,
    Alphabet,
    EventuallyPeriodicPoint,
    WordError,
    check_word_shape,
    format_letter,
    format_word,
    is_digit_word,
    is_root,
    is_rooted,
    word_subtract,
    _words_in_range,
)

INITIAL = "initial"
CORE = "core"

# what a machine's `_known` slot records, besides None (nothing)
_VALID = "valid"
_MINIMAL = "minimal"

# what a machine's `_level` slot records, besides None (nothing) and an
# int (its synchronization level)
_SYNCHRONIZES = "synchronizes"
_NOT_SYNCHRONIZING = "not synchronizing"


class TransducerError(ValueError):
    pass


class InvalidTransducer(TransducerError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnboundedOutput(TransducerError):
    """A state's guaranteed output grows without bound (the machine
    squeezes a whole cone towards a single point; no homeomorphism
    does that)."""


class Transducer:
    __slots__ = ("n", "r", "mode", "states", "initial", "trans", "_known",
                 "_level")

    def __init__(self, n, r, mode, states, initial, trans):
        """trans maps (state, letter) -> (output word, target state)."""
        if mode not in (INITIAL, CORE):
            raise TransducerError(f"unknown mode {mode!r}")
        if mode == INITIAL:
            Alphabet(n, r)  # bounds check
            if initial is None:
                raise TransducerError("initial mode needs an initial state")
        else:
            if n < 2:
                raise TransducerError("need n >= 2")
            r = None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(
            self, "trans", {k: (tuple(w), q) for k, (w, q) in trans.items()}
        )
        object.__setattr__(self, "_known", None)
        object.__setattr__(self, "_level", None)

    @classmethod
    def _own(cls, n, r, mode, states, initial, trans, known):
        """A machine on a table that library code has just built from a
        valid machine's parts: `states` a tuple and `trans` a dict of
        (word tuple, target) values, both taken as they are and owned by
        the machine from here on, and `known` what its builder knows of
        it (None, _VALID or _MINIMAL); its level is not known.  The
        public constructor's checks and its copy of every transition are
        skipped."""
        t = object.__new__(cls)
        for slot, value in zip(cls.__slots__, (n, r, mode, states, initial,
                                               trans, known, None)):
            object.__setattr__(t, slot, value)
        return t

    def _know(self, fact):
        """Record `fact` in the `_known` slot."""
        object.__setattr__(self, "_known", fact)

    def _know_level(self, level):
        """Record `level` in the `_level` slot: _SYNCHRONIZES, the level
        or _NOT_SYNCHRONIZING."""
        object.__setattr__(self, "_level", level)

    def __setattr__(self, *_):
        raise AttributeError("Transducer is immutable")

    def __repr__(self):
        kind = (f"C_{self.n},{self.r}" if self.mode == INITIAL
                else f"C_{self.n} core")
        return f"<Transducer {kind} states={len(self.states)}>"

    @property
    def alphabet(self):
        if self.mode != INITIAL:
            raise TransducerError("core-mode machine has no (n, r) alphabet")
        return Alphabet(self.n, self.r)

    def input_letters(self, state):
        """Letters admissible at `state`, in canonical order."""
        if self.mode == INITIAL and state == self.initial:
            return tuple(-(k + 1) for k in range(self.r))
        return tuple(range(self.n))

    def step(self, state, letter):
        try:
            return self.trans[(state, letter)]
        except KeyError:
            raise TransducerError(
                f"no transition ({state!r}, {format_letter(letter)})"
            ) from None

    def max_output_len(self):
        return max((len(w) for w, _ in self.trans.values()), default=0)

    def reachable(self, start=None):
        """The set of states reachable from `start` (default: the
        initial state)."""
        if start is None:
            start = self.initial
        if start is None:
            raise TransducerError("no start state given")
        return set(_bfs_order(self, start))

    def pre_root_states(self):
        """The R part of the state split: states reachable from q0 along
        transitions that have emitted nothing yet, found by _bfs_order on
        the empty-output transitions alone.  Only meaningful for valid
        initial-mode machines."""
        if self.mode != INITIAL:
            return set()
        get = self.trans.get

        def silent(key):
            edge = get(key)
            return edge if edge is not None and not edge[0] else None

        return set(_bfs_order(self, self.initial, silent))


def validate(t):
    """All non-degeneracy checks; returns a list of violation strings.

    The checks run in five stages, in this order; a stage that finds a
    violation returns the messages found so far, and later stages do not
    run:

    1. state names: at least one, no name twice, and the initial state
       (a core's preferred start, when it has one) is among the states;
    2. the table: exactly one transition per state and admissible
       letter, the root letters at the initial state and the digits
       everywhere else (missing pairs, then stray ones);
    3. the transitions, in table order: each target is a state, and each
       output word has a root letter at most in front, only root letters
       of the alphabet (none in a core) and only digits below n;
    4. initial mode: no transition enters the initial state; the
       pre-root states (reached from it with empty output) are entered
       only from one another with empty output and left with a rooted
       output; every other transition writes digits only;
    5. no cycle of transitions with empty output.

    On a valid machine stages 2 and 3 are a few passes at C speed over
    the table: a count, set inclusions, and the least and greatest first
    letter and other letter of the distinct output words.  Stage 4 tests
    w[0] of each transition's word and stage 5 searches the empty-output
    transitions only.  The per-letter loops that word the messages run
    only in a stage that fails."""
    out = []
    states = set(t.states)
    if not states:
        out.append("no states")
    if len(states) != len(t.states):
        out.append("duplicate state names")
    if t.mode == INITIAL and t.initial not in states:
        out.append(f"initial state {t.initial!r} not in state list")
    if t.mode == CORE and t.initial is not None and t.initial not in states:
        out.append(f"start state {t.initial!r} not in state list")

    trans = t.trans
    if out or not _complete_table(t, states):
        expected = set()
        for q in t.states:
            for x in t.input_letters(q):
                expected.add((q, x))
        for key in expected - set(trans):
            q, x = key
            out.append(f"incomplete transition table: missing "
                       f"({q!r}, {format_letter(x)})")
        for key in set(trans) - expected:
            q, x = key
            out.append(f"stray transition ({q!r}, {format_letter(x)})")
        if out:
            return out

    targets = set(map(itemgetter(1), trans.values()))
    words = set(map(itemgetter(0), trans.values()))
    if not (states.issuperset(targets) and
            _words_in_range(words, t.n, t.r or 0)):
        out = _transition_violations(t, states)
        if out:
            return out

    if t.mode == INITIAL:
        if t.initial in targets:
            for (q, x), (w, tgt) in trans.items():
                if tgt == t.initial:
                    out.append(f"initial state has an incoming transition "
                               f"from ({q!r}, {format_letter(x)})")
        pre = t.pre_root_states()
        # shapes are checked: a word is rooted exactly when w[0] < 0
        for (q, x), (w, tgt) in trans.items():
            if tgt in pre:
                if q not in pre or w:
                    out.append(
                        f"transition ({q!r}, {format_letter(x)}) enters a "
                        "pre-root state with nonempty output"
                    )
            elif q in pre:
                if not w or w[0] >= 0:
                    out.append(
                        f"transition ({q!r}, {format_letter(x)}) leaves the "
                        f"pre-root region with non-rooted output "
                        f"{format_word(w)!r}"
                    )
            elif w and w[0] < 0:
                out.append(
                    f"post-root transition ({q!r}, {format_letter(x)}) "
                    f"emits root letters: {format_word(w)!r}"
                )
        if out:
            return out

    if EMPTY in words:
        cyc = _epsilon_cycle(t)
        if cyc is not None:
            out.append("epsilon-output cycle through " +
                       " -> ".join(repr(q) for q in cyc))
    return out


def _complete_table(t, states):
    """Whether the transition keys are exactly the admissible (state,
    letter) pairs, for a machine whose state names are distinct and
    include its initial state: as many keys as pairs, and every key
    admissible.  In initial mode the initial state has a key for each
    root letter and none for a digit, and no other key has a root
    letter."""
    trans = t.trans
    if not states.issuperset(map(itemgetter(0), trans)):
        return False
    letters = set(map(itemgetter(1), trans))
    digits = range(t.n)
    if t.mode == CORE:
        return (len(trans) == len(states) * t.n and
                letters.issubset(digits))
    q0 = t.initial
    roots = t.input_letters(q0)
    return (len(trans) == (len(states) - 1) * t.n + t.r and
            letters.issubset((*roots, *digits)) and
            sum(map((0).__gt__, map(itemgetter(1), trans))) == t.r and
            all((q0, x) in trans for x in roots) and
            not any((q0, d) in trans for d in digits))


def _transition_violations(t, states):
    """validate's stage 3 messages, letter by letter, in table order."""
    out = []
    for (q, x), (w, tgt) in t.trans.items():
        if tgt not in states:
            out.append(f"transition ({q!r}, {format_letter(x)}) targets "
                       f"unknown state {tgt!r}")
            continue
        try:
            check_word_shape(w)
        except WordError as e:
            out.append(f"output of ({q!r}, {format_letter(x)}): {e}")
            continue
        for y in w:
            if is_root(y):
                if t.mode == CORE or -y - 1 >= t.r:
                    out.append(f"output of ({q!r}, {format_letter(x)}) uses "
                               f"root letter {format_letter(y)} out of range")
            elif y >= t.n:
                out.append(f"output of ({q!r}, {format_letter(x)}) uses "
                           f"digit {y} out of range")
    return out


def _epsilon_cycle(t):
    """A cycle along transitions with empty output, or None.  Depth-first
    search with an explicit stack, so long empty-output chains need no
    recursion.  Searches start, in state order, only at states with an
    empty-output transition: no other state lies on such a cycle, and a
    search from one would end at once."""
    eps = {}
    for (q, _x), (w, tgt) in t.trans.items():
        if not w:
            eps.setdefault(q, []).append(tgt)
    color = {}
    for root in filter(eps.__contains__, t.states):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        stack = [iter(eps[root])]
        while stack:
            for tgt in stack[-1]:
                c = color.get(tgt)
                if c == 1:
                    return path[path.index(tgt):] + [tgt]
                if c is None:
                    color[tgt] = 1
                    path.append(tgt)
                    stack.append(iter(eps.get(tgt, ())))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def check_valid(t):
    """t itself when validate finds nothing, else InvalidTransducer with
    the violations.  A pass is recorded on t, whose table never changes,
    so a machine known to be valid returns at once."""
    if t._known is None:
        violations = validate(t)
        if violations:
            raise InvalidTransducer(violations)
        t._know(_VALID)
    return t


def run_word(t, state, word):
    """Extended transition/output: feed `word` from `state`, returning
    (output, end state).  Admissibility is checked eagerly: rooted words
    only from the initial state, digit words never from it."""
    if state not in t.states:
        raise TransducerError(f"unknown state {state!r}")
    if t.mode == INITIAL:
        if is_rooted(word) and state != t.initial:
            raise TransducerError("rooted word fed to a non-initial state")
        if word and not is_rooted(word) and state == t.initial:
            raise TransducerError("digit word fed to the initial state")
    elif not is_digit_word(word):
        raise TransducerError("core-mode machine only reads digit words")
    out = []
    q = state
    for x in word:
        w, q = t.step(q, x)
        out.extend(w)
    return tuple(out), q


def guaranteed_output(t):
    """For each state q, the longest word every sufficiently long run
    from q is certain to emit.  Computed as the least fixpoint of

        v(q) = LCP over letters x of  output(x, q) + v(target(x, q)),

    iterated from v == empty; a pass count cap of
    |Q| * (1 + max output length) guards the divergent case."""
    return dict(zip(t.states, _guaranteed_output(_View(t))))


class _View:
    """A machine's transition table on integers, built for one kernel
    call: the states (all of the machine's by default) numbered by
    position, with a name -> number map, the number of the entry (None
    in core mode, or when the entry is not among the states), and per
    state its letters in canonical order and, letter by letter, the
    output words and target numbers (rows are tuples; step 1 of the
    reduction replaces output rows whole).  The entry's row holds the
    root letters -1, -2, ... at 0, 1, ....  The states passed must be
    closed under transitions; a target outside them raises
    TransducerError.

    The table is built at C speed: one lookup of every digit row in
    state order (plus the entry's root row, in initial mode), one map of
    the targets to numbers, and the columns cut into rows; the digit
    rows share one letters tuple.  Only a lookup that fails runs the
    letter loop of _View._fail, which words the error for the first
    failing state."""

    __slots__ = ("states", "index", "entry", "letters", "outs", "targets")

    def __init__(self, t, states=None):
        self.states = states = t.states if states is None else tuple(states)
        self.index = index = dict(zip(states, range(len(states))))
        trans, n = t.trans, t.n
        digits = tuple(range(n))
        entry = index.get(t.initial) if t.mode == INITIAL else None
        self.entry = entry
        readers = states if entry is None else \
            states[:entry] + states[entry + 1:]
        try:
            edges = list(map(trans.__getitem__, product(readers, digits)))
            outs = list(map(itemgetter(0), edges))
            targets = list(map(index.__getitem__, map(itemgetter(1), edges)))
            if entry is not None:
                roots = t.input_letters(t.initial)
                row = list(map(trans.__getitem__,
                               zip(repeat(t.initial), roots)))
                root_outs = tuple(map(itemgetter(0), row))
                root_targets = tuple(map(index.__getitem__,
                                         map(itemgetter(1), row)))
        except KeyError:
            self._fail(t)
        self.letters = [digits] * len(readers)
        self.outs = list(zip(*[iter(outs)] * n))
        self.targets = list(zip(*[iter(targets)] * n))
        if entry is not None:
            self.letters.insert(entry, roots)
            self.outs.insert(entry, root_outs)
            self.targets.insert(entry, root_targets)

    @classmethod
    def _of_rows(cls, states, letters, outs, targets, entry=None):
        """The view of a machine whose rows are already on state numbers,
        such as a pair product's: `letters`, `outs` and `targets` are
        lists of rows, one per state, and `entry` is the entry's number.
        No name -> number map is built (index is None): no kernel looks
        such a machine's states up by name."""
        view = object.__new__(cls)
        view.states, view.index, view.entry = states, None, entry
        view.letters, view.outs, view.targets = letters, outs, targets
        return view

    def _fail(self, t):
        """Raise the error of the first state, in state order, whose row
        cannot be built: a missing transition (the first in letter order)
        before a target outside the states."""
        for q in self.states:
            row = [t.step(q, x) for x in t.input_letters(q)]
            for _, tgt in row:
                if tgt not in self.index:
                    raise TransducerError(
                        f"state {q!r} leads to {tgt!r}, outside the "
                        "states considered"
                    )
        raise AssertionError("a row lookup failed, but no letter does")


def _guaranteed_output(view):
    """guaranteed_output as a list by state number.  The iteration is
    Jacobi, each pass computing from the previous pass's values alone,
    but a pass recomputes only the predecessors of the states whose value
    changed in the pass before (no other value can change), so it takes
    the same passes, under the same cap, as recomputing every state.

    A row's words out + v(target) are built by one map, and their LCP is
    the LCP of the least and the greatest of them (a word between two
    others shares their common prefix): a first-letter test settles most
    rows, and only a shared first letter starts a scan.  The rows to
    recompute are found by one set test per row, at C speed."""
    outs, targets = view.outs, view.targets
    size = len(targets)
    longest = max(map(len, chain.from_iterable(outs)), default=0)
    cap = max(1, size * (1 + longest))
    v = [EMPTY] * size
    owed = v.__getitem__
    dirty = range(size)
    for _ in range(cap + 1):
        changed = []
        for i in dirty:
            words = list(map(add, outs[i], map(owed, targets[i])))
            lo, hi = min(words), max(words)
            if lo and lo[0] == hi[0]:
                # lo <= hi, so lo is the shorter one when it prefixes hi
                new = lo[:next(compress(count(), map(ne, lo, hi)), len(lo))]
            else:
                new = EMPTY
            if new != v[i]:
                changed.append((i, new))
        if not changed:
            return v
        for i, new in changed:
            v[i] = new
        moved = {i for i, _ in changed}
        dirty = list(compress(count(), map(not_, map(moved.isdisjoint,
                                                     targets))))
    raise UnboundedOutput(
        "guaranteed output unbounded: some state maps its whole cone "
        "arbitrarily close to a single point"
    )


def theta(t, nu):
    """Root of the image cone of `nu`: the output emitted on reading nu
    from the initial state plus the guaranteed output of the state
    reached.  theta(empty) is the guaranteed output of q0 itself (empty
    for surjective maps whenever r >= 2; it carries the forced root
    letter when r == 1)."""
    if t.mode != INITIAL:
        raise TransducerError("theta needs an initial-mode machine")
    out, q = run_word(t, t.initial, nu)
    v = guaranteed_output(t)
    return out + v[q]


def local_action(t, nu):
    """The machine computing the tail map x -> tail of (nu x) under t.

    Returns t itself for nu == empty.  Otherwise returns a core-mode
    machine rooted at the state reached by nu, with outputs shifted so
    the response is complete.  Defined once the image cone's root letter
    is settled (theta(nu) nonempty); for shorter nu the tail map lands
    in C_{n,r} rather than C_n and is not representable here.  The
    table is built in breadth-first order from that state.
    """
    if t.mode != INITIAL:
        raise TransducerError("local_action needs an initial-mode machine")
    if nu == EMPTY:
        return t
    out, s = run_word(t, t.initial, nu)
    v = guaranteed_output(t)
    if out == EMPTY and v[s] == EMPTY:
        raise TransducerError(
            f"local action at {format_word(nu)!r} maps into C_(n,r): the "
            "root letter of the image is not yet determined; extend nu"
        )
    keep = _bfs_order(t, s)
    trans = {}
    for q in keep:
        for x in range(t.n):
            w, tgt = t.step(q, x)
            trans[(q, x)] = (word_subtract(w + v[tgt], v[q]), tgt)
    return check_valid(
        Transducer(t.n, None, CORE, sorted(keep, key=str), s, trans)
    )


def eval_point(t, point, state=None):
    """Image of an eventually periodic point, again in normal form.

    Feeds the preperiod, then pumps the period until the machine state
    repeats (at most |Q| + 1 pumps); the outputs collected up to the
    first repeat become the image's preperiod and the outputs around the
    state cycle its period.  The start state and the preperiod are
    checked as run_word checks them; the period is a digit word, which
    every state but the initial one reads, so the pumps look the
    transitions up directly and the cost is linear in pumps times period
    length."""
    if state is None:
        if t.initial is None:
            raise TransducerError("no start state for evaluation")
        state = t.initial
    out_pre, q = run_word(t, state, point.preperiod)
    seen = {q: len(out_pre)}
    collected = list(out_pre)
    trans, period = t.trans, point.period
    entry = t.initial if t.mode == INITIAL else None
    for _ in range(len(t.states) + 1):
        if entry is not None and q == entry:
            raise TransducerError("digit word fed to the initial state")
        for x in period:
            w, q = trans.get((q, x)) or t.step(q, x)
            collected.extend(w)
        if q in seen:
            cut = seen[q]
            cycle_out = tuple(collected[cut:])
            if not cycle_out:
                raise TransducerError(
                    "degenerate machine: a period pumps empty output"
                )
            return EventuallyPeriodicPoint(tuple(collected[:cut]), cycle_out)
        seen[q] = len(collected)
    raise AssertionError("state failed to repeat within |Q|+1 pumps")


def canonical_form(t):
    """Deterministic byte serialization, equal for two machines exactly
    when they are strongly isomorphic (a state bijection commuting with
    transitions and outputs).

    Initial mode (header T1|initial): breadth-first renumbering from q0,
    letters taken in canonical order.  Core mode (header T2|core): the
    breadth-first renumbering from the root _best_core_order picks; the
    preferred-start marker is ignored."""
    if t.mode == INITIAL:
        view = _View(t)
        order = _bfs(view.targets, view.index[t.initial])
        if len(order) != len(t.states):
            raise TransducerError(
                "unreachable states present; minimize before canonical_form"
            )
        return _serialize(view, order, f"T1|initial|n={t.n}|r={t.r}")
    view = _View(t)
    if not _strongly_connected(view.targets):
        raise TransducerError("disconnected core has no canonical form")
    return _serialize(view, _best_core_order(view), f"T2|core|n={t.n}")


def _core_table(view, order):
    """Renumbered transition table as a nested tuple of ints, cheap to
    build and compare."""
    pos = {i: k for k, i in enumerate(order)}
    return tuple((pos[j], w) for i in order
                 for w, j in zip(view.outs[i], view.targets[i]))


def _refine(view, colour, ranked=True):
    """Moore refinement from the seed colours, a list by state number.

    A state's signature is its colour followed by (output word, target
    colour) per letter, and its new colour numbers its signature among
    the distinct signatures, until the number of colours stops growing
    or every state has its own; the colours of that last round are
    returned.  With `ranked`, the number is the signature's rank in
    sorted order, which ignores state names, so the colours are
    invariant under renaming (canonical_form needs that).  Without it,
    signatures are numbered in order of first appearance through a dict,
    which skips the sort and gives the same partition (the merge needs
    only that).  Once the partition is discrete, another round would
    return the same colours (ranked: every signature leads with a
    distinct colour), so refinement stops there.

    Each round zips whole columns, one per letter, each taken from the
    rows by itemgetter: output words as their numbers among the
    machine's distinct words (ranks in sorted order, which sort as the
    words do, when `ranked`), and target colours.  A row short of
    letters (the initial state's) is padded with word number -1, below
    every word, and its own colour, so it sorts as the shorter signature
    would."""
    outs, targets = view.outs, view.targets
    size = len(outs)
    words = chain.from_iterable(outs)
    words = sorted(set(words)) if ranked else dict.fromkeys(words)
    word_number = dict(zip(words, count()))
    width = max(map(len, outs), default=0)
    short = list(compress(count(), map(width.__gt__, map(len, outs))))
    if short:
        word_number[None] = -1
        outs, targets = list(outs), list(targets)
        for i in short:
            pad = width - len(outs[i])
            outs[i] = (*outs[i], *[None] * pad)
            targets[i] = (*targets[i], *[i] * pad)
    word_cols = [list(map(word_number.__getitem__, map(itemgetter(x), outs)))
                 for x in range(width)]
    target_cols = [list(map(itemgetter(x), targets)) for x in range(width)]
    classes = len(set(colour))
    while classes < size:
        cols = [colour]
        for words_x, targets_x in zip(word_cols, target_cols):
            cols.append(words_x)
            cols.append(map(colour.__getitem__, targets_x))
        sigs = list(zip(*cols))
        distinct = sorted(set(sigs)) if ranked else dict.fromkeys(sigs)
        number = dict(zip(distinct, count()))
        colour = list(map(number.__getitem__, sigs))
        if len(number) == classes:
            break
        classes = len(number)
    return colour


def _best_core_order(view):
    """The core-mode canonical labeling of a strongly connected core, as
    state numbers in breadth-first order from the chosen root.

    _refine colours the states from a single seed colour.  The candidate
    roots are the states of the smallest colour class (ties to the lower
    colour); among them the breadth-first renumbering with the least
    transition table wins.  Colours are invariant under renaming, so the
    candidate set is too, and the result is a strong-isomorphism
    invariant even when states are equivalent.  On a minimal core the
    partition is discrete and a single breadth-first walk remains."""
    colour = _refine(view, [0] * len(view.states))
    classes = {}
    for i, c in enumerate(colour):
        classes.setdefault(c, []).append(i)
    roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]
    if len(roots) == 1:
        return _bfs(view.targets, roots[0])
    return min((_bfs(view.targets, i) for i in roots),
               key=lambda order: _core_table(view, order))


def _bfs(targets, *starts):
    """State numbers in breadth-first order from `starts`, each taken
    once, in order; targets[i] lists state i's targets in letter order.
    Reversed edges as `targets` walk back to what reaches the starts."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for i in order:
        for j in targets[i]:
            if j not in seen:
                seen.add(j)
                order.append(j)
    return order


def _first_repeat(start, step):
    """The first node that the walk start, step(start),
    step(step(start)), ... meets twice."""
    seen = set()
    node = start
    while node not in seen:
        seen.add(node)
        node = step(node)
    return node


def _bfs_order(t, start, get=None):
    """State names in breadth-first order from `start`, as a dict name ->
    position; each state's letters are taken in canonical order (the
    digits, or the entry's root letters), and a missing transition is
    skipped.  Transitions are looked up by `get`, t.trans.get by
    default; pre_root_states passes one that finds the empty-output
    transitions alone."""
    if get is None:
        get = t.trans.get
    digits = range(t.n)
    entry = t.initial if t.mode == INITIAL else None
    order = {start: 0}
    todo = [start]
    for q in todo:
        for x in t.input_letters(q) if q == entry else digits:
            tgt = get((q, x))
            if tgt is not None and tgt[1] not in order:
                order[tgt[1]] = len(order)
                todo.append(tgt[1])
    return order


def _serialize(view, order, header):
    pos = {i: k for k, i in enumerate(order)}
    words = {w: format_word(w) for w in {w for row in view.outs for w in row}}
    letters = {x: format_letter(x) for x in {x for row in view.letters
                                             for x in row}}
    parts = [header, str(len(order))]
    for i in order:
        for x, w, j in zip(view.letters[i], view.outs[i], view.targets[i]):
            parts.append(f"{pos[i]}.{letters[x]}>{pos[j]}:{words[w]}")
    return "|".join(parts).encode()


def _strongly_connected(targets):
    """Whether every state number reaches every other; targets[i] lists
    state i's targets.  Breadth-first from state 0 along the edges, then
    along the reversed edges."""
    if not targets:
        return False
    if len(_bfs(targets, 0)) != len(targets):
        return False
    preds = [[] for _ in targets]
    for i, row in enumerate(targets):
        for j in row:
            preds[j].append(i)
    return len(_bfs(preds, 0)) == len(targets)


def relabel(t, mapping):
    """Rename states through `mapping` (a dict); shape is preserved."""
    if len(set(mapping.values())) != len(t.states):
        raise TransducerError("relabeling is not a bijection")
    trans = {
        (mapping[q], x): (w, mapping[tgt])
        for (q, x), (w, tgt) in t.trans.items()
    }
    initial = mapping[t.initial] if t.initial is not None else None
    return Transducer(t.n, t.r, t.mode, [mapping[q] for q in t.states],
                      initial, trans)
