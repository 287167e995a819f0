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
pure functions.  A machine's private `_known` slot records whether it is
known to be minimal (see minimize._reduce); minimize returns such a
machine as it is.  Its `_level` slot records what is known of its
synchronization: nothing, that it synchronizes (core products and
inverse cores), its level, or that it does not synchronize (both found
by synchro._collapse).  A machine never changes, so neither fact goes
stale; the public constructor and relabel start a machine knowing
nothing.

Its `_rows` slot holds the integer rows (a _View of its own states),
which kernels read through _view_of and which never change once built.
A machine that holds rows is valid: the library builds a machine on rows
only when it is valid by construction, and validate keeps the view it
checks as the rows of a machine that passes.  Such a machine builds its
table `trans` from its rows on first read and keeps it.

_view_of is the one gate for a machine that holds a table and no rows
(one from the public constructor or relabel): the first read of it by a
kernel or by a public reader (run_word, eval_point, Transducer.step,
reachable, pre_root_states, max_output_len, document.serialize)
validates it, and an invalid machine is refused there with
InvalidTransducer, whose message is its validate list.  Below the gate
every path reads valid rows.  Only the constructor, `trans`,
input_letters, validate, check_valid, relabel and algebra.embed_core
read the table of a machine that has not been checked.
"""

from collections import Counter
from itertools import chain, compress, count, filterfalse, product, repeat
from operator import add, contains, eq, itemgetter, ne, not_

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
    """A machine on its transition table, `trans`, which maps
    (state, letter) -> (output word, target state).  The public
    constructor and relabel give a machine that table; validate checks
    it on a view, which a machine that passes keeps in `_rows` in place
    of the table, and every reader but the table's own validates it
    first (see _view_of).  The library builds its valid machines on rows
    (see Transducer._of_rows).  Kernels read the rows, and a machine that
    holds them builds its table from them on first read of `trans`."""

    __slots__ = ("n", "r", "mode", "states", "initial", "_trans", "_known",
                 "_level", "_rows")

    def __init__(self, n, r, mode, states, initial, trans):
        """trans maps (state, letter) -> (output word, target state)."""
        r = _checked_r(n, r, mode)
        if mode == INITIAL and initial is None:
            raise TransducerError("initial mode needs an initial state")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(
            self, "_trans", {k: (tuple(w), q) for k, (w, q) in trans.items()}
        )
        object.__setattr__(self, "_known", None)
        object.__setattr__(self, "_level", None)
        object.__setattr__(self, "_rows", None)

    @classmethod
    def _of_rows(cls, n, r, mode, initial, rows, known):
        """A machine on integer rows that library code has just built
        from a valid machine's parts, or valid by construction, and so
        valid itself: `rows` a _View of the machine's own states
        (rows.states, a tuple, is its state tuple), owned by the machine
        from here on and never changed, and `known` what its builder
        knows of it (None or _MINIMAL); its level is not known.  The
        public constructor's checks are skipped, and the table is built
        from the rows on first read of `trans`."""
        t = object.__new__(cls)
        for slot, value in zip(cls.__slots__, (n, r, mode, rows.states,
                                               initial, None, known, None,
                                               rows)):
            object.__setattr__(t, slot, value)
        return t

    @property
    def trans(self):
        """The table (state, letter) -> (output word, target state), in
        state order, then letter order, for a machine built on rows; it
        is built on first read and kept."""
        table = self._trans
        if table is None:
            table = self._rows._table()
            object.__setattr__(self, "_trans", table)
        return table

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
        """(output word, target state) of the transition (state, letter),
        read from the machine's rows through the state-name map: one
        step builds no name-keyed table."""
        rows = _view_of(self)
        i = rows.index.get(state)
        try:
            k = rows.letters[i].index(letter)
        except (TypeError, ValueError):
            # i is None (no such state) or the state reads no such letter
            raise TransducerError(
                f"no transition ({state!r}, {format_letter(letter)})"
            ) from None
        return rows.outs[i][k], rows.states[rows.targets[i][k]]

    def max_output_len(self):
        return max(map(len, _words(self)), default=0)

    def reachable(self, start=None):
        """The set of states reachable from `start` (default: the
        initial state)."""
        rows = _view_of(self)
        if start is None:
            start = self.initial
        if start is None:
            raise TransducerError("no start state given")
        return set(map(rows.states.__getitem__,
                       _bfs(rows.targets, _number(self, rows, start))))

    def pre_root_states(self):
        """The R part of the state split: states reachable from q0 along
        transitions that have emitted nothing yet (see _pre_root); empty
        in core mode."""
        rows = _view_of(self)
        if self.mode != INITIAL:
            return set()
        return set(map(rows.states.__getitem__, _pre_root(rows)))


def _checked_r(n, r, mode):
    """r once the mode and the alphabet pass the public constructor's
    checks: None in core mode."""
    if mode == INITIAL:
        Alphabet(n, r)  # bounds check
        return r
    if mode != CORE:
        raise TransducerError(f"unknown mode {mode!r}")
    if n < 2:
        raise TransducerError("need n >= 2")
    return None


def _words(t):
    """Every output word of t's transitions (with repeats), read from its
    rows."""
    return chain.from_iterable(_view_of(t).outs)


def _pre_root(view):
    """The state numbers of an initial-mode view reached from its entry
    along empty-output transitions, in breadth-first order: the R part
    of the state split (see Transducer.pre_root_states)."""
    outs, targets = view.outs, view.targets
    order = [view.entry]
    seen = set(order)
    for i in order:
        for w, j in zip(outs[i], targets[i]):
            if not w and j not in seen:
                seen.add(j)
                order.append(j)
    return order


def validate(t):
    """All non-degeneracy checks; returns a list of violation strings.

    A machine that holds rows is valid (see the module docstring) and
    returns [] at once.  Any other is checked on the view of its table
    (_table_view) by _stages.  One that passes keeps that view as its
    rows and drops its table, in that order, so that a reader that finds
    no table finds the rows.  One that fails keeps its table and holds
    no rows: _violations words what fails, and each later call finds it
    again."""
    if t._rows is not None:
        return []
    view = _table_view(t)
    if view is None or not _stages(view, t.n, t.r):
        return _violations(t)
    object.__setattr__(t, "_rows", view)
    object.__setattr__(t, "_trans", None)
    return []


def _table_view(t):
    """validate's stages 1 and 2 (see _violations) on t's table: the view
    of it, or None when a stage fails.  Stage 2 is the view's lookups,
    where a missing transition or a target that is not a state raises
    KeyError, and a count that leaves no stray key."""
    states = t.states
    if not states or t.initial is not None and t.initial not in states:
        return None
    try:
        view = _View(t)
    except KeyError:
        return None
    if len(view.index) != len(states) or \
            len(t.trans) != sum(map(len, view.letters)):
        return None
    return view


def _stages(view, n, r):
    """Whether rows that hold each admissible transition, on states named
    once, pass validate's stages 3 to 5 on the alphabet (n, r): stage 3
    tests the distinct words; stage 4 counts the pre-root states' edges
    that write nothing or leave rooted, and all edges that enter those
    states or write a root letter, which must agree; stage 5 peels the
    empty-output edges (_silent_cycle)."""
    outs, targets, entry = view.outs, view.targets, view.entry
    words = set(chain.from_iterable(outs))
    if not _words_in_range(words, n, r or 0):
        return False
    if entry is not None:
        inside = set(_pre_root(view))
        edges = [e for i in inside for e in zip(outs[i], targets[i])]
        rooted = {w for w in words if w and w[0] < 0}
        silent = sum(not w and j != entry for w, j in edges)
        leaving = sum(w in rooted and j not in inside for w, j in edges)
        into = sum(map(inside.__contains__, chain.from_iterable(targets)))
        writing = sum(map(rooted.__contains__, chain.from_iterable(outs)))
        if (silent, leaving, silent + leaving) != (into, writing, len(edges)):
            return False
    return not (EMPTY in words and _silent_cycle(view))


def _silent_cycle(view):
    """Whether some cycle of the view writes nothing: a Kahn peel of the
    empty-output edges on state numbers, over the states that have one
    (no other state lies on such a cycle).  A state is peeled once every
    such edge into it leaves a peeled state; a cycle is left exactly
    when some state is not peeled."""
    outs, targets = view.outs, view.targets
    succ = {i: [j for w, j in zip(outs[i], targets[i]) if not w]
            for i in compress(count(), map(contains, outs, repeat(EMPTY)))}
    into = Counter(filter(succ.__contains__, chain.from_iterable(
        succ.values())))
    free = list(filterfalse(into.__getitem__, succ))
    for i in free:
        for j in filter(succ.__contains__, succ[i]):
            into[j] -= 1
            if not into[j]:
                free.append(j)
    return len(free) < len(succ)


def _violations(t):
    """validate's messages for a machine _table_view or _stages refuses,
    worded by loops over the table.

    The checks run in five stages, in this order; a stage that finds a
    violation returns the messages found so far, and later stages do not
    run:

    1. state names: at least one, no name twice, and the initial state
       (a core's preferred start, when it has one) is among the states;
    2. the table: exactly one transition per state and admissible
       letter, the root letters at the initial state and the digits
       everywhere else (missing pairs in state order, then letter
       order, then stray ones in table order);
    3. the transitions, in table order: each target is a state, and each
       output word has a root letter at most in front, only root letters
       of the alphabet (none in a core) and only digits below n;
    4. initial mode: no transition enters the initial state; the
       pre-root states (reached from it with empty output) are entered
       only from one another with empty output and left with a rooted
       output; every other transition writes digits only (the pre-root
       states are read from the view of the table, which builds once
       stages 1 to 3 pass);
    5. no cycle of transitions with empty output."""
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
    expected = {(q, x) for q in t.states for x in t.input_letters(q)}
    for q in dict.fromkeys(t.states):
        for x in t.input_letters(q):
            if (q, x) not in trans:
                out.append(f"incomplete transition table: missing "
                           f"({q!r}, {format_letter(x)})")
    for q, x in trans:
        if (q, x) not in expected:
            out.append(f"stray transition ({q!r}, {format_letter(x)})")
    if out:
        return out
    for (q, x), (w, tgt) in trans.items():
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
    if out:
        return out

    if t.mode == INITIAL:
        for (q, x), (w, tgt) in trans.items():
            if tgt == t.initial:
                out.append(f"initial state has an incoming transition "
                           f"from ({q!r}, {format_letter(x)})")
        pre = set(map(t.states.__getitem__, _pre_root(_View(t))))
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

    cyc = _epsilon_cycle(t)
    if cyc is not None:
        out.append("epsilon-output cycle through " +
                   " -> ".join(repr(q) for q in cyc))
    return out


def _epsilon_cycle(t):
    """A cycle along transitions with empty output, or None, on the table:
    validate's stage 5 message.  Depth-first search with an explicit
    stack, started, in state order, only at states with an empty-output
    transition (no other state lies on such a cycle)."""
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
    the violations; a machine that holds rows returns at once."""
    violations = validate(t)
    if violations:
        raise InvalidTransducer(violations)
    return t


def run_word(t, state, word):
    """Extended transition/output: feed `word` from `state`, returning
    (output, end state).  Admissibility is checked eagerly: rooted words
    only from the initial state, digit words never from it.  The word is
    walked on t's rows (see _walker), and the outputs are gathered in
    one list."""
    rows = _view_of(t)
    _check_start(t, state, word)
    out = []
    end = _walker(t, word)(rows, _number(t, rows, state), word, out)
    return tuple(out), rows.states[end]


def _check_start(t, state, word):
    """run_word's checks of the start state and of the word's shape."""
    if state not in t.states:
        raise TransducerError(f"unknown state {state!r}")
    if t.mode == INITIAL:
        if is_rooted(word) and state != t.initial:
            raise TransducerError("rooted word fed to a non-initial state")
        if word and not is_rooted(word) and state == t.initial:
            raise TransducerError("digit word fed to the initial state")
    elif not is_digit_word(word):
        raise TransducerError("core-mode machine only reads digit words")


def _walker(t, word, period=EMPTY):
    """The walk run_word and eval_point take on t's rows for `word` (and
    each pump of `period`), checked by _check_start.  In valid rows
    nothing enters the entry and every other state reads the n digits,
    so words that hold only a root letter of the alphabet in front and
    digits below n (one min and one max per word) are walked by
    _walk_rows, which tests no letter; any others by _walk_checked,
    which refuses the first letter its state does not read."""
    if is_rooted(word):
        if ~word[0] >= t.r:
            return _walk_checked
        word = word[1:]
    try:
        if all(not w or (min(w) >= 0 and max(w) < t.n)
               for w in (word, period)):
            return _walk_rows
    except TypeError:
        pass
    return _walk_checked


def _number(t, rows, state):
    """The number of state `state` of t in its rows: the entry's without
    a name map, any other through the rows' name map.  A name that is
    not a state is refused with TransducerError."""
    if t.mode == INITIAL and state == t.initial:
        return rows.entry
    try:
        return rows.index[state]
    except KeyError:
        raise TransducerError(f"unknown state {state!r}") from None


def _walk_rows(rows, i, word, out):
    """Feed `word` from state number i on rows that read it (see
    _walker), extending `out` with what it writes; the state number
    reached.  A leading root letter -k-1 is at the entry's position k,
    and each digit at its own position."""
    outs, targets = rows.outs, rows.targets
    letters = iter(word)
    if is_rooted(word):
        k = ~next(letters)
        out += outs[i][k]
        i = targets[i][k]
    for x in letters:
        out += outs[i][x]
        i = targets[i][x]
    return i


def _walk_checked(rows, i, word, out):
    """_walk_rows finding each letter in its state's row: a letter the
    state does not read is refused with TransducerError, worded as
    Transducer.step words a missing transition."""
    letters, outs, targets = rows.letters, rows.outs, rows.targets
    for x in word:
        try:
            k = letters[i].index(x)
        except ValueError:
            raise TransducerError(
                f"no transition ({rows.states[i]!r}, {format_letter(x)})"
            ) from None
        out += outs[i][k]
        i = targets[i][k]
    return i


def guaranteed_output(t):
    """For each state q, the longest word every sufficiently long run
    from q is certain to emit.  Computed as the least fixpoint of

        v(q) = LCP over letters x of  output(x, q) + v(target(x, q)),

    iterated from v == empty; a pass count cap of
    |Q| * (1 + max output length) guards the divergent case."""
    return dict(zip(t.states, _guaranteed_output(_view_of(t))))


class _View:
    """A machine's transitions on integers, the only form kernels read:
    the states numbered by position, the number of the entry (None in
    core mode, or when the entry is not among the states), and per state
    its letters in canonical order and, letter by letter, the output
    words and target numbers.  Rows are tuples, and neither they nor the
    lists holding them change once the view is built: a step that
    rewrites outputs builds a new view (see
    minimize._complete_responses).  The entry's row holds the root
    letters -1, -2, ... at 0, 1, ....  The name -> number map `index` is
    built on first use.

    A view is built by _View(t) from the table of a machine that holds
    no rows, by validate alone (see _table_view), which a machine that
    passes keeps as its rows.  Or it is taken from rows already on state
    numbers (_View._of_rows): the closure of a pair product, an
    inversion's machine of sets, a prefix tree, a parsed document or a
    sub-view cut by _cut.  Kernels get a machine's view through
    _view_of; `_table` builds the name-keyed table of the rows.

    Built from the table, the view covers all of t's states.  The table
    is read at C speed: one lookup of every digit row in state order
    (plus the entry's root row), one map of the targets to numbers, and
    the columns cut into rows; the digit rows share one letters tuple.
    A missing transition, or a target that is not a state, raises
    KeyError."""

    __slots__ = ("states", "_index", "entry", "letters", "outs", "targets")

    def __init__(self, t):
        self.states = states = t.states
        self._index = index = dict(zip(states, range(len(states))))
        trans, n = t.trans, t.n
        digits = tuple(range(n))
        entry = index.get(t.initial) if t.mode == INITIAL else None
        self.entry = entry
        readers = states if entry is None else \
            states[:entry] + states[entry + 1:]
        edges = list(map(trans.__getitem__, product(readers, digits)))
        outs = list(map(itemgetter(0), edges))
        targets = list(map(index.__getitem__, map(itemgetter(1), edges)))
        if entry is not None:
            roots = t.input_letters(t.initial)
            row = list(map(trans.__getitem__, zip(repeat(t.initial), roots)))
            root_outs = tuple(map(itemgetter(0), row))
            root_targets = tuple(map(index.__getitem__,
                                     map(itemgetter(1), row)))
        self.letters = [digits] * len(readers)
        self.outs = list(zip(*[iter(outs)] * n))
        self.targets = list(zip(*[iter(targets)] * n))
        if entry is not None:
            self.letters.insert(entry, roots)
            self.outs.insert(entry, root_outs)
            self.targets.insert(entry, root_targets)

    @classmethod
    def _of_rows(cls, states, letters, outs, targets, entry=None):
        """The view of rows already on state numbers: `states` the names
        by number, `letters`, `outs` and `targets` lists of rows, one
        per state, taken as they are, and `entry` the entry's number.
        The name -> number map is built on first use."""
        view = object.__new__(cls)
        view.states, view._index, view.entry = states, None, entry
        view.letters, view.outs, view.targets = letters, outs, targets
        return view

    @property
    def index(self):
        """The name -> number map, built on first use."""
        index = self._index
        if index is None:
            index = self._index = dict(zip(self.states, count()))
        return index

    def _cut(self, keep):
        """The sub-view of the state numbers `keep`, in order, numbered by
        position among them; no target leaves them."""
        position = dict(zip(keep, count()))
        states, targets = self.states, self.targets
        rows = [tuple(map(position.__getitem__, targets[i])) for i in keep]
        return _View._of_rows(tuple(map(states.__getitem__, keep)),
                              list(map(self.letters.__getitem__, keep)),
                              list(map(self.outs.__getitem__, keep)), rows,
                              position.get(self.entry))

    def _table(self):
        """The name-keyed table {(state, letter): (output, target state)}
        of the rows, in state order and then letter order, zipped from
        whole columns: (name, letter) keys from the names repeated along
        their letters, and (output, target name) values."""
        states, letters, targets = self.states, self.letters, self.targets
        keys = zip(chain.from_iterable(map(repeat, states, map(len, letters))),
                   chain.from_iterable(letters))
        values = zip(chain.from_iterable(self.outs),
                     map(states.__getitem__, chain.from_iterable(targets)))
        return dict(zip(keys, values))


def _view_of(t):
    """The integer view of all of t's states, the one way kernels and
    public readers read a machine, and the one gate for a machine not yet
    checked: its rows, as they are (no kernel changes them), once it
    holds them, which a machine that holds no rows does once it passes
    validate (see check_valid); an invalid one is refused with
    InvalidTransducer."""
    rows = t._rows
    return check_valid(t)._rows if rows is None else rows


def _guaranteed_output(view):
    """guaranteed_output as a list by state number.  The iteration is
    Jacobi, each pass computing from the previous pass's values alone,
    but a pass recomputes only the predecessors of the states whose value
    changed in the pass before (no other value can change), found by one
    set test per row at C speed, so it takes the same passes, under the
    same cap, as recomputing every state; the cap, |Q| * (1 + longest
    output), is never below |Q| and is computed only after |Q| passes.

    A row's words out + v(target) are built by one map, and their LCP is
    the LCP of the least and the greatest of them (a word between two
    others shares their common prefix): a first-letter test settles most
    rows, and only a shared first letter starts a scan.  The first pass
    starts from v == empty, so a row's words are its outputs, and a row
    holding the empty word owes nothing: only the other rows get a min,
    a max and the first-letter test, by one map each, at C speed."""
    outs, targets = view.outs, view.targets
    size = len(targets)
    v = [EMPTY] * size
    owed = v.__getitem__
    writing = list(compress(count(), map(not_, map(contains, outs,
                                                    repeat(EMPTY)))))
    rows = list(map(outs.__getitem__, writing))
    least, greatest = list(map(min, rows)), list(map(max, rows))
    shared = map(eq, map(itemgetter(0), least), map(itemgetter(0), greatest))
    changed = [(i, _lcp(lo, hi)) for i, lo, hi in
               compress(zip(writing, least, greatest), shared)]
    cap = None
    for passes in count():
        if not changed:
            return v
        if passes == size:
            cap = size * (1 + max(map(len, chain.from_iterable(outs))))
        elif passes == cap:
            raise UnboundedOutput(
                "guaranteed output unbounded: some state maps its whole "
                "cone arbitrarily close to a single point"
            )
        for i, new in changed:
            v[i] = new
        moved = {i for i, _ in changed}
        dirty = compress(count(), map(not_, map(moved.isdisjoint, targets)))
        changed = []
        for i in dirty:
            words = list(map(add, outs[i], map(owed, targets[i])))
            lo, hi = min(words), max(words)
            new = _lcp(lo, hi) if lo and lo[0] == hi[0] else EMPTY
            if new != v[i]:
                changed.append((i, new))


def _lcp(lo, hi):
    """The longest common prefix of two words with lo <= hi: lo itself
    when it prefixes hi."""
    return lo[:next(compress(count(), map(ne, lo, hi)), len(lo))]


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
    states are walked on t's view, and the table lists them in
    breadth-first order from that state.
    """
    if t.mode != INITIAL:
        raise TransducerError("local_action needs an initial-mode machine")
    if nu == EMPTY:
        return t
    out, s = run_word(t, t.initial, nu)
    view = _view_of(t)
    v = _guaranteed_output(view)
    start = view.index[s]
    if out == EMPTY and v[start] == EMPTY:
        raise TransducerError(
            f"local action at {format_word(nu)!r} maps into C_(n,r): the "
            "root letter of the image is not yet determined; extend nu"
        )
    states, keep = view.states, _bfs(view.targets, start)
    trans = {(states[i], x): (word_subtract(w + v[j], v[i]), states[j])
             for i in keep
             for x, w, j in zip(view.letters[i], view.outs[i],
                                view.targets[i])}
    return check_valid(Transducer(
        t.n, None, CORE, sorted(map(states.__getitem__, keep), key=str), s,
        trans))


def eval_point(t, point, state=None):
    """Image of an eventually periodic point, again in normal form.

    Feeds the preperiod, then pumps the period until the machine state
    repeats (at most |Q| + 1 pumps); the outputs collected up to the
    first repeat become the image's preperiod and the outputs around the
    state cycle its period, which is not empty, since a valid machine
    has no cycle of empty-output transitions.  The start state and the
    preperiod are checked as run_word checks them, and both words are
    walked on t's rows by state number, as run_word walks them (see
    _walker), the pumps of a readable period in the loop itself, so the
    cost is linear in pumps times period length."""
    rows = _view_of(t)
    if state is None:
        if t.initial is None:
            raise TransducerError("no start state for evaluation")
        state = t.initial
    _check_start(t, state, point.preperiod)
    period, collected = point.period, []
    walk = _walker(t, point.preperiod, period)
    q = walk(rows, _number(t, rows, state), point.preperiod, collected)
    outs, targets = rows.outs, rows.targets
    seen = {q: len(collected)}
    for _ in range(len(t.states) + 1):
        if q == rows.entry:
            raise TransducerError("digit word fed to the initial state")
        if walk is _walk_checked:
            q = walk(rows, q, period, collected)
        else:
            for x in period:
                collected += outs[q][x]
                q = targets[q][x]
        if q in seen:
            cut = seen[q]
            return EventuallyPeriodicPoint(tuple(collected[:cut]),
                                           tuple(collected[cut:]))
        seen[q] = len(collected)
    raise AssertionError("state failed to repeat within |Q|+1 pumps")


def canonical_form(t):
    """Deterministic byte serialization, equal for two machines exactly
    when they are strongly isomorphic (a state bijection commuting with
    transitions and outputs).

    Initial mode (header T1|initial): breadth-first renumbering from q0,
    letters taken in canonical order.  Core mode (header T2|core): the
    breadth-first renumbering from the root _best_core_order picks, the
    state digit 0 alone fixes if any; the start marker is ignored."""
    view = _view_of(t)
    if t.mode == INITIAL:
        order = _bfs(view.targets, view.entry)
        if len(order) != len(t.states):
            raise TransducerError(
                "unreachable states present; minimize before canonical_form"
            )
        return _serialize(view, order, f"T1|initial|n={t.n}|r={t.r}")
    order = _best_core_order(view)
    if order is None:
        raise TransducerError("disconnected core has no canonical form")
    return _serialize(view, order, f"T2|core|n={t.n}")


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
    invariant under renaming (canonical_form needs that).  Once the
    partition is discrete, another round would return the same colours
    (every signature leads with a distinct colour), so refinement stops
    there.

    Without `ranked`, only the partition matters (the merge needs only
    that), and each signature is numbered by a position where it occurs
    (see _numbered), which skips the sort.  The outputs are keyed once:
    round 1 numbers each state's (seed colour, output row), and later
    rounds key (colour, target colours) alone, since the colour already
    carries the outputs; the stable partition is the same, and a count
    that stops growing is only tested from round 2 on.  A discrete
    partition comes back as range(size); a discrete round 1 builds no column.

    Each round zips whole columns, one per letter, each taken from the
    rows by itemgetter: target colours and, when `ranked`, output words
    as their ranks among the machine's distinct words in sorted order
    (which sort as the words do).  A row short of letters (the initial
    state's) is padded with no word, ranked -1, below every word, and
    its own colour, so it sorts as the shorter signature would."""
    outs, targets = view.outs, view.targets
    size = len(outs)
    if not ranked:
        colour, classes = _numbered(list(zip(colour, outs)), False)
        if classes == size:
            return colour
    width = max(map(len, outs), default=0)
    short = list(compress(count(), map(width.__gt__, map(len, outs))))
    if short:
        outs, targets = list(outs), list(targets)
        for i in short:
            pad = width - len(outs[i])
            outs[i] = (*outs[i], *[None] * pad)
            targets[i] = (*targets[i], *[i] * pad)
    target_cols = [list(map(itemgetter(x), targets)) for x in range(width)]
    if ranked:
        words = sorted(set(chain.from_iterable(view.outs)))
        word_rank = dict(zip(words, count()))
        word_rank[None] = -1
        word_cols = [list(map(word_rank.__getitem__, map(itemgetter(x), outs)))
                     for x in range(width)]
        classes = len(set(colour))
    while classes < size:
        cols = [colour]
        for x, targets_x in enumerate(target_cols):
            if ranked:
                cols.append(word_cols[x])
            cols.append(map(colour.__getitem__, targets_x))
        colour, count_now = _numbered(list(zip(*cols)), ranked)
        if count_now == classes:
            break
        classes = count_now
    return colour


def _numbered(sigs, ranked):
    """A colour per signature, as a sequence, equal exactly for equal
    signatures, and the number of distinct signatures.  With `ranked`,
    the colour is the signature's rank in sorted order.  Without it, it
    is the position of the signature's last occurrence, from one dict
    built from the positions, each overwriting the one before; when
    every signature is distinct that is its own position, the colours
    are range(len(sigs)), and the signatures are not looked up again."""
    if ranked:
        number = dict(zip(sorted(set(sigs)), count()))
    else:
        number = dict(zip(sigs, count()))
        if len(number) == len(sigs):
            return range(len(sigs)), len(sigs)
    return list(map(number.__getitem__, sigs)), len(number)


def _best_core_order(view):
    """The core-mode canonical labeling of a core, as state numbers in
    breadth-first order from a root every strong isomorphism keeps, or
    None when the core is not strongly connected.

    A state that digit 0 alone fixes is such a root, and every
    synchronizing core has one (0^m sends every state to one s, and
    p·0 = p gives p = p·0^m = s).  The core is strongly connected when
    the walk from it covers the core and every 0-walk ends there, which
    |Q|.bit_length() squarings of the digit-0 column show, or else when
    _strongly_connected says so.

    Otherwise _refine colours the states from a single seed colour.  The
    candidate roots are the states of the smallest colour class (ties to
    the lower colour); among them the breadth-first renumbering with the
    least transition table wins.  Colours are invariant under renaming,
    so the candidate set is too, and the result is a strong-isomorphism
    invariant even when states are equivalent.  On a minimal core the
    partition is discrete and a single breadth-first walk remains."""
    targets = view.targets
    zeros = list(map(itemgetter(0), targets))
    fixed = list(compress(count(), map(eq, zeros, count())))
    if len(fixed) == 1:
        for _ in range(len(zeros).bit_length()):
            zeros = list(map(zeros.__getitem__, zeros))
        order = _bfs(targets, fixed[0])
        connected = len(order) == len(zeros) and (
            zeros.count(fixed[0]) == len(zeros)
            or _strongly_connected(targets))
        return order if connected else None
    if not _strongly_connected(targets):
        return None
    colour = _refine(view, [0] * len(view.states))
    classes = {}
    for i, c in enumerate(colour):
        classes.setdefault(c, []).append(i)
    roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]
    if len(roots) == 1:
        return _bfs(targets, roots[0])
    return min((_bfs(targets, i) for i in roots),
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


def _serialize(view, order, header):
    """The bytes of the rows renumbered by `order`, which lists every
    state number once; each number, letter and word is formatted once."""
    label = list(map(str, sorted(range(len(order)), key=order.__getitem__)))
    words = {w: format_word(w) for w in {w for row in view.outs for w in row}}
    letters = {x: format_letter(x) for x in {x for row in view.letters
                                             for x in row}}
    parts = [header, str(len(order))]
    for i in order:
        state = label[i]
        for x, w, j in zip(view.letters[i], view.outs[i], view.targets[i]):
            parts.append(f"{state}.{letters[x]}>{label[j]}:{words[w]}")
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
    """Rename states through `mapping` (a dict); shape is preserved.  A
    state the mapping misses, or two states it gives one name, is
    refused with TransducerError."""
    try:
        states = [mapping[q] for q in t.states]
        trans = {(mapping[q], x): (w, mapping[tgt])
                 for (q, x), (w, tgt) in t.trans.items()}
        initial = None if t.initial is None else mapping[t.initial]
    except KeyError as e:
        raise TransducerError(f"relabeling misses state {e.args[0]!r}") \
            from None
    if len(set(states)) != len(states):
        raise TransducerError("relabeling is not a bijection")
    return Transducer(t.n, t.r, t.mode, states, initial, trans)
