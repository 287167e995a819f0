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
pure functions.
"""

from collections import deque

from .words import (
    EMPTY,
    Alphabet,
    EventuallyPeriodicPoint,
    WordError,
    check_word_shape,
    common_prefix,
    format_letter,
    format_word,
    is_digit_word,
    is_root,
    is_rooted,
    word_subtract,
)

INITIAL = "initial"
CORE = "core"


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
    __slots__ = ("n", "r", "mode", "states", "initial", "trans")

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
        """States reachable from `start` (default: the initial state)."""
        if start is None:
            start = self.initial
        if start is None:
            raise TransducerError("no start state given")
        seen = {start}
        todo = deque([start])
        while todo:
            q = todo.popleft()
            for x in self.input_letters(q):
                tgt = self.trans.get((q, x))
                if tgt is not None and tgt[1] not in seen:
                    seen.add(tgt[1])
                    todo.append(tgt[1])
        return seen

    def pre_root_states(self):
        """The R part of the state split: states reachable from q0 along
        transitions that have emitted nothing yet.  Only meaningful for
        valid initial-mode machines."""
        if self.mode != INITIAL:
            return set()
        seen = {self.initial}
        todo = deque([self.initial])
        while todo:
            q = todo.popleft()
            for x in self.input_letters(q):
                tgt = self.trans.get((q, x))
                if tgt is not None and tgt[0] == EMPTY and tgt[1] not in seen:
                    seen.add(tgt[1])
                    todo.append(tgt[1])
        return seen


def validate(t):
    """All non-degeneracy checks; returns a list of violation strings."""
    out = []
    states = set(t.states)
    if len(states) != len(t.states):
        out.append("duplicate state names")
    if t.mode == INITIAL and t.initial not in states:
        out.append(f"initial state {t.initial!r} not in state list")
    if t.mode == CORE and t.initial is not None and t.initial not in states:
        out.append(f"start state {t.initial!r} not in state list")

    expected = set()
    for q in t.states:
        for x in t.input_letters(q):
            expected.add((q, x))
    for key in expected - set(t.trans):
        q, x = key
        out.append(
            f"incomplete transition table: missing ({q!r}, {format_letter(x)})"
        )
    for key in set(t.trans) - expected:
        q, x = key
        out.append(f"stray transition ({q!r}, {format_letter(x)})")
    if out:
        return out

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
    if out:
        return out

    if t.mode == INITIAL:
        for (q, x), (w, tgt) in t.trans.items():
            if tgt == t.initial:
                out.append(f"initial state has an incoming transition "
                           f"from ({q!r}, {format_letter(x)})")
        pre = t.pre_root_states()
        for (q, x), (w, tgt) in t.trans.items():
            if tgt in pre and (q not in pre or w != EMPTY):
                out.append(
                    f"transition ({q!r}, {format_letter(x)}) enters a "
                    "pre-root state with nonempty output"
                )
            elif q in pre and tgt not in pre and not is_rooted(w):
                out.append(
                    f"transition ({q!r}, {format_letter(x)}) leaves the "
                    f"pre-root region with non-rooted output "
                    f"{format_word(w)!r}"
                )
            elif q not in pre and not is_digit_word(w):
                out.append(
                    f"post-root transition ({q!r}, {format_letter(x)}) "
                    f"emits root letters: {format_word(w)!r}"
                )
    else:
        for (q, x), (w, _) in t.trans.items():
            if not is_digit_word(w):
                out.append(f"core transition ({q!r}, {format_letter(x)}) "
                           f"emits root letters: {format_word(w)!r}")
    if out:
        return out

    cyc = _epsilon_cycle(t)
    if cyc is not None:
        out.append("epsilon-output cycle through " +
                   " -> ".join(repr(q) for q in cyc))
    return out


def _epsilon_cycle(t):
    """A cycle along transitions with empty output, or None.  Depth-first
    search with an explicit stack, so long empty-output chains need no
    recursion."""
    eps = {}
    for (q, _x), (w, tgt) in t.trans.items():
        if w == EMPTY:
            eps.setdefault(q, []).append(tgt)
    color = {}
    for root in t.states:
        if root in color:
            continue
        color[root] = 1
        path = [root]
        stack = [iter(eps.get(root, ()))]
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
    violations = validate(t)
    if violations:
        raise InvalidTransducer(violations)
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
    cap = max(1, len(t.states) * (1 + t.max_output_len()))
    v = {q: EMPTY for q in t.states}
    for _ in range(cap + 1):
        nxt = {}
        for q in t.states:
            parts = []
            for x in t.input_letters(q):
                w, tgt = t.step(q, x)
                parts.append(w + v[tgt])
            nxt[q] = common_prefix(*parts)
        if nxt == v:
            return v
        v = nxt
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
    in C_{n,r} rather than C_n and is not representable here.
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
    keep = t.reachable(s)
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
    state cycle its period."""
    if state is None:
        if t.initial is None:
            raise TransducerError("no start state for evaluation")
        state = t.initial
    out_pre, q = run_word(t, state, point.preperiod)
    seen = {q: (0, len(out_pre))}
    collected = list(out_pre)
    for i in range(1, len(t.states) + 2):
        w, q = run_word(t, q, point.period)
        collected.extend(w)
        if q in seen:
            _, cut = seen[q]
            cycle_out = tuple(collected[cut:])
            if not cycle_out:
                raise TransducerError(
                    "degenerate machine: a period pumps empty output"
                )
            return EventuallyPeriodicPoint(tuple(collected[:cut]), cycle_out)
        seen[q] = (i, len(collected))
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
        order = _bfs_order(t, t.initial)
        if len(order) != len(t.states):
            raise TransducerError(
                "unreachable states present; minimize before canonical_form"
            )
        return _serialize(t, order, f"T1|initial|n={t.n}|r={t.r}")
    if not _strongly_connected(t):
        raise TransducerError("disconnected core has no canonical form")
    return _serialize(t, _best_core_order(t), f"T2|core|n={t.n}")


def _core_table(t, order):
    """Renumbered transition table as a nested tuple of ints, cheap to
    build and compare."""
    by_index = sorted(order, key=order.get)
    return tuple(
        (order[tgt], w)
        for q in by_index
        for w, tgt in (t.step(q, x) for x in t.input_letters(q))
    )


def _best_core_order(t):
    """The core-mode canonical labeling of a strongly connected core.

    Moore refinement names each state by a colour that ignores state
    names: a state's signature is its colour followed by (output word,
    target colour) per digit, and its new colour is the rank of its
    signature among the sorted distinct signatures, until the number of
    colours stops growing.  The candidate roots are the states of the
    smallest colour class (ties to the lower colour); among them the
    breadth-first renumbering with the least transition table wins.
    Colours are invariant under renaming, so the candidate set is too,
    and the result is a strong-isomorphism invariant even when states
    are equivalent.  On a minimal core the partition is discrete and a
    single breadth-first walk remains."""
    colour = dict.fromkeys(t.states, 0)
    count = 1
    while True:
        sig = {q: (colour[q],) + tuple((w, colour[tgt]) for w, tgt in
                                       (t.step(q, x) for x in range(t.n)))
               for q in t.states}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colour = {q: rank[sig[q]] for q in t.states}
        if len(rank) == count:
            break
        count = len(rank)
    classes = {}
    for q in t.states:
        classes.setdefault(colour[q], []).append(q)
    roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]
    if len(roots) == 1:
        return _bfs_order(t, roots[0])
    return min((_bfs_order(t, q) for q in roots),
               key=lambda order: _core_table(t, order))


def _bfs_order(t, start):
    order = {start: 0}
    todo = deque([start])
    while todo:
        q = todo.popleft()
        for x in t.input_letters(q):
            tgt = t.trans.get((q, x))
            if tgt is not None and tgt[1] not in order:
                order[tgt[1]] = len(order)
                todo.append(tgt[1])
    return order


def _serialize(t, order, header):
    by_index = sorted(order, key=order.get)
    parts = [header, str(len(by_index))]
    for q in by_index:
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            parts.append(
                f"{order[q]}.{format_letter(x)}>{order[tgt]}:{format_word(w)}"
            )
    return "|".join(parts).encode()


def _strongly_connected(t):
    if not t.states:
        return False
    start = t.states[0]
    if len(t.reachable(start)) != len(t.states):
        return False
    rev = {}
    for (q, _x), (_w, tgt) in t.trans.items():
        rev.setdefault(tgt, set()).add(q)
    seen = {start}
    todo = deque([start])
    while todo:
        q = todo.popleft()
        for p in rev.get(q, ()):
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return len(seen) == len(t.states)


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


def canonical_relabel(t, start=None):
    """Rename states s0, s1, ... in breadth-first order, i.e. by their
    shortlex-least access word.  All states must be reachable."""
    if start is None:
        start = t.initial
    order = _bfs_order(t, start)
    if len(order) != len(t.states):
        raise TransducerError("unreachable states cannot be relabeled")
    return relabel(t, {q: f"s{i}" for q, i in order.items()})
