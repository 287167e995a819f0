"""Group operations on transducers and the basic constructors.

Composition is left to right throughout: compose(a, b) realizes
x -> (x . a) . b, matching the right actions used everywhere else in
the library.
"""

from dataclasses import dataclass
from itertools import accumulate, chain, compress, count
from operator import ne

from .words import (
    EMPTY,
    Relation,
    WordError,
    format_word,
    is_prefix,
    shortlex_key,
    validate_prefix_code,
    word_relate,
    word_subtract,
)
from .machine import (
    CORE,
    INITIAL,
    Transducer,
    TransducerError,
    check_valid,
    run_word,  # unused here, but bench/tests reads algebra.run_word
    _View,
    _bfs,
    _first_repeat,
    _view_of,
)
from .minimize import _reduce, _reduce_rows, minimize


class NotInvertible(TransducerError):
    """The map has no inverse realized by a finite transducer within the
    pending-word bound (or is simply not a homeomorphism)."""


class NotInjective(NotInvertible):
    """Two different input words, read from one state, write the same
    output and reach the same state, so every continuation of the two
    has the same image: the map is not injective.  `state`, `words` (the
    two words) and `output` are kept for a caller to walk again."""

    def __init__(self, state, words, output):
        self.state, self.words, self.output = state, words, output
        first, second = map(format_word, words)
        super().__init__(
            f"not invertible: not injective: input words {first!r} and "
            f"{second!r} from state {state!r} both write "
            f"{format_word(output)!r}"
        )


@dataclass(frozen=True)
class PrefixCodeMap:
    """Two complete antichains of equal length, paired by index: the
    homeomorphism sending the cone of domain[i] onto the cone of
    range_[i] by prefix replacement."""

    domain: tuple
    range_: tuple

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(map(tuple, self.domain)))
        object.__setattr__(self, "range_", tuple(map(tuple, self.range_)))
        if len(self.domain) != len(self.range_):
            raise WordError("domain and range codes differ in length")

    def check(self, alphabet):
        for name, code in (("domain", self.domain), ("range", self.range_)):
            ok, why = validate_prefix_code(code, alphabet)
            if not ok:
                raise WordError(f"{name} code invalid: {why}")
        return self

    def pairs(self):
        return list(zip(self.domain, self.range_))

    def apply(self, word):
        """Image of a word extending some domain word."""
        for d, r in self.pairs():
            if is_prefix(d, word):
                return r + word[len(d):]
        raise WordError(f"{format_word(word)!r} extends no domain word")

    def inverse(self):
        return PrefixCodeMap(self.range_, self.domain)

    def then(self, other):
        """Composition by antichain refinement: first self, then other."""
        pairs = []
        for d, mid in self.pairs():
            stack = [(d, mid)]
            while stack:
                dom, img = stack.pop()
                hits = [
                    (c, r) for c, r in other.pairs()
                    if word_relate(img, c) is not Relation.INCOMPARABLE
                ]
                split = [c for c, _ in hits if len(c) > len(img)]
                if split:
                    for c in split:
                        tail = word_subtract(c, img)
                        stack.append((dom + tail, c))
                elif not hits:
                    raise WordError(
                        f"{format_word(img)!r} meets no domain word; "
                        "the second map's domain code is incomplete"
                    )
                else:
                    c, r = hits[0]
                    pairs.append((dom, r + word_subtract(img, c)))
        pairs.sort(key=lambda p: shortlex_key(p[0]))
        return PrefixCodeMap(tuple(p[0] for p in pairs),
                             tuple(p[1] for p in pairs))


def identity_transducer(alphabet):
    """Two states: the entry echoes each root letter into a state that
    echoes every digit forever."""
    trans = {}
    for k in range(alphabet.r):
        trans[("q0", -(k + 1))] = ((-(k + 1),), "id")
    for d in range(alphabet.n):
        trans[("id", d)] = ((d,), "id")
    return check_valid(
        Transducer(alphabet.n, alphabet.r, INITIAL, ["q0", "id"], "q0", trans)
    )


def identity_core(n):
    trans = {("id", d): ((d,), "id") for d in range(n)}
    return Transducer(n, None, CORE, ["id"], None, trans)


def twist_transducer(sigma, alphabet):
    """Apply the digit permutation sigma at every coordinate."""
    sigma = tuple(sigma)
    if any(type(x) is not int for x in sigma) or \
            sorted(sigma) != list(range(alphabet.n)):
        raise WordError(f"{sigma!r} is not a permutation of 0..{alphabet.n - 1}")
    trans = {}
    for k in range(alphabet.r):
        trans[("q0", -(k + 1))] = ((-(k + 1),), "t")
    for d in range(alphabet.n):
        trans[("t", d)] = ((sigma[d],), "t")
    return check_valid(
        Transducer(alphabet.n, alphabet.r, INITIAL, ["q0", "t"], "q0", trans)
    )


def embed_core(core, start=None):
    """Wrap a core over C_n as an initial machine on C_{n,1}: a fresh
    entry state reads the single root letter, echoes it, and drops into
    `start` (default: the core's own preferred start, else its first
    state).  The wrapped map has the given core, so it represents the
    same outer class."""
    if core.mode != CORE:
        raise TransducerError("embed_core expects a core-mode machine")
    if start is None:
        start = core.initial if core.initial is not None else core.states[0]
    q0 = "q0"
    while q0 in core.states:
        q0 += "_"
    trans = dict(core.trans)
    trans[(q0, -1)] = ((-1,), start)
    return check_valid(
        Transducer(core.n, 1, INITIAL, [q0, *core.states], q0, trans)
    )


def compose(a, b):
    """Product machine realizing x -> (x . a) . b, minimized.

    States are the pairs (state of a, state of b) reachable from the
    entry pair, or all pairs in core mode; reading x a pair writes what
    b writes on reading what a wrote (see _Pairs).  A core-mode product
    keeps a preferred start when both factors have one.  The rows of the
    closure of the pairs, named by the pairs, are reduced by
    minimize._reduce_rows without validation: the factors pass the gate
    of machine._view_of, and valid factors never make a degenerate pair
    machine (see _Pairs).
    """
    if a.mode != b.mode:
        raise TransducerError("mode mismatch in composition")
    if a.n != b.n or a.r != b.r:
        raise TransducerError("alphabet mismatch in composition")
    pairs = _Pairs(_view_of(a), _view_of(b))
    if a.mode == INITIAL:
        seeds, initial = [pairs.entry], (a.initial, b.initial)
    else:
        seeds = range(len(a.states) * len(b.states))
        both = a.initial is not None and b.initial is not None
        initial = (a.initial, b.initial) if both else None
    return _reduce_rows(a.n, a.r, a.mode, initial, pairs.closure(seeds))


class _Pairs:
    """The pair machine of a and b on their integer views va and vb: the
    product of transducers, for compose and core_product.  The pair
    (i, j) reads x as a does, i -- x/w --> i', b reads w from j, and the
    pair writes what b wrote and moves to (i', j').

    A pair is numbered i * |b| + j and reads a's letters at i, so the
    entry pair of two initial-mode machines reads the root letters, at
    row index ~y as in _RunSets.  How b reads each output word of a from
    each state is worked out once.

    Valid factors never make a degenerate pair machine: b reads every
    letter a writes where it is, since in initial mode a writes a rooted
    word once, when b is at its entry, and digits after, which b reads
    everywhere else.  Its table is complete, it writes what b writes,
    and an empty-output cycle in it would need one in a (when a writes
    nothing along it) or in b (which then reads a's nonempty writing
    around a cycle and writes nothing).  In initial mode nothing enters
    the entry pair, and the pairs it reaches with empty output are those
    where b has written nothing, which b never returns to: they leave
    with b's rooted output, and no other pair writes a root letter."""

    __slots__ = ("va", "vb", "size", "entry", "memo")

    def __init__(self, va, vb):
        self.va, self.vb = va, vb
        self.size = size = len(vb.states)
        self.entry = (None if va.entry is None or vb.entry is None
                      else va.entry * size + vb.entry)
        self.memo = {}

    def step(self, pair, k):
        """(output, pair) when `pair` reads the letter at index k of its
        row."""
        size, va = self.size, self.va
        i, j = divmod(pair, size)
        w = va.outs[i][k]
        out, j = self.memo.get((w, j)) or self._read(w, j)
        return out, va.targets[i][k] * size + j

    def fixed(self):
        """The pair digit 0 fixes in the product of two synchronizing
        cores: the first pair met twice when pair 0 reads 0s."""
        return _first_repeat(0, lambda pair: self.step(pair, 0)[1])

    def closure(self, seeds):
        """The pairs reached from the pair numbers `seeds`, numbered
        breadth-first in the order found, as a view on those numbers
        named by the pairs (state of a, state of b)."""
        size, memo, read, va = self.size, self.memo, self._read, self.va
        pairs = list(dict.fromkeys(seeds))
        number = dict(zip(pairs, count()))
        outs, targets = [], []
        for pair in pairs:
            i, j = divmod(pair, size)
            row_outs, row_targets = [], []
            for w, k in zip(va.outs[i], va.targets[i]):
                out, q = memo.get((w, j)) or read(w, j)
                tgt = k * size + q
                num = number.get(tgt)
                if num is None:
                    num = number[tgt] = len(pairs)
                    pairs.append(tgt)
                row_outs.append(out)
                row_targets.append(num)
            outs.append(tuple(row_outs))
            targets.append(tuple(row_targets))
        a_states, b_states = va.states, self.vb.states
        names = tuple((a_states[p // size], b_states[p % size])
                      for p in pairs)
        letters = [va.letters[p // size] for p in pairs]
        return _View._of_rows(names, letters, outs, targets,
                              number.get(self.entry))

    def _read(self, w, j):
        """(output, state number) when b reads w from state number j."""
        vb = self.vb
        out, q = EMPTY, j
        for y in w:
            x = y if y >= 0 else ~y
            out += vb.outs[q][x]
            q = vb.targets[q][x]
        self.memo[(w, j)] = edge = (out, q)
        return edge


def from_prefix_code_map(pm, alphabet):
    """Transducer for a prefix replacement map.

    Domain/range pairs are first split until both sides have length at
    least two; the machine then walks the domain prefix tree silently
    and emits the whole range word on the final letter, landing in an
    identity state.

    The tree is built as rows: the prefixes in shortlex order (the entry,
    the empty prefix, first), then the identity state, each named by its
    number.  The raw machine is valid by construction once pm.check has
    passed, so it is built on those rows and reduced without validation:

    * the table is complete: each prefix reads every letter admissible
      at it (the root letters at the entry, the digits elsewhere), since
      a complete domain code leaves no child of a prefix that is neither
      a prefix nor a domain word, and the identity state reads every
      digit;
    * the entry is never entered: every transition goes to a longer
      prefix or to the identity state;
    * the pre-root states are the domain-tree prefixes: they are
      entered only from their parent prefixes with empty output, and
      left with the range words, rooted words of the alphabet (as
      pm.check found them) that splitting only extends by digits;
    * the identity state writes its digits only, each below n;
    * no cycle has empty output: an empty-output transition goes to a
      longer prefix."""
    pm.check(alphabet)
    pairs = []
    stack = list(pm.pairs())
    while stack:
        d, r = stack.pop()
        if len(d) < 2 or len(r) < 2:
            for x in range(alphabet.n):
                stack.append((d + (x,), r + (x,)))
        else:
            pairs.append((d, r))
    # by (length, shortlex): the reduction's state order follows this one
    prefixes = sorted({d[:i] for d, _ in pairs for i in range(len(d))},
                      key=shortlex_key)
    one = len(prefixes)
    edge_to = {p: (EMPTY, k) for k, p in enumerate(prefixes)}
    edge_to.update((d, (r, one)) for d, r in pairs)
    digits = tuple(range(alphabet.n))
    letters = [tuple(-(k + 1) for k in range(alphabet.r)), *[digits] * one]
    edges = [[edge_to[p + (x,)] for x in row]
             for p, row in zip(prefixes, letters)]
    edges.append([((x,), one) for x in digits])
    rows = _View._of_rows(tuple(range(one + 1)), letters,
                          [tuple(w for w, _ in row) for row in edges],
                          [tuple(k for _, k in row) for row in edges], 0)
    return _reduce(Transducer._of_rows(alphabet.n, alphabet.r, INITIAL, 0,
                                       rows, None))


def _pending_bound(view):
    """|Q| * (1 + max output length): the longest pending word a finite
    inverse of the view's machine can need."""
    outs = view.outs
    return len(outs) * (1 + max(len(w) for row in outs for w in row))


class _RunSets:
    """The states of a machine's inverse as sets of runs on the
    machine's integer view, each built once (the pending-output subset
    construction of Beal and Carton, 2002).

    An output position is an edge with nonempty output and an offset
    into that output; positions are numbered edge by edge, in state and
    letter order.  A run is an item (position, delay): the run has
    written everything before its position, and its delay is the input
    it has read since the inverse last emitted, the position's edge
    included.  A node is a set of runs, held as a tuple sorted by
    position and numbered when it is first met.

    Reading a letter y keeps the runs whose next output letter is y.  A
    run that writes the last letter of its edge goes on into the
    target's frontier: the edges with nonempty output reached from the
    target through empty-output edges, each at its first position, the
    letters read on the way added to the delay.  A valid machine has no
    empty-output cycle, so every frontier is finite.  The inverse then
    emits the common prefix of all delays, but never the last letter of
    a delay, whose edge is not yet written.  That is the rule of the
    pending-word exploration this replaces: emit a letter while it is
    the only one that a run consistent with the pending word reads, and
    its edge's output is covered.  A letter that leaves no run is one
    the pending word extends no output of.

    Two runs of one node at one position have read two different words
    to the position's state and written the same output, so the map is
    not injective: NotInjective is raised at once, naming the state and
    both words.  So a node holds at most one run per position.

    Each node keeps one configuration (state number, pending word): the
    state its first-met path of emissions reached, and the input of the
    inverse those emissions have not covered.  The delays of the node
    are read from that state; its pending word feeds the bound of
    _pending_bound and the refusal texts."""

    __slots__ = ("view", "letter", "after", "starts", "rows", "frontiers",
                 "seeds", "index", "nodes", "reps", "bound")

    def __init__(self, view):
        self.view = view
        words = list(chain.from_iterable(view.outs))
        ends = list(accumulate(map(len, words)))
        # edge e, in state and letter order, holds the positions from
        # starts[e] up to starts[e + 1] (none when it writes nothing);
        # state i's first edge is rows[i]
        self.starts = [0, *ends]
        self.rows = list(accumulate(map(len, view.letters), initial=0))
        # per position: its output letter, and the next position on its
        # edge, or ~target where the edge ends
        self.letter = list(chain.from_iterable(words))
        self.after = after = list(range(1, len(self.letter) + 1))
        for end, w, j in zip(ends, words, chain.from_iterable(view.targets)):
            if w:
                after[end - 1] = ~j
        self.frontiers = {}
        self.seeds = {}
        self.index = {}
        self.nodes = []
        self.reps = []
        self.bound = _pending_bound(view)

    def name(self, k):
        """Node k's configuration by name: (state name, pending word)."""
        i, u = self.reps[k]
        return self.view.states[i], u

    def seed(self, i):
        """The node of configuration (state number i, empty): every run
        from state i."""
        k = self.seeds.get(i)
        if k is None:
            items = self.frontiers.get(i) or self._frontier(i)
            k = self.seeds[i] = self._node(items, i, EMPTY)
        return k

    def step(self, k, y):
        """(emitted word, node) when node k reads y, or None when no run
        of k writes y next."""
        letter, after = self.letter, self.after
        hits = [(p, d) for p, d in self.nodes[k] if letter[p] == y]
        if len(hits) == 1:
            (p, d), = hits
            q = after[p]
            if q < 0:
                # the only run ends its edge, having written the whole
                # pending word: its delay is emitted, since the target
                # reads n >= 2 letters and so its frontier's delays share
                # no first letter, and the node is the target's seed
                return d, self.seed(~q)
            items = ((q, d),)
            cut = len(d) - 1
        elif not hits:
            return None
        else:
            items, cut = self._spread(k, y, hits)
        emitted = EMPTY
        if cut:
            emitted = items[0][1][:cut]
            items = tuple([(q, d[cut:]) for q, d in items])
        node = self.index.get(items)
        if node is None:
            i, u = self.reps[k]
            u += (y,)
            outs, targets = self.view.outs, self.view.targets
            for x in emitted:
                x = x if x >= 0 else ~x  # root letters -1, -2, ... at 0, 1, ...
                u = u[len(outs[i][x]):]
                i = targets[i][x]
            node = self._node(items, i, u)
        return emitted, node

    def _spread(self, k, y, hits):
        """The runs after node k's runs `hits` write y, as a tuple sorted
        by position, and the length of their delays' common prefix that
        is emitted."""
        after, frontiers = self.after, self.frontiers
        moved = {}
        for p, d in hits:
            q = after[p]
            if q >= 0:
                moved[q] = d
                continue
            # a run going on sits past its edge's first position, a run
            # entering a frontier at one: only the latter meet
            for q, path in frontiers.get(~q) or self._frontier(~q):
                if q in moved:
                    i, u = self.reps[k]
                    raise self._clash(i, moved[q], d + path, u + (y,))
                moved[q] = d + path
        delays = moved.values()
        lo, hi = min(delays), max(delays)
        cut = 0
        if lo[0] == hi[0]:
            # the common prefix of lo and hi is that of every delay
            cut = next(compress(count(), map(ne, lo, hi)), len(lo))
            if cut == min(map(len, delays)):
                cut -= 1
        return tuple(sorted(moved.items())), cut

    def _node(self, items, i, u):
        """The number of the node of runs `items`, numbered now, with the
        configuration (i, u), when it is new."""
        k = self.index.get(items)
        if k is None:
            k = self.index[items] = len(self.nodes)
            self.nodes.append(items)
            self.reps.append((i, u))
        return k

    def _frontier(self, j):
        """State number j's frontier as (position, delay) pairs sorted by
        position, found by a depth-first walk along empty-output edges
        with an explicit stack, so long chains of them need no
        recursion."""
        letters, targets = self.view.letters, self.view.targets
        starts, rows = self.starts, self.rows
        runs = {}
        stack = [(j, EMPTY)]
        while stack:
            i, path = stack.pop()
            e = rows[i]
            for x, t, p, end in zip(letters[i], targets[i], starts[e:],
                                    starts[e + 1:]):
                walked = path + (x,)
                if p == end:
                    stack.append((t, walked))
                elif p in runs:
                    raise self._clash(j, runs[p], walked, EMPTY)
                else:
                    runs[p] = walked
        runs = self.frontiers[j] = tuple(sorted(runs.items()))
        return runs

    def _clash(self, i, first, second, written):
        """NotInjective for two runs from state number i at one position,
        with delays `first` and `second`, that have written `written`:
        both delays end with the letter of the position's edge."""
        return NotInjective(self.view.states[i], (first[:-1], second[:-1]),
                            written)


def _explore(runs, seeds, first_letters, n, prune):
    """The inverse's machine of sets: the nodes of `runs` reached from
    the node numbers `seeds`, breadth-first, as a view on the nodes in
    the order found, named by their configurations (runs.name).  The
    first node reads `first_letters`, every other one the n digits; a
    first node that reads other letters than the digits (the root
    letters of an initial-mode machine) is the view's entry.

    A letter no run of a node writes next raises NotInvertible, naming
    the node's configuration, unless `prune` is set: the node's output
    and target for that letter are then None (see _accepting).  A node
    whose configuration's pending word is longer than |Q| * (1 + max
    output length) means no finite inverse exists."""
    reps, bound, states = runs.reps, runs.bound, runs.view.states
    digits, first_letters = tuple(range(n)), tuple(first_letters)
    nodes = list(dict.fromkeys(seeds))
    number = dict(zip(nodes, count()))
    rows = []
    for m, k in enumerate(nodes):
        row = []
        for y in first_letters if m == 0 else digits:
            edge = runs.step(k, y)
            if edge is None:
                if not prune:
                    i, u = reps[k]
                    raise NotInvertible(
                        "not invertible by finite transducer: pending word "
                        f"{format_word(u + (y,))!r} extends no output from "
                        f"{states[i]!r}"
                    )
                row.append((None, None))
                continue
            out, tgt = edge
            t = number.get(tgt)
            if t is None:
                i, u = reps[tgt]
                if len(u) > bound:
                    raise NotInvertible(
                        "not invertible by finite transducer: pending word "
                        f"exceeds bound {bound}: {format_word(u)!r} at "
                        f"state {states[i]!r}"
                    )
                t = number[tgt] = len(nodes)
                nodes.append(tgt)
            row.append((out, t))
        rows.append(tuple(zip(*row)))
    outs, targets = map(list, zip(*rows))
    letters = [first_letters, *[digits] * (len(nodes) - 1)]
    return _View._of_rows(tuple(map(runs.name, nodes)), letters, outs,
                          targets, None if first_letters == digits else 0)


def _accepting(targets):
    """The numbers, in order, of the largest set of states of a machine
    of sets whose target rows are `targets` that have a transition on
    every letter, each into the set: every state that reaches a state
    with a missing transition (target None) is dropped, found by one
    walk back along the transitions from all such states at once."""
    preds = [[] for _ in targets]
    drop = []
    for k, row in enumerate(targets):
        for j in row:
            if j is None:
                drop.append(k)
            else:
                preds[j].append(k)
    dead = set(_bfs(preds, *drop))
    return [k for k in range(len(targets)) if k not in dead]


def invert(a):
    """Inverse machine via the pending-output construction of _RunSets.

    A state of the inverse is a set of runs of `a`, each with the input
    it has read since the inverse last emitted; reading a letter of a's
    output keeps the runs that write it, and the inverse emits what all
    of them have read and left behind.  It is named by the configuration
    (state of a, pending word) it was first met from.  Pending words are
    capped at |Q| * (1 + max output length); blowing the cap, meeting
    input no run of `a` can emit, or two runs that write the same output
    after reading different words (NotInjective) means no finite inverse
    exists.

    The machine of sets _explore builds is reduced as it is, by
    minimize._reduce_rows, and never validated, since it is valid by
    construction:

    * its table is complete: an exploration that does not prune refuses
      any letter it cannot read;
    * no transition enters the entry node: its runs sit at the start of
      the edges `a` reaches from its entry with empty output, where no
      run that has written a letter is found again;
    * the delays of the nodes met before the first emission are all the
      input read, so they start with a root letter, and those of the
      nodes met after it are digits: the pre-root region is closed and
      is left only with rooted output, and all other output is digits;
    * no cycle has empty output, by the argument of _inverse_from in
      synchro.

    The result is minimized and numbered breadth-first from its entry.
    It inverts `a` in both orders by construction, so no product with
    `a` is built or checked.  Call a state s the identity up to the lag
    u when it maps every input z to u z.  Each edge s -- x/w --> t of
    such a state has u x = w u', and t is the identity up to u': w is a
    prefix of u x z for every z, and n >= 2 digits let z vary, so w is a
    prefix of u x and t maps z to its rest.  A product is the identity
    exactly when its entry pair is the identity up to the empty lag, and
    the lag walk (the oracle of the tests) checks that equation on every
    pair it reaches.  The proof takes four steps.

    1. Runs.  Follow a node of _RunSets, of configuration (i, u), along
       the letters y it reads.  Each run of the nodes reached is a run
       of `a` from state i that has written u y up to its position and
       has read what the inverse emitted, then its delay: seeds hold the
       frontier with its paths, a letter keeps exactly the runs that
       write it and moves a run that ends its edge into its target's
       whole frontier, and an emission is a prefix of every delay, never
       the last letter of one, so it is read along whole edges of every
       run.  A machine of sets reads every letter of its rows into
       itself (the exploration refuses a letter that leaves no run), and
       no cycle of it writes nothing (see synchro._inverse_from), so it
       writes without end on every input.
       (a) When a node k holds the run (p, u + path) for each item
       (p, path) of state q's frontier, the pair (q, k) of `a` then the
       inverse is the identity up to u.  On input z, the run of `a` on z
       from q is in k, and it stays among the runs of the nodes k's
       path reaches, with z's letters added to its delay; the inverse
       only emits what all delays share, so it writes a prefix of u z,
       and as it writes without end, all of u z.
       (b) For a node k of configuration (i, u), the pair (k, i) of the
       inverse then `a` is the identity up to u.  On input y, let E_j
       be what k has emitted after j letters.  A run of the node reached
       has read E_j from i along whole edges, so a's output on E_j from
       i is a prefix of u y[:j].  E_j grows without end, and as `a` has
       no empty-output cycle, so does that output.  So `a` maps the
       inverse's output, the limit of the E_j, to u y.
    2. The entry.  The entry node is the seed of a's entry, of
       configuration (entry, empty), and so both entry pairs of the
       machine of sets with `a` are the identity up to the empty lag,
       by (a) and (b).
    3. Synchronization.  Only the core-mode proof needs it, to reach
       the pair its walk starts from (see synchro._inverse_from); here
       the walk starts from the entry pair.
    4. The reduction.  minimize._reduce_rows cuts each state's
       guaranteed output off the front of its map, except at the entry,
       whose map it keeps, drops no reachable state, and merges states
       of one map.  So the entry pairs of the products with the result
       are the identity up to the empty lag too.
    """
    if a.mode != INITIAL:
        raise TransducerError("invert expects an initial-mode machine; "
                              "invert_core handles cores")
    a = minimize(a)
    view = _view_of(a)
    runs = _RunSets(view)
    entry = view.entry
    sets = _explore(runs, [runs.seed(entry)], view.letters[entry], a.n,
                    prune=False)
    return _reduce_rows(a.n, a.r, INITIAL, sets.states[0], sets)
