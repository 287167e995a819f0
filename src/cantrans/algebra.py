"""Group operations on transducers and the basic constructors.

Composition is left to right throughout: compose(a, b) realizes
x -> (x . a) . b, matching the right actions used everywhere else in
the library.
"""

from collections import deque
from dataclasses import dataclass

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
    run_word,
    validate,
    _View,
    _bfs,
    _first_repeat,
)
from .minimize import _reduce, minimize


class NotInvertible(TransducerError):
    """The map has no inverse realized by a finite transducer within the
    pending-word bound (or is simply not a homeomorphism)."""


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
    if sorted(sigma) != list(range(alphabet.n)):
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

    States are reachable pairs (state of a, state of b); reading x the
    pair emits what b writes on reading what a wrote.  In core mode the
    product is taken over all pairs.
    """
    if a.mode != b.mode:
        raise TransducerError("mode mismatch in composition")
    if a.n != b.n or a.r != b.r:
        raise TransducerError("alphabet mismatch in composition")

    trans = {}
    if a.mode == INITIAL:
        seeds = [(a.initial, b.initial)]
    else:
        seeds = [(p, q) for p in a.states for q in b.states]
    seen = set(seeds)
    todo = deque(seeds)
    while todo:
        pair = todo.popleft()
        pa, pb = pair
        for x in a.input_letters(pa):
            w, ta = a.step(pa, x)
            out, tb = run_word(b, pb, w)
            trans[(pair, x)] = (out, (ta, tb))
            if (ta, tb) not in seen:
                seen.add((ta, tb))
                todo.append((ta, tb))

    if a.mode == INITIAL:
        initial = (a.initial, b.initial)
    elif a.initial is not None and b.initial is not None:
        initial = (a.initial, b.initial)
    else:
        initial = None
    raw = Transducer(a.n, a.r, a.mode, sorted(seen, key=str), initial, trans)
    bad = validate(raw)
    if bad:
        raise TransducerError(
            "degenerate product (second factor undefined on the first's "
            "image): " + "; ".join(bad)
        )
    return _reduce(raw)


def from_prefix_code_map(pm, alphabet):
    """Transducer for a prefix replacement map.

    Domain/range pairs are first split until both sides have length at
    least two; the machine then walks the domain prefix tree silently
    and emits the whole range word on the final letter, landing in an
    identity state."""
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
    pairs.sort(key=lambda p: shortlex_key(p[0]))

    one = "1g"
    trans = {(one, d): ((d,), one) for d in range(alphabet.n)}
    prefixes = {EMPTY}
    for d, _ in pairs:
        for i in range(1, len(d)):
            prefixes.add(d[:i])
    names = {p: "root" if p == EMPTY else "p_" + "_".join(
        format_word(p).replace(".", "r").split()) for p in prefixes}
    finals = {d: r for d, r in pairs}
    for p in prefixes:
        letters = (tuple(-(k + 1) for k in range(alphabet.r))
                   if p == EMPTY else tuple(range(alphabet.n)))
        for x in letters:
            child = p + (x,)
            if child in prefixes:
                trans[(names[p], x)] = (EMPTY, names[child])
            elif child in finals:
                trans[(names[p], x)] = (finals[child], one)
            else:
                raise WordError(
                    f"domain code does not cover {format_word(child)!r}"
                )
    states = [names[p] for p in sorted(prefixes, key=len)] + [one]
    raw = Transducer(alphabet.n, alphabet.r, INITIAL, states, names[EMPTY],
                     trans)
    return _reduce(check_valid(raw))


def _pair_step(a, b):
    """The pair machine's transition, as compose reads it: the pair
    (p, q) reads x as a does, p -- x/w --> p', b reads w from q, and the
    pair writes what b wrote and moves to (p', q')."""
    def step(pair, x):
        p, q = pair
        w, p = a.step(p, x)
        out = []
        for y in w:
            v, q = b.step(q, y)
            out.extend(v)
        return tuple(out), (p, q)

    return step


def _product_is_identity(a, b):
    """The lag walk: whether x -> (x . a) . b is the identity, decided on
    the pair machine without building it as a Transducer.

    A machine computes the identity exactly when every state s has a lag
    word u(s), the input it has read but not yet written, with
    u(s) x = w u(t) on every edge s -- x/w --> t.  The walk assigns lags
    breadth-first from a seed, generating pairs with compose's rule as
    it reaches them, and stops at the first edge that breaks the
    equation.

    Initial mode: the seed is the entry pair with lag empty, and the
    walk covers the pairs reachable from it.  Core mode (both factors
    must synchronize): the product's core is the forward closure of the
    pair digit 0 fixes, which is the first pair met twice when the pair
    of first states reads 0s (see synchro.core_product), and the product
    reduces to the identity core exactly when that closure computes the
    identity up to lags.  On the fixed pair, u 0 = w u forces w = 0 and
    u = 0^k, and reading 1s writes u 1 1 ..., so k is the number of 0s
    written before the first other letter; any other output on 0 breaks
    the equation on the walk's first edge."""
    step = _pair_step(a, b)
    if a.mode == INITIAL:
        seed, lag = (a.initial, b.initial), EMPTY
    else:
        seed = _first_repeat((a.states[0], b.states[0]),
                             lambda pair: step(pair, 0)[1])
        lag = _zeros_before_other(step, seed)
        if lag is None:
            return False
    lags = {seed: lag}
    todo = [seed]
    for pair in todo:
        u = lags[pair]
        for x in a.input_letters(pair[0]):
            w, tgt = step(pair, x)
            ux = u + (x,)
            if ux[:len(w)] != w:
                return False
            rest = ux[len(w):]
            have = lags.get(tgt)
            if have is None:
                lags[tgt] = rest
                todo.append(tgt)
            elif have != rest:
                return False
    return True


def _zeros_before_other(step, pair):
    """0^k for the k zeros the pair machine writes, reading 1s from
    `pair`, before its first other letter; None when the walk meets a
    pair again first (it then writes only zeros forever)."""
    seen = {pair}
    k = 0
    while True:
        w, pair = step(pair, 1)
        for y in w:
            if y != 0:
                return (0,) * k
            k += 1
        if pair in seen:
            return None
        seen.add(pair)


def _viability(view):
    """Memoized test on a machine's integer view: can some infinite run
    from state number i emit a string extending the word u?  Depth-first
    search over (state number, unmatched rest of u) configurations with
    an explicit stack, so long chains of empty-output transitions need no
    recursion; a configuration already on the search path counts as a
    dead end."""
    outs, targets = view.outs, view.targets
    cache = {}

    def viable(i, u):
        if not u:
            return True
        root = (i, u)
        ok = cache.get(root)
        if ok is not None:
            return ok
        busy = {root}
        stack = [(root, zip(outs[i], targets[i]))]
        ok = False  # once True, it holds for every configuration popped
        while stack:
            key, edges = stack[-1]
            v = key[1]
            child = None
            if not ok:
                for w, j in edges:
                    m = len(w)
                    if m >= len(v):
                        if w[:len(v)] == v:
                            ok = True
                            break
                    elif v[:m] == w:
                        nxt = (j, v[m:])
                        hit = cache.get(nxt)
                        if hit:
                            ok = True
                            break
                        if hit is None and nxt not in busy:
                            child = nxt
                            break
            if child is not None:
                busy.add(child)
                j = child[0]
                stack.append((child, zip(outs[j], targets[j])))
                continue
            stack.pop()
            busy.discard(key)
            cache[key] = ok
        return ok

    return viable


def _advance(view, viable, i, u):
    """Forced-emission step of the pending-suffix inversion: starting at
    state number i of the view with the word u of inverse input not yet
    matched, emit input letters of the machine as long as exactly one
    admissible letter remains viable and its output is covered by u.
    Returns (emitted, (i', u')).  Raises NotInvertible when no letter's
    outputs are compatible with u (u lies off the image)."""
    letters, outs, targets = view.letters, view.outs, view.targets
    emitted = []
    while True:
        found = None
        for x, w, j in zip(letters[i], outs[i], targets[i]):
            m = len(w)
            if u[:m] == w:
                if not viable(j, u[m:]):
                    continue
                covered = True
            elif m > len(u) and w[:len(u)] == u:
                covered = False
            else:
                continue
            if found is not None:
                return tuple(emitted), (i, u)
            found = (x, m, j, covered)
        if found is None:
            raise NotInvertible(
                "not invertible by finite transducer: pending word "
                f"{format_word(u)!r} extends no output from "
                f"{view.states[i]!r}"
            )
        x, m, j, covered = found
        if not covered:
            return tuple(emitted), (i, u)
        emitted.append(x)
        i, u = j, u[m:]


def _pending_bound(view):
    """|Q| * (1 + max output length): the longest pending word a finite
    inverse of the view's machine can need."""
    outs = view.outs
    return len(outs) * (1 + max(len(w) for row in outs for w in row))


def _explore(view, n, seeds, start_letters, prune):
    """The pending-word exploration behind invert and invert_core.

    A configuration is (state number of the view, pending word): input
    of the inverse read so far that the machine's emissions have not yet
    covered.  Reading y appends it to the pending word and _advance
    emits every forced letter.  The exploration runs breadth-first from
    `seeds`; the first configuration reads `start_letters`, every other
    one the n digits.  A pending word longer than |Q| * (1 + max output
    length) means no finite inverse exists.

    A letter whose pending word extends no output raises NotInvertible,
    unless `prune` is set: it then leaves the configuration without that
    transition, and only the largest set of configurations with a
    transition on every letter into the set is kept.  Returns the kept
    configurations, named (state name, pending word), in the order they
    were found, and their transitions."""
    viable = _viability(view)
    bound = _pending_bound(view)
    digits = tuple(range(n))
    configs = list(seeds)
    index = {c: k for k, c in enumerate(configs)}
    rows = []
    for k, (i, u) in enumerate(configs):
        row = []
        for y in start_letters if k == 0 else digits:
            try:
                out, nxt = _advance(view, viable, i, u + (y,))
            except NotInvertible:
                if not prune:
                    raise
                row.append(None)
                continue
            if len(nxt[1]) > bound:
                raise NotInvertible(
                    "not invertible by finite transducer: pending word "
                    f"exceeds bound {bound}: {format_word(nxt[1])!r} at "
                    f"state {view.states[nxt[0]]!r}"
                )
            tgt = index.get(nxt)
            if tgt is None:
                tgt = index[nxt] = len(configs)
                configs.append(nxt)
            row.append((y, out, tgt))
        rows.append(row)
    keep = _accepting(rows) if prune else range(len(rows))
    names = {k: (view.states[configs[k][0]], configs[k][1]) for k in keep}
    trans = {(names[k], y): (out, names[tgt])
             for k in keep for y, out, tgt in rows[k]}
    return list(names.values()), trans


def _accepting(rows):
    """The numbers, in order, of the largest set of configurations that
    have a transition on every letter, each into the set: every row that
    reaches a row with a missing transition is dropped, found by one
    walk back along the transitions from all such rows at once."""
    preds = [[] for _ in rows]
    drop = []
    for k, row in enumerate(rows):
        for edge in row:
            if edge is None:
                drop.append(k)
            else:
                preds[edge[2]].append(k)
    dead = set(_bfs(preds, *drop))
    return [k for k in range(len(rows)) if k not in dead]


def invert(a):
    """Inverse machine via the pending-suffix construction.

    A state of the inverse is a pair (state of a, pending word): input
    read so far that a's emissions have not yet covered.  A letter of
    the original input alphabet is emitted once it is the unique viable
    continuation and its output is fully covered by the pending word.
    Pending words are capped at |Q| * (1 + max output length); blowing
    the cap, or meeting input no run of `a` can emit, means no finite
    inverse exists.  The result is minimized and checked in both orders
    by the lag walk: every pair state of the product with `a` must carry
    a lag word u with u x = w u' on each of its edges x/w, which holds
    exactly when the product is the identity.  The walk builds no
    product machine.
    """
    if a.mode != INITIAL:
        raise TransducerError("invert expects an initial-mode machine; "
                              "invert_core handles cores")
    a = minimize(a)
    view = _View(a)
    roots = tuple(-(k + 1) for k in range(a.r))
    states, trans = _explore(view, a.n, [(view.index[a.initial], EMPTY)],
                             roots, prune=False)
    raw = Transducer(a.n, a.r, INITIAL, sorted(states, key=str), states[0],
                     trans)
    bad = validate(raw)
    if bad:
        raise NotInvertible("inverse construction degenerate: " +
                            "; ".join(bad))
    b = _reduce(raw)
    if not (_product_is_identity(a, b) and _product_is_identity(b, a)):
        raise NotInvertible(
            "round-trip verification failed: the constructed machine "
            "does not invert the input"
        )
    return b
