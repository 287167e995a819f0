"""Group operations on transducers and the basic constructors.

Composition is left to right throughout: compose(a, b) realizes
x -> (x . a) . b, matching the right actions used everywhere else in
the library.
"""

from collections import deque
from dataclasses import dataclass

from .words import (
    EMPTY,
    Alphabet,
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
    canonical_form,
    check_valid,
    run_word,
    validate,
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


def compose(a, b, *, reduce=True):
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
    return _reduce(raw) if reduce else raw


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


def _viability(t):
    """Memoized test: can some infinite run from state q emit a string
    extending the word u?  Depth-first search over (state, unmatched
    rest of u) configurations with an explicit stack, so long chains of
    empty-output transitions need no recursion; a configuration already
    on the search path counts as a dead end."""
    cache = {}

    def viable(q, u):
        if not u:
            return True
        root = (q, u)
        if root in cache:
            return cache[root]
        busy = {root}
        stack = [(root, iter(t.input_letters(q)))]
        ok = False  # once True, it holds for every configuration popped
        while stack:
            key, letters = stack[-1]
            p, v = key
            child = None
            if not ok:
                for x in letters:
                    w, tgt = t.step(p, x)
                    if is_prefix(v, w):
                        ok = True
                        break
                    if is_prefix(w, v):
                        nxt = (tgt, v[len(w):])
                        if cache.get(nxt):
                            ok = True
                            break
                        if nxt not in cache and nxt not in busy:
                            child = nxt
                            break
            if child is not None:
                busy.add(child)
                stack.append((child, iter(t.input_letters(child[0]))))
                continue
            stack.pop()
            busy.discard(key)
            cache[key] = ok
        return ok

    return viable


def _advance(t, viable, q, u):
    """Forced-emission step of the pending-suffix inversion: starting at
    state q of t with the word u of inverse input not yet matched, emit
    input letters of t as long as exactly one admissible letter remains
    viable and its output is covered by u.  Returns (emitted, (q', u')).
    Raises NotInvertible when no letter's outputs are compatible with u
    (u lies off the image)."""
    emitted = []
    while True:
        cands = []
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            if is_prefix(w, u) and viable(tgt, u[len(w):]):
                cands.append((x, w, tgt, True))
            elif len(w) > len(u) and is_prefix(u, w):
                cands.append((x, w, tgt, False))
        if not cands:
            raise NotInvertible(
                "not invertible by finite transducer: pending word "
                f"{format_word(u)!r} extends no output from {q!r}"
            )
        if len(cands) > 1 or not cands[0][3]:
            return tuple(emitted), (q, u)
        x, w, tgt, _ = cands[0]
        emitted.append(x)
        q, u = tgt, u[len(w):]


def invert(a, *, verify=True):
    """Inverse machine via the pending-suffix construction.

    A state of the inverse is a pair (state of a, pending word): input
    read so far that a's emissions have not yet covered.  A letter of
    the original input alphabet is emitted once it is the unique viable
    continuation and its output is fully covered by the pending word.
    Pending words are capped at |Q| * (1 + max output length); blowing
    the cap, or meeting input no run of `a` can emit, means no finite
    inverse exists.  The result is minimized and, unless verify=False,
    checked by the round trip compose(a, invert(a)) == identity.
    """
    if a.mode != INITIAL:
        raise TransducerError("invert expects an initial-mode machine; "
                              "invert_core handles cores")
    return _invert_minimal(minimize(a), verify)


def _invert_minimal(a, verify=True):
    """invert for a machine that is already minimal."""
    viable = _viability(a)
    bound = len(a.states) * (1 + a.max_output_len())

    def advance(q, u):
        return _advance(a, viable, q, u)

    start = (a.initial, EMPTY)
    trans = {}
    seen = {start}
    todo = deque([start])
    while todo:
        state = todo.popleft()
        q, u = state
        letters = (tuple(-(k + 1) for k in range(a.r))
                   if state == start else tuple(range(a.n)))
        for y in letters:
            out, nxt = advance(q, u + (y,))
            if len(nxt[1]) > bound:
                raise NotInvertible(
                    "not invertible by finite transducer: pending word "
                    f"exceeds bound {bound}"
                )
            trans[(state, y)] = (out, nxt)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)

    raw = Transducer(a.n, a.r, INITIAL, sorted(seen, key=str), start, trans)
    bad = validate(raw)
    if bad:
        raise NotInvertible("inverse construction degenerate: " +
                            "; ".join(bad))
    b = _reduce(raw)
    if verify:
        ident = canonical_form(identity_transducer(Alphabet(a.n, a.r)))
        if canonical_form(compose(a, b)) != ident \
                or canonical_form(compose(b, a)) != ident:
            raise NotInvertible(
                "round-trip verification failed: the constructed machine "
                "does not invert the input"
            )
    return b
