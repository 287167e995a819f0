"""Shared generators and oracles for the test suite."""

import functools
import random
import sys
import types
from fractions import Fraction
from itertools import chain, product, repeat

from collections import deque

from cantrans import (
    Alphabet,
    CORE,
    EventuallyPeriodicPoint,
    INITIAL,
    InvalidTransducer,
    NotInvertible,
    NotSynchronizing,
    Transducer,
    TransducerError,
    UnboundedOutput,
    canonical_form,
    check_valid,
    classify_subgroup,
    cli,
    compose,
    core_of,
    core_product,
    embed_core,
    identity_transducer,
    invert,
    invert_core,
    is_bisynchronizing,
    is_identity_core,
    minimize,
    order_in_On,
    parse,
    run_word,
    serialize,
    sync_level,
    validate,
)
from cantrans.document import HEADER, ParseError, _RESERVED, _alphabet, \
    _tokens
from cantrans.words import EMPTY, Relation, WordError, check_word, \
    check_word_shape, common_prefix, format_letter, format_word, \
    is_digit_word, is_prefix, is_root, is_rooted, parse_letter, \
    word_relate, word_subtract, _primitive_root
from cantrans.machine import _View, _first_repeat, relabel
from cantrans.minimize import _reduce, merge_equivalent_states, \
    remove_inaccessible, remove_incomplete_response
from cantrans import fixtures, synchro
from cantrans.randgen import random_gnr_element, random_transducer
from cantrans.algebra import _Pairs, _accepting, _pending_bound


def _tracked_states(t):
    """Oracle: the states synchronization is measured over, by name:
    every state in core mode; in initial mode the states that have
    emitted their leading root letter (outside pre_root_states)."""
    if t.mode == CORE:
        return list(t.states)
    pre = queue_pre_root_states(t)
    return [q for q in t.states if q not in pre]


def brute_force_level(t, max_level=8):
    """Oracle: smallest m such that every digit word of length m sends
    all tracked states to one place, by plain enumeration."""
    tracked = _tracked_states(t)
    if len(tracked) <= 1:
        return 0
    for m in range(1, max_level + 1):
        if all(
            len({run_word(t, q, word)[1] for q in tracked}) == 1
            for word in product(range(t.n), repeat=m)
        ):
            return m
    return None


def _pair_graph_search(t):
    """Oracle behind pair_graph_level and pair_graph_witness: depth-first
    search of the pair automaton on unordered non-diagonal pairs of
    tracked states.  Returns ("cycle", pair) for a pair on a cycle, which
    some infinite word keeps apart, or ("dag", level) with the level one
    more than the longest path."""
    tracked = _tracked_states(t)
    idx = {q: i for i, q in enumerate(tracked)}
    succ = [[idx[t.step(q, x)[1]] for x in range(t.n)] for q in tracked]
    graph = {}
    for i in range(len(tracked)):
        for j in range(i + 1, len(tracked)):
            graph[(i, j)] = [tuple(sorted((succ[i][x], succ[j][x])))
                             for x in range(t.n) if succ[i][x] != succ[j][x]]
    color = {}
    order = []
    for node in graph:
        if node in color:
            continue
        color[node] = 1
        stack = [(node, iter(graph[node]))]
        while stack:
            cur, it = stack[-1]
            for nxt in it:
                if color.get(nxt) == 1:
                    pair = (tracked[nxt[0]], tracked[nxt[1]])
                    return "cycle", tuple(sorted(pair, key=str))
                if nxt not in color:
                    color[nxt] = 1
                    stack.append((nxt, iter(graph[nxt])))
                    break
            else:
                stack.pop()
                color[cur] = 2
                order.append(cur)
    depth = {}
    for node in order:
        depth[node] = max((depth[s] + 1 for s in graph[node]), default=0)
    return "dag", 1 + max(depth.values(), default=-1)


def pair_graph_level(t):
    """Oracle: the synchronization level read off the pair automaton,
    None when it has a cycle."""
    kind, value = _pair_graph_search(t)
    return value if kind == "dag" else None


def pair_graph_witness(t):
    """Oracle: a pair on a cycle of the pair automaton, or None."""
    kind, value = _pair_graph_search(t)
    return value if kind == "cycle" else None


def kept_apart(t, p, q):
    """Oracle: whether some infinite digit word keeps the runs from p and
    q apart, as the greatest set of distinct pairs in which every pair
    has a letter leading to another pair of the set."""
    tracked = _tracked_states(t)
    alive = {frozenset((a, b)) for a in tracked for b in tracked if a != b}
    changed = True
    while changed:
        changed = False
        for pair in list(alive):
            a, b = tuple(pair)
            if not any(frozenset((t.step(a, x)[1], t.step(b, x)[1])) in alive
                       for x in range(t.n)):
                alive.discard(pair)
                changed = True
    return frozenset((p, q)) in alive


def every_root_core_form(t):
    """Oracle: core canonical bytes from the breadth-first renumbering,
    over every root that reaches the whole core, whose transition table
    is least.  Quadratic, but equal exactly for strongly isomorphic
    strongly connected cores."""
    best = None
    for start in t.states:
        order = _bfs_order(t, start)
        if len(order) == len(t.states):
            table = _dict_core_table(t, order)
            if best is None or table < best[0]:
                best = (table, order)
    return _dict_serialize(t, best[1], f"T1|core|n={t.n}")


def level_core_at(t, steps):
    """Oracle: the core of a machine synchronizing at level <= steps, as
    synchro took it from a level: the forward closure of the state
    reached by reading `steps` zeros from the first tracked state, the
    walk shortcut by cycle arithmetic once it enters its cycle under 0."""
    q = _tracked_states(t)[0]
    seen_at = {}
    walked = []
    remaining = steps
    while remaining > 0 and q not in seen_at:
        seen_at[q] = len(walked)
        walked.append(q)
        q = t.step(q, 0)[1]
        remaining -= 1
    if remaining > 0:
        enter = seen_at[q]
        cycle = walked[enter:]
        q = cycle[remaining % len(cycle)]
    states = {q}
    todo = deque([q])
    while todo:
        p = todo.popleft()
        for x in range(t.n):
            tgt = t.step(p, x)[1]
            if tgt not in states:
                states.add(tgt)
                todo.append(tgt)
    trans = {(p, x): t.step(p, x) for p in states for x in range(t.n)}
    return Transducer(t.n, None, CORE, tuple(sorted(states, key=str)),
                      None, trans)


def _bfs_order(t, start):
    """Oracle: state names in breadth-first order from `start`, as a dict
    name -> position, on the table; each state's letters are taken in
    canonical order (the digits, or the entry's root letters), and a
    missing transition is skipped."""
    order = {start: 0}
    todo = [start]
    for q in todo:
        for x in t.input_letters(q):
            tgt = t.trans.get((q, x))
            if tgt is not None and tgt[1] not in order:
                order[tgt[1]] = len(order)
                todo.append(tgt[1])
    return order


def queue_reachable(t, start=None):
    """Oracle: Transducer.reachable as a queue-driven walk of its own."""
    if start is None:
        start = t.initial
    if start is None:
        raise TransducerError("no start state given")
    seen = {start}
    todo = deque([start])
    while todo:
        q = todo.popleft()
        for x in t.input_letters(q):
            tgt = t.trans.get((q, x))
            if tgt is not None and tgt[1] not in seen:
                seen.add(tgt[1])
                todo.append(tgt[1])
    return seen


def queue_pre_root_states(t):
    """Oracle: Transducer.pre_root_states as a queue-driven walk of its
    own along the empty-output transitions."""
    if t.mode != INITIAL:
        return set()
    seen = {t.initial}
    todo = deque([t.initial])
    while todo:
        q = todo.popleft()
        for x in t.input_letters(q):
            tgt = t.trans.get((q, x))
            if tgt is not None and tgt[0] == EMPTY and tgt[1] not in seen:
                seen.add(tgt[1])
                todo.append(tgt[1])
    return seen


def unreduced_compose(a, b):
    """Oracle: compose without its reduction.  The pair machine on the
    pairs (state of a, state of b) reachable from the entry pair, or on
    all pairs in core mode, named by the pairs and sorted by str; reading
    x a pair emits what b writes on reading what a wrote.  It is
    validated, and a degenerate one refused, as compose refuses it."""
    if a.mode != b.mode:
        raise TransducerError("mode mismatch in composition")
    if a.n != b.n or a.r != b.r:
        raise TransducerError("alphabet mismatch in composition")
    if a.mode == INITIAL:
        seeds = [(a.initial, b.initial)]
    else:
        seeds = [(p, q) for p in a.states for q in b.states]
    seen = set(seeds)
    todo = deque(seeds)
    trans = {}
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
    if a.mode == INITIAL or (a.initial is not None and
                             b.initial is not None):
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
    return raw


def full_pair_core_product(a, b):
    """Oracle: the core product through the whole pair product.  Composes
    over all |a|*|b| pairs, completes responses and merges states there,
    then reads k(k-1)/2+1 zeros, past any collapse level on k states, to
    land in the core, and minimizes it."""
    raw = unreduced_compose(a, b)
    reduced = merge_equivalent_states(remove_incomplete_response(raw))
    k = len(reduced.states)
    core = minimize(level_core_at(reduced, k * (k - 1) // 2 + 1))
    assert strongly_connected(core)
    return core


def _pair_step(a, b, pair, x):
    """The name-keyed pair step, letter by letter through
    Transducer.step: (p, q) reads x as a does, b reads what a wrote from
    q, and the pair writes what b wrote."""
    p, q = pair
    w, p = a.step(p, x)
    out = EMPTY
    for y in w:
        v, q = b.step(q, y)
        out += v
    return out, (p, q)


def product_attractor(a, b):
    """Oracle: the core of the raw pair product of two synchronizing
    cores on pair names, as synchro built it before its integer kernel:
    the walk under digit 0 from (a.states[0], b.states[0]) to the first
    repeated pair, and that pair's forward closure, both through the
    name-keyed pair step, as a machine on the pairs sorted by str."""
    step = functools.partial(_pair_step, a, b)
    pair = (a.states[0], b.states[0])
    walked = set()
    while pair not in walked:
        walked.add(pair)
        pair = step(pair, 0)[1]
    trans = {}
    todo = deque([pair])
    seen = {pair}
    while todo:
        p = todo.popleft()
        for x in range(a.n):
            out, tgt = trans[(p, x)] = step(p, x)
            if tgt not in seen:
                seen.add(tgt)
                todo.append(tgt)
    return Transducer(a.n, None, CORE, sorted(seen, key=str), None, trans)


def pair_core(a, b):
    """The closure of the pair digit 0 fixes, as core_product builds it
    from two synchronizing cores: a view on pair numbers, in the order
    found, named by the pairs."""
    pairs = _Pairs(_View(a), _View(b))
    return pairs.closure([pairs.fixed()])


def view_machine(view, n):
    """A view of a core whose rows are on state numbers, such as
    pair_core's, as a core-mode machine on its state names, sorted by
    str."""
    states = view.states
    trans = {}
    for p, outs, targets in zip(states, view.outs, view.targets):
        for x, w, j in zip(range(n), outs, targets):
            trans[(p, x)] = (w, states[j])
    return Transducer(n, None, CORE, sorted(states, key=str), None, trans)


def product_is_identity(a, b):
    """The lag walk on two machines, through their views."""
    return lag_walk(_View(a), _View(b))


def attractor_core_product(a, b):
    """Oracle: core_product of two cores known to synchronize as it was
    before its integer kernel, minimize of product_attractor, refusing a
    degenerate pair machine the same way."""
    try:
        return minimize(product_attractor(a, b))
    except InvalidTransducer as e:
        raise TransducerError(f"degenerate product: {e}") from None


def fixture_cores():
    """The minimal cores of the fixtures."""
    return [minimize(fixtures.torsion_core_2()),
            minimize(fixtures.balanced_core_2()),
            minimize(fixtures.synchronous_core_3()),
            minimize(fixtures.unbalanced_core_3()),
            core_of(minimize(fixtures.sample_3_2()))]


def balanced_powers(top):
    """BALANCED_CORE_2 a^1 .. a^top (10, 34, 103, 300, 859 states)."""
    a = minimize(fixtures.balanced_core_2())
    powers = [a]
    while len(powers) < top:
        powers.append(core_product(powers[-1], a))
    return powers


def non_synchronizing_core(n, rng):
    """Core over C_n on which digit 0 permutes the states, so no word 0^m
    synchronizes.  On digit 0 each state writes 0 and then its own index
    in three bits, so no two states are equivalent and minimizing keeps
    the defect; on digit 1 it writes a word starting with 1, so every
    guaranteed output is empty."""
    k = rng.randint(2, 5)
    names = [f"p{i}" for i in range(k)]
    perm = rng.sample(names, k)
    trans = {}
    for i, q in enumerate(names):
        trans[(q, 0)] = ((0, i >> 2 & 1, i >> 1 & 1, i & 1), perm[i])
        trans[(q, 1)] = ((1,) + tuple(rng.randrange(n)
                                      for _ in range(rng.randint(0, 1))),
                         rng.choice(names))
        for d in range(2, n):
            trans[(q, d)] = (tuple(rng.randrange(n)
                                   for _ in range(rng.randint(1, 2))),
                             rng.choice(names))
    return Transducer(n, None, CORE, names, None, trans)


def shuffled_relabel(t, rng):
    """The same machine under fresh state names, listed in random order."""
    names = [f"x{i}" for i in range(len(t.states))]
    rng.shuffle(names)
    mapping = dict(zip(t.states, names))
    trans = {(mapping[q], x): (w, mapping[tgt])
             for (q, x), (w, tgt) in t.trans.items()}
    states = sorted(mapping.values(), key=lambda _q: rng.random())
    initial = mapping[t.initial] if t.initial is not None else None
    return Transducer(t.n, t.r, t.mode, states, initial, trans)


def random_synchronizing(alphabet, states, max_out, seed, tries=200):
    """Rejection-sample valid machines until one synchronizes."""
    for k in range(tries):
        t = random_transducer(alphabet, states, max_out, seed * 1_000 + k)
        if sync_level(minimize(t)) is not None:
            return t
    raise AssertionError("no synchronizing machine found; widen the search")


def random_bisync(alphabet, seed):
    """A random bi-synchronizing map: a digit permutation twist composed
    with a random prefix-exchange map (always invertible).  Its minimal
    core always has one state, the twist's; multi_core_bisync draws
    larger cores."""
    rng = random.Random(seed)
    sigma = list(range(alphabet.n))
    rng.shuffle(sigma)
    from cantrans import twist_transducer
    return compose(twist_transducer(tuple(sigma), alphabet),
                   random_gnr_element(alphabet, seed))


@functools.cache
def _core_bases():
    """The fixture cores and BALANCED_CORE_2 a^2: 2 to 34 states."""
    return tuple(fixture_cores() + balanced_powers(2)[1:])


def multi_core_bisync(seed, max_states=34):
    """A random bi-synchronizing map over C_{n,1} whose minimal core has
    several states: a core drawn from _core_bases (at most max_states
    states), under shuffled names, embedded at a start state for which
    the embedded map is bi-synchronizing, then composed between two
    seeded prefix-exchange maps, which keep the core."""
    rng = random.Random(seed)
    base = rng.choice([c for c in _core_bases()
                       if len(c.states) <= max_states])
    core = shuffled_relabel(base, rng)
    starts = list(core.states)
    rng.shuffle(starts)
    embedded = next(e for e in map(embed_core, repeat(core), starts)
                    if is_bisynchronizing(e)[0])
    alphabet = Alphabet(core.n, 1)
    return compose(compose(random_gnr_element(alphabet, seed), embedded),
                   random_gnr_element(alphabet, seed + 1))


def random_layered(alphabet, states, max_out, seed):
    """Random machine whose digit transitions strictly increase a state
    rank until an echo sink: the pair graph can hold no cycle, so these
    synchronize at every level up to the depth, with the level varying
    by draw."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(states)]
    trans = {}
    for k in range(alphabet.r):
        trans[("q0", -(k + 1))] = ((-(k + 1),), names[0])
    last = states - 1
    for i, q in enumerate(names):
        for d in range(alphabet.n):
            if i == last:
                trans[(q, d)] = ((d,), q)
            else:
                out = tuple(rng.randrange(alphabet.n)
                            for _ in range(rng.randrange(max_out + 1)))
                trans[(q, d)] = (out, names[rng.randrange(i + 1, states)])
    return Transducer(alphabet.n, alphabet.r, INITIAL,
                      ["q0", *names], "q0", trans)


CHAIN = 3000


def _bits(i, width=12):
    return tuple((i >> (width - 1 - b)) & 1 for b in range(width))


def empty_output_chain(core):
    """States c0, c1, ... linked by digit 0 with empty output; digit 1
    writes 1 and the state's binary index, so no two states are
    equivalent.  Initial mode: an entry writes the root and the chain
    ends in an echo state.  Core mode: the last 0-edge writes 0 and
    closes the chain into a ring; c0 is the preferred start."""
    names = [f"c{i}" for i in range(CHAIN)]
    last = CHAIN - 1
    end = "c0" if core else "e"
    trans = {}
    for i, q in enumerate(names):
        trans[(q, 0)] = ((), names[i + 1]) if i < last else ((0,), end)
        trans[(q, 1)] = ((1,) + _bits(i),
                         names[(7 * i + 3) % CHAIN] if core else "e")
    if core:
        return Transducer(2, None, CORE, names, "c0", trans)
    trans[("q0", -1)] = ((-1,), "c0")
    trans[("e", 0)] = ((0,), "e")
    trans[("e", 1)] = ((1,), "e")
    return Transducer(2, 1, INITIAL, ["q0", *names, "e"], "q0", trans)


def duplicated_states(core, rng):
    """Every state split into two copies, each transition landing on a
    random copy of its target: equivalent states, so a non-minimal core
    whose colour classes all have two states."""
    trans = {}
    for (q, x), (w, tgt) in core.trans.items():
        for copy in "ab":
            trans[(f"{q}{copy}", x)] = (w, f"{tgt}{rng.choice('ab')}")
    states = [f"{q}{copy}" for q in core.states for copy in "ab"]
    return Transducer(core.n, None, CORE, states, None, trans)


def random_points(rng, n, count, depth=4):
    for _ in range(count):
        u = (-1,) + tuple(rng.randrange(n) for _ in range(rng.randrange(depth)))
        v = tuple(rng.randrange(n) for _ in range(1 + rng.randrange(depth)))
        yield EventuallyPeriodicPoint(u, v)


def delayed_copy():
    """Synchronizing endomorphism whose inverse is no transducer: writes
    yesterday's letter, so the image misses every cone starting with 1."""
    trans = {
        ("q0", -1): ((-1,), "s"),
        ("s", 0): ((0,), "s"), ("s", 1): ((0,), "t"),
        ("t", 0): ((1,), "s"), ("t", 1): ((1,), "t"),
    }
    return Transducer(2, 1, INITIAL, ["q0", "s", "t"], "q0", trans)


def count_calls(monkeypatch, module, name):
    """Route every `cantrans` module's binding of module.name through a
    recorder; returns the list of first arguments, one per call."""
    seen = []
    real = getattr(module, name)

    def counting(t, *args, **kwargs):
        seen.append(t)
        return real(t, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod and mod.__name__.startswith("cantrans") and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return seen


def fresh_parser_main(argv):
    """Oracle: cli.main parsing its arguments as it did before it shared
    one parser per process and sent a verb straight to its subparser:
    parse_args of a top-level parser built for this call alone, then
    _dispatch with main's refusals."""
    shared = cli._arguments
    cli._arguments = lambda argv: cli._parser.__wrapped__()[0].parse_args(
        argv)
    try:
        return cli.main(argv)
    finally:
        cli._arguments = shared


def three_minimize_bisync(t):
    """Oracle: is_bisynchronizing through the public inverses, which
    minimize the already minimal machine again."""
    m = minimize(t)
    fwd = sync_level(m)
    if fwd is None:
        return False, None
    try:
        inv = invert_core(m) if t.mode == CORE else invert(m)
    except NotInvertible:
        return False, None
    bwd = sync_level(inv)
    if bwd is None:
        return False, None
    return True, max(fwd, bwd)


def three_minimize_in_gnr(t):
    """Oracle: is_in_Gnr decided by inversion, as it was before the walk
    of the prefix replacement map, with three minimizations of its
    input: three_minimize_bisync and a third minimize for the core."""
    ok, _level = three_minimize_bisync(t)
    return ok and is_identity_core(core_of(minimize(t)))


def deep_twist(alphabet, k, sigma):
    """The element of G_{n,r} that applies the digit permutation sigma
    at each of the first k digit positions: a chain of k twisting states
    from the entry to an identity-echo state, whose code has r n^k words
    on k + 2 states."""
    chain = [f"d{i}" for i in range(k)] + ["e"]
    trans = {("q0", -(j + 1)): ((-(j + 1),), chain[0])
             for j in range(alphabet.r)}
    for q, tgt in zip(chain, chain[1:]):
        trans.update(((q, x), ((sigma[x],), tgt)) for x in range(alphabet.n))
    trans.update((("e", x), ((x,), "e")) for x in range(alphabet.n))
    return Transducer(alphabet.n, alphabet.r, INITIAL, ["q0", *chain], "q0",
                      trans)


def output_letter_mutants(t, rng, count):
    """Copies of t's minimal machine with one output letter changed on a
    transition that does not leave an identity-echo state: a digit
    replaced by a random letter (a root letter makes an invalid machine),
    a digit inserted after any root letter, or a digit deleted."""
    m = minimize(t)
    echo = {q for q in m.states if q != m.initial and
            all(m.trans[(q, x)] == ((x,), q) for x in range(m.n))}
    keys = [k for k in m.trans if k[0] not in echo]
    out = []
    while len(out) < count:
        key = rng.choice(keys)
        w, tgt = m.trans[key]
        w = list(w)
        spots = [i for i, y in enumerate(w) if y >= 0]
        kind = rng.choice(("replace", "insert", "delete"))
        if kind == "insert":
            w.insert(rng.randint(1 if w and w[0] < 0 else 0, len(w)),
                     rng.randrange(m.n))
        elif not spots:
            continue
        elif kind == "replace":
            w[rng.choice(spots)] = rng.randrange(-m.r, m.n)
        else:
            del w[rng.choice(spots)]
        trans = dict(m.trans)
        trans[key] = (tuple(w), tgt)
        out.append(Transducer(m.n, m.r, m.mode, m.states, m.initial, trans))
    return out


def list_queue_serialize(t):
    """Oracle: the document writer with its breadth-first walk on a list
    queue popped from the front, formatting the letter and the output
    word of each transition where it writes it."""
    out = [HEADER]
    if t.mode == INITIAL:
        out.append(f"alphabet n={t.n} r={t.r}")
        out.append(f"initial {t.initial}")
        start = t.initial
    else:
        out.append(f"alphabet n={t.n} core")
        start = t.initial if t.initial is not None else \
            min(t.states, key=str)
    order = []
    seen = set()
    queue = [start]
    while queue:
        q = queue.pop(0)
        if q in seen:
            continue
        seen.add(q)
        order.append(q)
        for x in t.input_letters(q):
            tgt = t.trans.get((q, x))
            if tgt is not None and tgt[1] not in seen:
                queue.append(tgt[1])
    order += sorted((q for q in t.states if q not in seen), key=str)
    for q in order:
        for x in t.input_letters(q):
            if (q, x) not in t.trans:
                continue
            w, tgt = t.trans[(q, x)]
            if not isinstance(q, str) or not isinstance(tgt, str):
                raise WordError(
                    "only string state names serialize; relabel first"
                )
            out.append(f"{q} {format_letter(x)} -> {tgt} : {format_word(w)}")
    return "\n".join(out) + "\n"


# Oracles for the integer kernels: the dict-based code they replaced,
# walking (state, letter) keys through Transducer.step.


def full_pass_guaranteed_output(t):
    """Oracle: guaranteed_output recomputing every state in every pass."""
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


def letter_loop_view(t, states=None):
    """Oracle: machine._View as it was built before its C-speed passes,
    state by state and letter by letter through Transducer.step, with
    list rows."""
    view = types.SimpleNamespace()
    view.states = t.states if states is None else tuple(states)
    view.index = index = {q: i for i, q in enumerate(view.states)}
    view.letters, view.outs, view.targets = [], [], []
    trans = t.trans
    for q in view.states:
        letters = t.input_letters(q)
        row = [trans.get((q, x)) or t.step(q, x) for x in letters]
        view.letters.append(letters)
        view.outs.append([w for w, _ in row])
        try:
            view.targets.append([index[tgt] for _, tgt in row])
        except KeyError as e:
            raise TransducerError(
                f"state {q!r} leads to {e.args[0]!r}, outside the "
                "states considered"
            ) from None
    return view


def rank_until_stable_refine(view, colour):
    """Oracle: machine._refine as it was before it stopped at a discrete
    partition: sorted signature ranks every round, until the number of
    colours stops growing, with padded columns built element by
    element."""
    outs, targets = view.outs, view.targets
    words = sorted({w for row in outs for w in row})
    word_rank = dict(zip(words, range(len(words))))
    width = max(map(len, outs), default=0)
    word_cols, target_cols = [], []
    for x in range(width):
        word_cols.append([word_rank[row[x]] if x < len(row) else -1
                          for row in outs])
        target_cols.append([row[x] if x < len(row) else i
                            for i, row in enumerate(targets)])
    count = len(set(colour))
    while True:
        cols = [colour]
        for words_x, targets_x in zip(word_cols, target_cols):
            cols.append(words_x)
            cols.append(map(colour.__getitem__, targets_x))
        sigs = list(zip(*cols))
        ranked = sorted(set(sigs))
        rank = dict(zip(ranked, range(len(ranked))))
        colour = list(map(rank.__getitem__, sigs))
        if len(ranked) == count:
            return colour
        count = len(ranked)


def _dict_restriction(t, keep):
    states = [q for q in t.states if q in keep]
    trans = {k: v for k, v in t.trans.items() if k[0] in keep}
    initial = t.initial if (t.initial in keep or t.mode == INITIAL) else None
    return Transducer(t.n, t.r, t.mode, states, initial, trans)


def dict_remove_incomplete_response(t):
    """Oracle: step 1 of the three-step reduction."""
    keep = set(t.states) if t.mode == CORE else queue_reachable(t)
    v = full_pass_guaranteed_output(_dict_restriction(t, keep))
    trans = dict(t.trans)
    for q in keep:
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            if t.mode == INITIAL and q == t.initial:
                trans[(q, x)] = (w + v[tgt], tgt)
            else:
                trans[(q, x)] = (word_subtract(w + v[tgt], v[q]), tgt)
    return Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)


def dict_merge_equivalent_states(t):
    """Oracle: step 3, with blocks numbered in order of first appearance
    and the initial state kept apart by a marker in its signature."""
    keep = set(t.states) if t.mode == CORE else queue_reachable(t)
    v = full_pass_guaranteed_output(_dict_restriction(t, keep))
    for q in [q for q in t.states if q in keep]:
        if q != t.initial and v[q] != EMPTY:
            raise TransducerError(
                f"state {q!r} owes output {v[q]!r}; remove incomplete "
                "responses before merging"
            )

    def signature(q, block):
        parts = []
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            parts.append((w, block[tgt]))
        if t.mode == INITIAL and q == t.initial:
            parts.append("initial")
        return tuple(parts)

    block = {q: 0 for q in t.states}
    while True:
        sigs = {q: signature(q, block) for q in t.states}
        order = {}
        for q in t.states:
            order.setdefault((block[q], sigs[q]), len(order))
        nxt = {q: order[(block[q], sigs[q])] for q in t.states}
        if len(set(nxt.values())) == len(set(block.values())):
            block = nxt
            break
        block = nxt

    if len(set(block.values())) == len(t.states):
        return t
    rep = {}
    for q in t.states:
        rep.setdefault(block[q], q)
    trans = {}
    for q in rep.values():
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            trans[(q, x)] = (w, rep[block[tgt]])
    initial = rep[block[t.initial]] if t.initial is not None else None
    return Transducer(t.n, t.r, t.mode, list(rep.values()), initial, trans)


def dict_canonical_relabel(t):
    """Oracle: names s0, s1, ... in breadth-first order from q0."""
    order = _bfs_order(t, t.initial)
    assert len(order) == len(t.states)
    return relabel(t, {q: f"s{i}" for q, i in order.items()})


def _name_length_then_name(q):
    return len(str(q)), str(q)


def dict_core_relabel(t):
    """Oracle: names s0, s1, ... in breadth-first order from the
    least-named state (by length, then str) that reaches the whole core,
    else in that name order."""
    order = None
    for start in sorted(t.states, key=_name_length_then_name):
        order = _bfs_order(t, start)
        if len(order) == len(t.states):
            break
    if order is None or len(order) != len(t.states):
        order = {q: i for i, q in
                 enumerate(sorted(t.states, key=_name_length_then_name))}
    return relabel(t, {q: f"s{i}" for q, i in order.items()})


def three_step_minimize(t):
    """Oracle: minimize as validation, the three steps one after another
    (the first and last dict-based; remove_inaccessible kept its walk),
    and the relabel."""
    t = dict_merge_equivalent_states(
        remove_inaccessible(
            dict_remove_incomplete_response(check_valid(t))))
    if t.mode == INITIAL:
        return dict_canonical_relabel(t)
    return dict_core_relabel(t)


def _dict_core_table(t, order):
    by_index = sorted(order, key=order.get)
    return tuple(
        (order[tgt], w)
        for q in by_index
        for w, tgt in (t.step(q, x) for x in t.input_letters(q))
    )


def _dict_serialize(t, order, header):
    by_index = sorted(order, key=order.get)
    parts = [header, str(len(by_index))]
    for q in by_index:
        for x in t.input_letters(q):
            w, tgt = t.step(q, x)
            parts.append(
                f"{order[q]}.{format_letter(x)}>{order[tgt]}:{format_word(w)}"
            )
    return "|".join(parts).encode()


def sorted_signature_core_form(t):
    """Oracle: the T2|core canonical bytes by Moore refinement on
    (name, letter) keys, colours ranked by sorted signature, roots from
    the smallest colour class and the least table among them."""
    assert strongly_connected(t)
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
    order = min((_bfs_order(t, q) for q in roots),
                key=lambda order: _dict_core_table(t, order))
    return _dict_serialize(t, order, f"T2|core|n={t.n}")


def dict_initial_form(t):
    """Oracle: the T1|initial canonical bytes."""
    order = _bfs_order(t, t.initial)
    assert len(order) == len(t.states)
    return _dict_serialize(t, order, f"T1|initial|n={t.n}|r={t.r}")


def row_collapse(t):
    """Oracle: synchro._collapse keyed by one tuple of successor classes
    per state."""
    tracked = _tracked_states(t)
    idx = {q: i for i, q in enumerate(tracked)}
    succ = [tuple(idx[t.step(q, x)[1]] for x in range(t.n))
            for q in tracked]
    cls = list(range(len(tracked)))
    count = len(tracked)
    rounds = 0
    while count > 1:
        ids = {}
        nxt = [ids.setdefault(tuple(cls[s] for s in row), len(ids))
               for row in succ]
        if len(ids) == count:
            return tracked, cls, None
        cls, count = nxt, len(ids)
        rounds += 1
    return tracked, cls, rounds


def round_remap_collapse(t):
    """Oracle: synchro._collapse mapping the class of every tracked state
    through each round's new classes."""
    tracked = _tracked_states(t)
    columns = list(zip(*letter_loop_view(t, tracked).targets))
    cls = list(range(len(tracked)))
    count = len(tracked)
    rounds = 0
    while count > 1:
        ids = {}
        nxt = [ids.setdefault(key, len(ids)) for key in zip(*columns)]
        if len(ids) == count:
            return tracked, cls, None
        members = list(dict(zip(nxt, range(count))).values())
        columns = [list(map(nxt.__getitem__, map(col.__getitem__, members)))
                   for col in columns]
        cls = list(map(nxt.__getitem__, cls))
        count = len(ids)
        rounds += 1
    return tracked, cls, rounds


def pump_loop_eval_point(t, point, state=None):
    """Oracle: eval_point calling letter_step_run_word once per pump of
    the period."""
    if state is None:
        if t.initial is None:
            raise TransducerError("no start state for evaluation")
        state = t.initial
    out_pre, q = letter_step_run_word(t, state, point.preperiod)
    seen = {q: (0, len(out_pre))}
    collected = list(out_pre)
    for i in range(1, len(t.states) + 2):
        w, q = letter_step_run_word(t, q, point.period)
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


def letter_loop_check_word_shape(word):
    """Oracle: check_word_shape testing each later letter in turn."""
    for i, x in enumerate(word[1:], start=1):
        if x < 0:
            raise WordError(
                f"root letter {format_letter(x)} at position {i}; "
                "roots may only lead a word"
            )
    return word


def letter_loop_is_digit_word(word):
    """Oracle: is_digit_word testing each letter in turn."""
    return all(x >= 0 for x in word)


def letter_step_run_word(t, state, word):
    """Oracle: run_word as it was before it looked transitions up in the
    table, testing each letter for a root letter and looking each letter
    up in the table, a missing transition worded as Transducer.step
    words it."""
    if state not in t.states:
        raise TransducerError(f"unknown state {state!r}")
    rooted = len(word) > 0 and word[0] < 0
    if t.mode == INITIAL:
        if rooted and state != t.initial:
            raise TransducerError("rooted word fed to a non-initial state")
        if word and not rooted and state == t.initial:
            raise TransducerError("digit word fed to the initial state")
    elif not all(x >= 0 for x in word):
        raise TransducerError("core-mode machine only reads digit words")
    out = []
    q = state
    for x in word:
        edge = t.trans.get((q, x))
        if edge is None:
            raise TransducerError(f"no transition ({q!r}, {format_letter(x)})")
        w, q = edge
        out.extend(w)
    return tuple(out), q


# Oracles for the inversion kernels: the pending-word exploration on
# (name, letter) keys through Transducer.step, the lag walks that decide
# whether a product is the identity without building it, and the round
# trips that build, validate and minimize each product before testing
# it.


def lag_walk(va, vb):
    """Oracle: whether x -> (x . a) . b is the identity, decided on the
    pair machine of the views va and vb of a and b (see algebra._Pairs)
    without building it as a Transducer.  The docstrings of
    algebra.invert and synchro._inverse_from prove that it passes, in
    both orders, on every inverse they build; the tests run it on each.

    A machine computes the identity exactly when every state s has a lag
    word u(s), the input it has read but not yet written, with
    u(s) x = w u(t) on every edge s -- x/w --> t.  The walk assigns lags
    breadth-first from a seed, stepping pairs as it reaches them, and
    stops at the first edge that breaks the equation.

    Initial mode: the seed is the entry pair with lag empty, and the
    walk covers the pairs reachable from it.  Core mode (both factors
    must synchronize): the product's core is the forward closure of the
    pair digit 0 fixes (_Pairs.fixed), and the product reduces to the
    identity core exactly when that closure computes the identity up to
    lags.  On the fixed pair, u 0 = w u forces w = 0 and
    u = 0^k, and reading 1s writes u 1 1 ..., so k is the number of 0s
    written before the first other letter; any other output on 0 breaks
    the equation on the walk's first edge.  A pair is stepped in the
    walk's own loop, as _Pairs.step steps it, along a's rows at once."""
    pairs = _Pairs(va, vb)
    size, memo, read = pairs.size, pairs.memo, pairs._read
    if va.entry is not None:
        seed, lag = pairs.entry, EMPTY
    else:
        seed = pairs.fixed()
        lag = zeros_before_other(pairs.step, seed)
        if lag is None:
            return False
    lags = {seed: lag}
    todo = [seed]
    for pair in todo:
        u = lags[pair]
        i, j = divmod(pair, size)
        for x, v, k in zip(va.letters[i], va.outs[i], va.targets[i]):
            w, q = memo.get((v, j)) or read(v, j)
            tgt = k * size + q
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


def zeros_before_other(step, pair):
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


def check_inverse(a, b):
    """Oracle: b inverts the minimal machine a in both orders.  The lag
    walk on the views of both machines and the reduction of each product
    both say yes.  Any error the oracle raises, a typed cantrans refusal
    from compose or minimize among them, fails as an AssertionError, so
    that it is never taken for a refusal of the code under test."""
    for x, y in ((a, b), (b, a)):
        try:
            walked = lag_walk(_View(x), _View(y))
            reduced = reduced_product_is_identity(x, y)
        except Exception as e:
            raise AssertionError(f"oracle failed on {(x, y)}: {e!r}") from e
        assert walked and reduced, (walked, reduced, x, y)


def checked_invert(a):
    """invert(a), with the oracle run on the inverse it returns."""
    b = invert(a)
    check_inverse(minimize(a), b)
    return b


def checked_invert_core(c):
    """invert_core(c), with the oracle run on the inverse it returns."""
    d = invert_core(c)
    check_inverse(minimize(c), d)
    return d


def checked_inverses(patch):
    """Patches synchro._inverse_from, the one construction of
    invert_core, to run the oracle on each inverse core it returns, from
    the one-seed run and from the pruned run alike; returns the list the
    checked (core, inverse) pairs are recorded in."""
    checked = []
    real = synchro._inverse_from

    def checking(c, runs, seeds, prune):
        d = real(c, runs, seeds, prune)
        check_inverse(c, d)
        checked.append((c, d))
        return d

    patch.setattr(synchro, "_inverse_from", checking)
    return checked


def reduced_product_is_identity(a, b):
    """Oracle: whether x -> (x . a) . b is the identity, by reducing the
    product.  Initial mode: the minimized composite's canonical form is
    the identity machine's.  Core mode (synchronizing factors): the
    minimized core of the pair product is the one-state echo core."""
    if a.mode == CORE:
        return is_identity_core(attractor_core_product(a, b))
    ident = canonical_form(identity_transducer(Alphabet(a.n, a.r)))
    return canonical_form(compose(a, b)) == ident


def _name_keyed_viability(t):
    cache = {}

    def viable(q, u):
        if not u:
            return True
        root = (q, u)
        if root in cache:
            return cache[root]
        busy = {root}
        stack = [(root, iter(t.input_letters(q)))]
        ok = False
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


def _name_keyed_advance(t, viable, q, u):
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


def name_keyed_invert(a, verify=True):
    """Oracle: invert as a breadth-first exploration over (state name,
    pending word) configurations, checked by the reduction round trip."""
    a = minimize(a)
    viable = _name_keyed_viability(a)
    bound = len(a.states) * (1 + a.max_output_len())
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
            out, nxt = _name_keyed_advance(a, viable, q, u + (y,))
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
    if verify and not (reduced_product_is_identity(a, b) and
                       reduced_product_is_identity(b, a)):
        raise NotInvertible(
            "round-trip verification failed: the constructed machine "
            "does not invert the input"
        )
    return b


def name_keyed_invert_core(c):
    """Oracle: invert_core as the same exploration from every (state,
    empty) seed, pruned by repeated sweeps, checked by the reduction
    round trip."""
    c = minimize(c)
    if sync_level(c) is None:
        raise NotSynchronizing("invert_core needs a synchronizing core")
    viable = _name_keyed_viability(c)
    bound = len(c.states) * (1 + c.max_output_len())
    trans = {}
    dead = set()
    seen = set()
    todo = deque((q, EMPTY) for q in c.states)
    seen.update(todo)
    while todo:
        state = todo.popleft()
        q, u = state
        for y in range(c.n):
            try:
                out, nxt = _name_keyed_advance(c, viable, q, u + (y,))
            except NotInvertible:
                dead.add(state)
                continue
            if len(nxt[1]) > bound:
                raise NotInvertible(
                    "not invertible by finite transducer: pending word "
                    f"exceeds bound {bound}"
                )
            trans[(state, y)] = (out, nxt)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    alive = set(seen)
    changed = True
    while changed:
        changed = False
        for state in list(alive):
            if state in dead:
                alive.discard(state)
                changed = True
                continue
            for y in range(c.n):
                tgt = trans.get((state, y))
                if tgt is None or tgt[1] not in alive:
                    alive.discard(state)
                    changed = True
                    break
    if not alive:
        raise NotInvertible(
            "not invertible: no configuration of the inverse accepts "
            "every continuation"
        )
    sub = Transducer(c.n, None, CORE, sorted(alive, key=str), None,
                     {k: v for k, v in trans.items() if k[0] in alive})
    level = sync_level(sub)
    if level is None:
        raise NotInvertible("inverse dynamics do not synchronize")
    d = _reduce(level_core_at(sub, level))
    if not reduced_product_is_identity(c, d) \
            or not reduced_product_is_identity(d, c):
        raise NotInvertible(
            "round-trip verification failed: core products are not trivial"
        )
    return d


# Oracle for the exploration on sets of runs (algebra._RunSets): the
# pending-word exploration it replaced, on (state number, pending word)
# configurations, with its viability search and forced-emission step.
# Inverse cores are numbered as the library numbers them, breadth-first
# from the configuration that digit 0 fixes.


def check_not_injective(t, error):
    """Walk a NotInjective certificate again on minimize(t), whose state
    names it uses: the two words differ, and from the named state both
    write the error's output and reach one state."""
    m = minimize(t)
    first, second = error.words
    assert first != second
    ends = [run_word(m, error.state, w) for w in error.words]
    assert ends[0] == ends[1]
    assert ends[0][0] == error.output


def pending_viability(view):
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


def pending_advance(view, viable, i, u):
    """Forced-emission step of the pending-word inversion: starting at
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


def pending_explore(view, n, seeds, start_letters, prune):
    """The pending-word exploration: configurations (state number,
    pending word) breadth-first from `seeds`, the first reading
    `start_letters` and every other one the n digits, each letter
    appended to the pending word and followed by pending_advance.  A
    pending word longer than the bound raises NotInvertible; so does a
    letter off the image, unless `prune` keeps only the largest set of
    configurations with a transition on every letter into the set.
    Returns the kept configurations, named (state name, pending word),
    in the order found, and their transitions."""
    viable = pending_viability(view)
    bound = _pending_bound(view)
    digits = tuple(range(n))
    configs = list(seeds)
    index = {c: k for k, c in enumerate(configs)}
    rows = []
    for k, (i, u) in enumerate(configs):
        row = []
        for y in start_letters if k == 0 else digits:
            try:
                out, nxt = pending_advance(view, viable, i, u + (y,))
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
    keep = _accepting([[None if edge is None else edge[2] for edge in row]
                       for row in rows]) if prune else range(len(rows))
    names = {k: (view.states[configs[k][0]], configs[k][1]) for k in keep}
    trans = {(names[k], y): (out, names[tgt])
             for k in keep for y, out, tgt in rows[k]}
    return list(names.values()), trans


def pending_zero_repeat_config(view):
    """The first configuration (state number, pending word) that repeats
    when a seed (i, empty) reads 0s, from the first seed, in state
    order, whose walk meets no refusal; None when every walk is refused
    or a pending word exceeds the bound."""
    viable = pending_viability(view)
    bound = _pending_bound(view)

    def zero(config):
        if config is None:
            return None
        i, u = config
        config = pending_advance(view, viable, i, u + (0,))[1]
        return config if len(config[1]) <= bound else None

    for i in range(len(view.states)):
        try:
            return _first_repeat((i, EMPTY), zero)
        except NotInvertible:
            continue
    return None


def pending_word_invert(a):
    """Oracle: invert on the pending-word exploration."""
    a = minimize(a)
    view = _View(a)
    states, trans = pending_explore(
        view, a.n, [(view.index[a.initial], EMPTY)],
        a.input_letters(a.initial), prune=False)
    raw = Transducer(a.n, a.r, INITIAL, sorted(states, key=str), states[0],
                     trans)
    bad = validate(raw)
    if bad:
        raise NotInvertible("inverse construction degenerate: " +
                            "; ".join(bad))
    b = _reduce(raw)
    if not (product_is_identity(a, b) and product_is_identity(b, a)):
        raise NotInvertible(
            "round-trip verification failed: the constructed machine "
            "does not invert the input"
        )
    return b


def pending_word_invert_core(c, one_seed=True):
    """Oracle: invert_core on the pending-word exploration, from the seed
    walk's repeat without pruning (unless one_seed is False) and, when
    that refuses, from every (state, empty) seed with pruning.  The core
    of the configuration machine is renamed by its breadth-first numbers
    from the configuration 0 fixes, in that order, before it is
    reduced."""
    c = minimize(c)
    if sync_level(c) is None:
        raise NotSynchronizing("invert_core needs a synchronizing core")
    view = _View(c)
    repeat = pending_zero_repeat_config(view) if one_seed else None
    if repeat is not None:
        try:
            return _pending_inverse_from(c, view, [repeat], False)
        except NotInvertible:
            pass
    seeds = [(i, EMPTY) for i in range(len(c.states))]
    return _pending_inverse_from(c, view, seeds, True)


def _pending_inverse_from(c, view, seeds, prune):
    states, trans = pending_explore(view, c.n, seeds, range(c.n), prune)
    if not states:
        raise NotInvertible(
            "not invertible: no configuration of the inverse accepts "
            "every continuation"
        )
    sub = Transducer(c.n, None, CORE, sorted(states, key=str), None, trans)
    if sync_level(sub) is None:
        raise NotInvertible("inverse dynamics do not synchronize")
    # the core: the closure of the configuration 0 fixes, numbered
    # breadth-first from it
    fixed = _first_repeat(sub.states[0], lambda q: sub.step(q, 0)[1])
    number = _bfs_order(sub, fixed)
    trans = {}
    for q, k in number.items():
        for x in range(c.n):
            w, t = sub.step(q, x)
            trans[(k, x)] = (w, number[t])
    d = _reduce(Transducer(c.n, None, CORE, range(len(number)), None, trans))
    if not product_is_identity(c, d) or not product_is_identity(d, c):
        raise NotInvertible(
            "round-trip verification failed: core products are not trivial"
        )
    return d


def worklist_accepting(targets):
    """Oracle: algebra._accepting as a worklist that drops the states
    with a missing transition (target None), then everything leading to
    a dropped state, until nothing changes."""
    preds = [[] for _ in targets]
    drop = []
    for k, row in enumerate(targets):
        for j in row:
            if j is None:
                drop.append(k)
            else:
                preds[j].append(k)
    alive = [True] * len(targets)
    while drop:
        k = drop.pop()
        if alive[k]:
            alive[k] = False
            drop.extend(preds[k])
    return [k for k, ok in enumerate(alive) if ok]


def simple_path_unbalanced_cycle(core):
    """Oracle: an unbalanced simple cycle by enumerating the simple paths
    from each state in turn (exponential; small cores only), or None."""
    for first in core.states:
        stack = [(first, [first], 0, 0)]
        while stack:
            q, path, read, written = stack.pop()
            for x in range(core.n):
                w, tgt = core.step(q, x)
                if tgt == first:
                    if read + 1 != written + len(w):
                        return tuple(path), read + 1, written + len(w)
                elif tgt not in path:
                    stack.append((tgt, path + [tgt],
                                  read + 1, written + len(w)))
    return None


def cycle_rewalks(core, states, read, written):
    """Whether (states, read, written) is an unbalanced cycle of the
    core: consecutive states, the last back to the first, are joined by
    edges whose output lengths can sum to `written`, with one letter read
    per state and read != written."""
    if read == written or read != len(states) or \
            len(set(states)) != len(states):
        return False
    sums = {0}
    for q, nxt in zip(states, states[1:] + states[:1]):
        lens = {len(w) for x in range(core.n)
                for w, tgt in [core.step(q, x)] if tgt == nxt}
        sums = {s + k for s in sums for k in lens}
    return written in sums


def extra_zero_on_last(core):
    """The core with its last state writing one more 0 on digit 1: still
    valid and strongly connected, but the cycles through that edge write
    one letter too many."""
    last = core.states[-1]
    trans = dict(core.trans)
    w, tgt = trans[(last, 1)]
    trans[(last, 1)] = (w + (0,), tgt)
    return Transducer(core.n, None, CORE, core.states, core.initial, trans)


def letter_loop_validate(t):
    """Oracle: validate as it was written before its C-speed stages, with
    the expected-key set built state by state, every output word checked
    letter by letter, and the epsilon-cycle search started from every
    state."""
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

    expected = {}
    for q in t.states:
        for x in t.input_letters(q):
            expected[(q, x)] = None
    for key in expected:
        if key not in t.trans:
            q, x = key
            out.append(f"incomplete transition table: missing "
                       f"({q!r}, {format_letter(x)})")
    for key in t.trans:
        if key not in expected:
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
        pre = queue_pre_root_states(t)
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

    cyc = _every_root_epsilon_cycle(t)
    if cyc is not None:
        out.append("epsilon-output cycle through " +
                   " -> ".join(repr(q) for q in cyc))
    return out


def _every_root_epsilon_cycle(t):
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


def strongly_connected(t):
    """Oracle: whether every state of t reaches every other, by a
    name-keyed forward walk and a walk over the reversed edges."""
    if not t.states:
        return False
    start = t.states[0]
    if len(queue_reachable(t, start)) != len(t.states):
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


def _token_loop_word(lineno, tokens, columns):
    """parse_word on a line's tokens; a bad word fails at the column of
    the offending letter."""
    if tokens == ["-"]:
        return EMPTY
    letters = []
    for tok, column in zip(tokens, columns):
        try:
            letters.append(parse_letter(tok))
        except WordError as e:
            raise ParseError(lineno, column, str(e))
    word = tuple(letters)
    try:
        return check_word_shape(word)
    except WordError as e:
        at = next(k for k in range(1, len(word)) if is_root(word[k]))
        raise ParseError(lineno, columns[at], str(e))


def token_loop_parse(text):
    """Oracle: parse token by token, every token with its column and every
    letter parsed where it stands, as document.parse read documents before
    it split each line once and found columns only for an error."""
    rows = [(i, *_tokens(raw)) for i, raw in
            enumerate(text.splitlines(), start=1)]
    rows = [(n, tok, cols) for n, tok, cols in rows if tok]
    if not rows:
        raise ParseError(1, 1, "empty document")

    lineno, tok, cols = rows[0]
    if tok != HEADER.split():
        raise ParseError(lineno, cols[0], f"expected header {HEADER!r}")
    if len(rows) < 2:
        raise ParseError(lineno, 1, "missing alphabet line")

    alpha_line, tok, cols = rows[1]
    alphabet = _alphabet(tok)
    if alphabet is None:
        raise ParseError(alpha_line, cols[0],
                         "expected 'alphabet n=<n> r=<r>' "
                         "or 'alphabet n=<n> core'")
    n, r, mode = alphabet

    body = rows[2:]
    initial = None
    if mode == INITIAL:
        if not body or body[0][1][0] != "initial" or len(body[0][1]) != 2:
            where = body[0] if body else rows[1]
            raise ParseError(where[0], where[2][0],
                             "expected 'initial <state>'")
        initial = body[0][1][1]
        body = body[1:]

    trans = {}
    lineof = {}
    states = []
    seen_states = set()

    def note_state(s):
        if s not in seen_states:
            seen_states.add(s)
            states.append(s)

    for lineno, tok, cols in body:
        if len(tok) < 6 or tok[2] != "->" or tok[4] != ":":
            raise ParseError(
                lineno, cols[0],
                "expected '<state> <letter> -> <target> : <output>'")
        src, letter_tok, _, tgt, _, *out_toks = tok
        for name, column in ((src, cols[0]), (tgt, cols[3])):
            if name in _RESERVED:
                raise ParseError(lineno, column, f"reserved token {name!r} "
                                                 "cannot name a state")
        try:
            letter = parse_letter(letter_tok)
        except WordError as e:
            raise ParseError(lineno, cols[1], str(e))
        out = _token_loop_word(lineno, out_toks, cols[5:])
        if (src, letter) in trans:
            raise ParseError(lineno, cols[1],
                             f"duplicate transition ({src}, {letter_tok})")
        note_state(src)
        note_state(tgt)
        trans[(src, letter)] = (out, tgt)
        lineof[(src, letter)] = lineno

    if mode == INITIAL:
        note_state(initial)
        order = [initial] + [s for s in states if s != initial]
    else:
        order = states
    try:
        t = Transducer(n, r, mode, order, initial, trans)
    except (WordError, TransducerError) as e:
        raise ParseError(alpha_line, 1, str(e)) from None
    bad = validate(t)
    if bad:
        notes = []
        for msg in bad:
            line = None
            for (src, letter), ln in lineof.items():
                if f"({src!r}, {format_letter(letter)})" in msg:
                    line = ln
                    break
            notes.append(f"line {line}: {msg}" if line else msg)
        raise ParseError(0, 0, "invalid transducer: " + "; ".join(notes))
    return t


def word_by_word_validate_prefix_code(code, alphabet):
    """Oracle: validate_prefix_code checking range, shape and rootedness
    one word at a time, in code order, before the sorted antichain test
    and the integer Kraft sum."""
    if not code:
        return False, "empty code"
    for w in code:
        try:
            check_word(w, alphabet)
        except WordError as e:
            return False, str(e)
        if not is_rooted(w):
            return False, f"word {format_word(w)!r} is not rooted"
    ordered = sorted(code)
    if any(map(is_prefix, ordered, ordered[1:])):
        return pairwise_validate_prefix_code(code, alphabet)
    n, top = alphabet.n, max(map(len, code))
    if sum(n ** (top - len(w)) for w in code) != alphabet.r * n ** (top - 1):
        total = sum(Fraction(1, n ** (len(w) - 1)) for w in code)
        return False, (f"Kraft sum {total} != r = {alphabet.r} "
                       "(incomplete code)")
    return True, None


def pairwise_validate_prefix_code(code, alphabet):
    """Oracle: validate_prefix_code as it was before sorting, testing
    every pair of words and summing the Kraft terms as Fractions."""
    if not code:
        return False, "empty code"
    for w in code:
        try:
            check_word(w, alphabet)
        except WordError as e:
            return False, str(e)
        if not is_rooted(w):
            return False, f"word {format_word(w)!r} is not rooted"
    for i, a in enumerate(code):
        for b in code[i + 1:]:
            if word_relate(a, b) is not Relation.INCOMPARABLE:
                return False, (
                    f"comparable pair {format_word(a)!r}, {format_word(b)!r}"
                )
    total = sum(Fraction(1, alphabet.n ** (len(w) - 1)) for w in code)
    if total != alphabet.r:
        return False, f"Kraft sum {total} != r = {alphabet.r} (incomplete code)"
    return True, None


def eager_build(n, r, mode, names, letters, outs, targets, initial, known):
    """Oracle: minimize._build as it was before reductions kept their
    rows, zipping the result's name-keyed table from whole columns at
    once: (name, letter) keys from the names repeated along their
    letters, and (output, target name) values.  The machine gets that
    table through the public constructor and validate builds its rows
    from it; it knows what the reduction's result knows."""
    keys = zip(chain.from_iterable(map(repeat, names, map(len, letters))),
               chain.from_iterable(letters))
    values = zip(chain.from_iterable(outs),
                 map(names.__getitem__, chain.from_iterable(targets)))
    t = check_valid(Transducer(n, r, mode, names,
                               None if initial is None else names[initial],
                               dict(zip(keys, values))))
    object.__setattr__(t, "_known", known)
    return t


def loop_trimmed_point(preperiod, period):
    """Oracle: EventuallyPeriodicPoint's normal form as it was before one
    backward pass measured the suffix to trim: the primitive root of the
    period, then one letter trimmed at a time, each trim copying the
    preperiod and rotating the period by one.  Returns (preperiod,
    period)."""
    preperiod, period = tuple(preperiod), _primitive_root(tuple(period))
    while preperiod and not is_root(preperiod[-1]) \
            and preperiod[-1] == period[-1]:
        preperiod = preperiod[:-1]
        period = period[-1:] + period[:-1]
    return preperiod, period


# The mutation fuzz of inversion: a fixture document, or a seeded
# bi-synchronizing map written out, with one token or, after parse, one
# transition changed, run through the inversions and the classifiers.


def _fuzz_documents(rng):
    """The documents a fuzz case mutates: the fixtures, and a seeded
    twist composed with a prefix-exchange map on C_{3,2}."""
    alphabet = Alphabet(3, 2)
    return [fixtures.SAMPLE_3_2, fixtures.UNBALANCED_CORE_3,
            fixtures.UNBALANCED_4_2, fixtures.BALANCED_CORE_2,
            fixtures.SYNCHRONOUS_CORE_3, fixtures.TORSION_CORE_2,
            serialize(random_bisync(alphabet, rng.randrange(10_000)))]


def _mutated_tokens(text, rng):
    """text with one token of a transition line replaced by a letter, a
    state name or '-', deleted, or doubled."""
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if "->" in line)
    k = rng.randrange(first, len(lines))
    tokens = lines[k].split()
    i = rng.randrange(len(tokens))
    op = rng.choice(("replace", "delete", "double"))
    if op == "replace":
        names = [line.split()[0] for line in lines[first:]]
        tokens[i] = rng.choice(["0", "1", "2", "3", ".0", ".1", "-",
                                rng.choice(names)])
    elif op == "delete":
        del tokens[i]
    else:
        tokens.insert(i, tokens[i])
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _mutated_machine(t, rng):
    """t with one transition changed: its target moved to another state,
    one output letter changed to a digit, a digit added or its last
    output letter dropped.  The copy goes through the public constructor
    and is validated where it is first read."""
    trans = dict(t.trans)
    key = rng.choice(sorted(trans, key=str))
    w, q = trans[key]
    op = rng.choice(("target", "letter", "append", "drop"))
    if op == "target":
        q = rng.choice(t.states)
    elif op == "letter" and w:
        i = rng.randrange(len(w))
        w = w[:i] + (rng.randrange(t.n),) + w[i + 1:]
    elif op == "append":
        w = w + (rng.randrange(t.n),)
    else:
        w = w[:-1]
    trans[key] = (w, q)
    return Transducer(t.n, t.r, t.mode, t.states, t.initial, trans)


def mutation_fuzz_case(seed):
    """One case of the mutation fuzz: a document of _fuzz_documents with
    one token changed, or parsed and one transition changed, then
    inverted (invert, or invert_core for a core), classified and, for a
    core, its order searched up to 3.  Every inverse obtained, directly
    or inside classify_subgroup and order_in_On, passes check_inverse;
    every other outcome must be a typed cantrans error (TransducerError,
    ParseError or WordError), which is recorded by type name.  Returns
    [step, outcome] pairs, outcome "ok" or "inverse" when a step gives
    an answer."""
    rng = random.Random(seed)
    text = rng.choice(_fuzz_documents(rng))
    typed = (TransducerError, ParseError, WordError)
    seen = []

    def attempt(step, fn, *args):
        try:
            got = fn(*args)
        except typed as e:
            seen.append([step, type(e).__name__])
            return None
        seen.append([step, "inverse" if step.startswith("invert")
                     else "ok"])
        return got

    if rng.random() < 0.3:
        t = attempt("parse", parse, _mutated_tokens(text, rng))
    else:
        t = attempt("mutate", lambda: _mutated_machine(parse(text), rng))
    if t is None:
        return seen
    # every inverse core is checked as _inverse_from returns it; the
    # child process the case runs in needs no monkeypatch fixture
    real = synchro._inverse_from
    checked_inverses(types.SimpleNamespace(setattr=setattr))
    try:
        if t.mode == INITIAL:
            attempt("invert", checked_invert, t)
        else:
            attempt("invert_core", invert_core, t)
        attempt("classify", classify_subgroup, t)
        if t.mode == CORE:
            attempt("order", order_in_On, t, 3)
    finally:
        synchro._inverse_from = real
    return seen
