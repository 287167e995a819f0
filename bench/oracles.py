"""Independent checks for the benchmark's verdicts.

Nothing here runs the library's algorithms.  Each oracle works from a
machine's raw transition table (`states`, `trans`, `initial`, `mode`)
or from `PrefixCodeMap` word arithmetic, so a wrong verdict cannot be
confirmed by the code that produced it.
"""

from itertools import product


def _successors(t):
    return {key: tgt for key, (_w, tgt) in t.trans.items()}


def tracked_states(t):
    """States synchronization is measured over: every state of a core; in
    initial mode the states not reachable from the entry along
    empty-output transitions (the pre-root region)."""
    if t.mode == "core":
        return list(t.states)
    silent = {}
    for (q, _x), (w, tgt) in t.trans.items():
        if not w:
            silent.setdefault(q, []).append(tgt)
    pre = {t.initial}
    todo = [t.initial]
    while todo:
        for tgt in silent.get(todo.pop(), ()):
            if tgt not in pre:
                pre.add(tgt)
                todo.append(tgt)
    return [q for q in t.states if q not in pre]


def brute_force_level(t, max_level=8):
    """Least m <= max_level such that every digit word of length m sends
    all tracked states to one state, by enumerating the words; None when
    no such m exists up to max_level."""
    succ = _successors(t)
    tracked = tracked_states(t)
    if len(tracked) <= 1:
        return 0
    for m in range(1, max_level + 1):
        for word in product(range(t.n), repeat=m):
            ends = set()
            for q in tracked:
                for x in word:
                    q = succ[(q, x)]
                ends.add(q)
            if len(ends) > 1:
                break
        else:
            return m
    return None


def pair_survives(t, p, q):
    """True when some infinite digit word keeps the runs from p and q
    apart forever: the pairs of distinct states reachable from {p, q}
    contain a non-empty set closed under "has a successor inside", which
    by Koenig's lemma is an infinite separating word."""
    if p == q:
        return False
    succ = _successors(t)

    def moves(pair):
        a, b = tuple(pair)
        for x in range(t.n):
            nxt = frozenset((succ[(a, x)], succ[(b, x)]))
            if len(nxt) == 2:
                yield nxt

    start = frozenset((p, q))
    alive = {start}
    todo = [start]
    while todo:
        for nxt in moves(todo.pop()):
            if nxt not in alive:
                alive.add(nxt)
                todo.append(nxt)
    changed = True
    while changed:
        changed = False
        for pair in list(alive):
            if not any(nxt in alive for nxt in moves(pair)):
                alive.discard(pair)
                changed = True
    return start in alive


def twin_letters(t):
    """A reachable digit-reading state with two letters that share output
    and target, or None.  Such a pair makes the map non-injective: the
    inputs u x z and u y z have the same image."""
    succ = _successors(t)
    start = t.initial if t.initial is not None else t.states[0]
    seen = {start}
    todo = [start]
    while todo:
        q = todo.pop()
        letters = [x for (p, x) in t.trans if p == q]
        for x in letters:
            if succ[(q, x)] not in seen:
                seen.add(succ[(q, x)])
                todo.append(succ[(q, x)])
        digits = sorted(x for x in letters if x >= 0)
        for i, x in enumerate(digits):
            for y in digits[i + 1:]:
                if t.trans[(q, x)] == t.trans[(q, y)]:
                    return q, x, y
    return None


def cycle_witness_ok(core, states, read, written):
    """The witness (states, read, written) of an unbalanced cycle is a
    closed walk through `states` in order that reads `read` letters and
    can write `written` letters, with read != written."""
    if read == written or read != len(states):
        return False
    sums = {0}
    for i, q in enumerate(states):
        nxt = states[(i + 1) % len(states)]
        lens = {len(w) for x in range(core.n)
                for w, tgt in [core.trans[(q, x)]] if tgt == nxt}
        sums = {s + k for s in sums for k in lens}
    return written in sums


def tail_point(point, skip, point_type):
    """The point with its first `skip` letters removed."""
    pre, per = point.preperiod, point.period
    if skip <= len(pre):
        return point_type(pre[skip:], per)
    j = (skip - len(pre)) % len(per)
    return point_type((), per[j:] + per[:j])


def prefix_map_image(pm, point, point_type):
    """Image of an eventually periodic point under a prefix-exchange map,
    by finding the domain word it extends."""
    longest = max(len(d) for d in pm.domain)
    head = point.expand(longest)
    for d, r in zip(pm.domain, pm.range_):
        if head[:len(d)] == d:
            rest = tail_point(point, len(d), point_type)
            return point_type(r + rest.preperiod, rest.period)
    raise ValueError("point extends no domain word")


def twist_image(sigma, point, point_type):
    """Image under the digit permutation sigma applied letterwise."""
    def move(word):
        return tuple(sigma[x] if x >= 0 else x for x in word)
    return point_type(move(point.preperiod), move(point.period))
