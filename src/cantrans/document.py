"""Line-oriented text format for transducers and prefix-code maps.

    cantor-transducer 1
    alphabet n=3 r=2          # or:  alphabet n=3 core
    initial q0                # initial mode only
    q0 .0 -> q1 : -
    q0 .1 -> q2 : .1 1
    q2 0  -> q2 : 1

Tokens are whitespace separated; `#` starts a comment; `-` is the empty
word.  Parsing always validates, so degenerate machines are rejected
with the line of the offending transition where one exists.

Prefix-code maps are lines `eta -> zeta`, one cone pair per line.
"""

import re

from .words import EMPTY, WordError, check_word_shape, format_letter, \
    format_word, is_root, parse_letter
from .machine import CORE, INITIAL, Transducer, _bfs_order, validate

HEADER = "cantor-transducer 1"

_RESERVED = {"->", ":", "-", "#"}


class ParseError(ValueError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _tokens(line):
    """The tokens of a line, comment cut, and their 1-based columns."""
    text = line.split("#", 1)[0]
    tokens = text.split()
    columns = []
    pos = 0
    for tok in tokens:
        # only whitespace lies between tokens, so the next match is it
        pos = text.index(tok, pos)
        columns.append(pos + 1)
        pos += len(tok)
    return tokens, columns


def _word(lineno, tokens, columns):
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


def parse(text):
    """Parse and validate a transducer document."""
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
    m = re.fullmatch(r"alphabet n=(\d+) (?:r=(\d+)|core)", " ".join(tok))
    if not m:
        raise ParseError(alpha_line, cols[0],
                         "expected 'alphabet n=<n> r=<r>' "
                         "or 'alphabet n=<n> core'")
    n = int(m.group(1))
    r = int(m.group(2)) if m.group(2) else None
    mode = INITIAL if r is not None else CORE

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
        out = _word(lineno, out_toks, cols[5:])
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
    except WordError as e:
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


def serialize(t):
    """Write a transducer document, deterministically ordered: states
    breadth-first from the entry state (unreachable ones last, by name),
    letters in canonical order."""
    out = [HEADER]
    if t.mode == INITIAL:
        out.append(f"alphabet n={t.n} r={t.r}")
        out.append(f"initial {t.initial}")
        start = t.initial
    else:
        out.append(f"alphabet n={t.n} core")
        start = t.initial if t.initial is not None else \
            min(t.states, key=str)
    seen = _bfs_order(t, start)
    order = list(seen) + sorted((q for q in t.states if q not in seen),
                                key=str)
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


def parse_prefix_map(text):
    """Parse lines 'eta -> zeta' into (domain, range) word lists."""
    domain, range_ = [], []
    for i, raw in enumerate(text.splitlines(), start=1):
        tok, cols = _tokens(raw)
        if not tok:
            continue
        if "->" not in tok:
            raise ParseError(i, cols[0], "expected '<word> -> <word>'")
        cut = tok.index("->")
        domain.append(_word(i, tok[:cut], cols[:cut]))
        range_.append(_word(i, tok[cut + 1:], cols[cut + 1:]))
    if not domain:
        raise ParseError(1, 1, "empty prefix-code map")
    return domain, range_


def serialize_prefix_map(pm):
    return "\n".join(
        f"{format_word(d)} -> {format_word(r)}" for d, r in pm.pairs()
    ) + "\n"
