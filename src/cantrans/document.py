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

Parsing is one pass over the lines, each split once.  Token columns are
found only for the line an error is raised on, and each distinct letter
token and each distinct output is parsed once per document.  No table
by name is built: the states are numbered as the lines mention them,
the transitions keyed by state number, and the integer rows cut from
those keys are validated once, on them.  Only rows that pass become a
machine, built on them, so library calls on it neither validate it
again nor build a view of it, and its `trans` is built on first read.
Only a document that fails gets a table by name, in line order, for
machine._violations to word the refusal on.

serialize reads a machine through machine._view_of, which refuses an
invalid one, and writes it from its rows.
"""

import re
from itertools import filterfalse, product, repeat
from operator import itemgetter

from .words import EMPTY, WordError, check_word_shape, format_letter, \
    format_word, is_root, parse_letter
from . import machine
from .machine import CORE, INITIAL, Transducer, TransducerError, _View, \
    _bfs, _checked_r, _view_of

HEADER = "cantor-transducer 1"

_RESERVED = {"->", ":", "-", "#"}

_ALPHABET = re.compile(r"alphabet n=(\d+) (?:r=(\d+)|core)")


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


def _word(tokens, letters, fail):
    """parse_word on tokens, each distinct letter token parsed once per
    document through the memo `letters`; a bad word raises fail(k,
    message) for its offending token k."""
    if tokens == ["-"]:
        return EMPTY
    word = []
    for k, tok in enumerate(tokens):
        letter = letters.get(tok)
        if letter is None:
            try:
                letter = letters[tok] = parse_letter(tok)
            except WordError as e:
                raise fail(k, str(e))
        word.append(letter)
    word = tuple(word)
    try:
        return check_word_shape(word)
    except WordError as e:
        raise fail(next(k for k in range(1, len(word)) if is_root(word[k])),
                   str(e))


def _alphabet(tokens):
    """(n, r, mode) from the tokens of an alphabet line, or None."""
    m = _ALPHABET.fullmatch(" ".join(tokens))
    if not m:
        return None
    try:
        n, r = (None if g is None else int(g) for g in m.groups())
    except ValueError:  # more digits than int converts
        return None
    return n, r, CORE if r is None else INITIAL


def parse(text):
    """Parse and validate a transducer document."""
    lines = text.splitlines()
    if "#" in text:
        lines_cut = (line.split("#", 1)[0] for line in lines)
    else:
        lines_cut = lines
    # at most six fields: a transition's sixth is its output text, which
    # keys the memo of outputs
    rows = [(i, tok) for i, tok in
            enumerate(map(str.split, lines_cut, repeat(None), repeat(5)),
                      start=1) if tok]
    if not rows:
        raise ParseError(1, 1, "empty document")

    def fail(lineno, k, message):
        """The ParseError at the column of token k of a line."""
        return ParseError(lineno, _tokens(lines[lineno - 1])[1][k], message)

    lineno, tok = rows[0]
    if tok != HEADER.split():
        raise fail(lineno, 0, f"expected header {HEADER!r}")
    if len(rows) < 2:
        raise ParseError(lineno, 1, "missing alphabet line")

    alpha_line, tok = rows[1]
    alphabet = _alphabet(tok)
    if alphabet is None:
        raise fail(alpha_line, 0, "expected 'alphabet n=<n> r=<r>' "
                                  "or 'alphabet n=<n> core'")
    n, r, mode = alphabet

    body = rows[2:]
    initial = None
    if mode == INITIAL:
        if not body or body[0][1][0] != "initial" or len(body[0][1]) != 2:
            raise fail((body[0] if body else rows[1])[0], 0,
                       "expected 'initial <state>'")
        initial = body[0][1][1]
        body = body[1:]

    # states numbered on first mention, the initial state first
    number = {} if initial is None else {initial: 0}
    trans = {}  # (state number, letter) -> (output, target number)
    add = trans.setdefault
    letters = {}  # letter token -> letter
    words = {}  # output text -> word
    for lineno, tok in body:
        if len(tok) < 6 or tok[2] != "->" or tok[4] != ":":
            raise fail(lineno, 0,
                       "expected '<state> <letter> -> <target> : <output>'")
        src, letter_tok, _, tgt, _, out_text = tok
        if src in _RESERVED or tgt in _RESERVED:
            name, k = (src, 0) if src in _RESERVED else (tgt, 3)
            raise fail(lineno, k, f"reserved token {name!r} "
                                  "cannot name a state")
        letter = letters.get(letter_tok)
        if letter is None:
            try:
                letter = letters[letter_tok] = parse_letter(letter_tok)
            except WordError as e:
                raise fail(lineno, 1, str(e))
        out = words.get(out_text)
        if out is None:
            out = words[out_text] = _word(
                out_text.split(), letters,
                lambda k, message: fail(lineno, 5 + k, message))
        key = (number.setdefault(src, len(number)), letter)
        value = (out, number.setdefault(tgt, len(number)))
        if add(key, value) is not value:
            raise fail(lineno, 1,
                       f"duplicate transition ({src}, {letter_tok})")

    states = tuple(number)
    try:
        r = _checked_r(n, r, mode)
    except (WordError, TransducerError) as e:
        raise ParseError(alpha_line, 1, str(e)) from None
    nroots = r or 0  # read by the entry, state 0, in initial mode
    if states and len(trans) == nroots + (len(states) - bool(nroots)) * n:
        view = _rows(trans, states, n, nroots)
        if view is not None and machine._stages(view, n, r):
            return Transducer._of_rows(n, r, mode, initial, view, None)
    # a transition missing, stray or failing a stage: the table by name,
    # in line order, on which _violations words the refusal
    table = {(states[i], x): (w, states[j])
             for (i, x), (w, j) in trans.items()}
    t = Transducer(n, r, mode, states, initial, {})
    object.__setattr__(t, "_trans", table)
    bad = machine._violations(t)
    if bad:
        # each line of the table added one key, in order
        lineof = dict(zip(table, (lineno for lineno, _ in body)))
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


def _rows(trans, states, n, r):
    """The integer rows of parse's transitions `trans`, cut as _View cuts
    a table: the row of the r root letters of the entry, state 0 (none
    in core mode, where r is 0), then the digit rows of the other states
    in order, found by one lookup each; None when a transition is
    missing."""
    roots, digits = tuple(range(-1, -r - 1, -1)), tuple(range(n))
    try:
        head = list(map(trans.__getitem__, zip(repeat(0), roots)))
        edges = list(map(trans.__getitem__,
                         product(range(bool(roots), len(states)), digits)))
    except KeyError:
        return None
    outs = list(zip(*[map(itemgetter(0), edges)] * n))
    targets = list(zip(*[map(itemgetter(1), edges)] * n))
    letters = [digits] * len(outs)
    if roots:
        letters.insert(0, roots)
        outs.insert(0, tuple(map(itemgetter(0), head)))
        targets.insert(0, tuple(map(itemgetter(1), head)))
    return _View._of_rows(states, letters, outs, targets,
                          0 if roots else None)


def serialize(t):
    """Write a transducer document, deterministically ordered: states
    breadth-first from the entry state (unreachable ones last, by name),
    letters in canonical order.  Each letter and each distinct output
    word is formatted once per document, as machine._serialize does.
    The machine is written from its rows (see _edges), which refuses an
    invalid one (machine._view_of)."""
    rows = _view_of(t)
    out = [HEADER]
    if t.mode == INITIAL:
        out.append(f"alphabet n={t.n} r={t.r}")
        out.append(f"initial {t.initial}")
        start = t.initial
    else:
        out.append(f"alphabet n={t.n} core")
        start = t.initial if t.initial is not None else \
            min(t.states, key=str)
    words = {}
    letters = {x: format_letter(x)
               for x in (*t.input_letters(t.initial), *range(t.n))}
    for q, x, w, tgt in _edges(t, rows, start):
        if not isinstance(q, str) or not isinstance(tgt, str):
            raise WordError(
                "only string state names serialize; relabel first"
            )
        word = words.get(w)
        if word is None:
            word = words[w] = format_word(w)
        out.append(f"{q} {letters[x]} -> {tgt} : {word}")
    return "\n".join(out) + "\n"


def _edges(t, rows, start):
    """serialize's transitions (state, letter, output, target), in its
    order, walked on t's rows by state number: the states breadth-first
    from `start`, then the others sorted by str, each state's letters in
    canonical order."""
    states, targets = rows.states, rows.targets
    first = rows.entry if t.mode == INITIAL else states.index(start)
    order = _bfs(targets, first)
    if len(order) < len(states):
        seen = set(order)
        order += sorted(filterfalse(seen.__contains__, range(len(states))),
                        key=lambda i: str(states[i]))
    for i in order:
        q = states[i]
        for x, w, j in zip(rows.letters[i], rows.outs[i], targets[i]):
            yield q, x, w, states[j]


def parse_prefix_map(text):
    """Parse lines 'eta -> zeta' into (domain, range) word lists."""
    domain, range_ = [], []
    letters = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        tok, cols = _tokens(raw)
        if not tok:
            continue
        if "->" not in tok:
            raise ParseError(i, cols[0], "expected '<word> -> <word>'")
        cut = tok.index("->")
        domain.append(_word(tok[:cut], letters, lambda k, message:
                            ParseError(i, cols[k], message)))
        range_.append(_word(tok[cut + 1:], letters, lambda k, message:
                            ParseError(i, cols[cut + 1 + k], message)))
    if not domain:
        raise ParseError(1, 1, "empty prefix-code map")
    return domain, range_


def serialize_prefix_map(pm):
    return "\n".join(
        f"{format_word(d)} -> {format_word(r)}" for d, r in pm.pairs()
    ) + "\n"
