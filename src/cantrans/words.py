"""Alphabets, finite words and prefix codes over a two-tier alphabet.

Points of the space C_{n,r} are infinite strings: one leading "dotted"
root letter out of r, then digits out of {0, .., n-1} forever.  Finite
words are plain tuples of int-encoded letters:

    digit d        ->  d          (0 <= d < n)
    root k (".k")  ->  -(k + 1)   (0 <= k < r)

The text form of a word is whitespace-separated tokens: "0".."n-1" for
digits, ".0"..".r-1" for roots, and "-" for the empty word.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count, cycle
from operator import itemgetter, ne

Word = tuple  # tuple of int-encoded letters

EMPTY = ()


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Parameters of the space C_{n,r}: n digits, r root letters."""

    n: int
    r: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.r, int)):
            raise WordError("alphabet parameters must be integers")
        if not 1 <= self.r < self.n:
            raise WordError(f"need 1 <= r < n, got n={self.n} r={self.r}")

    @property
    def digits(self):
        return tuple(range(self.n))

    @property
    def roots(self):
        return tuple(root(k) for k in range(self.r))


def root(k):
    """Encode root letter number k (the dotted letter .k)."""
    if k < 0:
        raise WordError(f"root index must be >= 0, got {k}")
    return -(k + 1)


def is_root(letter):
    return letter < 0


def root_index(letter):
    if letter >= 0:
        raise WordError(f"{letter!r} is not a root letter")
    return -letter - 1


def letter_key(letter):
    """Canonical letter order: .0 < .1 < ... < .r-1 < 0 < 1 < ... < n-1."""
    if letter < 0:
        return (0, -letter - 1)
    return (1, letter)


def shortlex_key(word):
    return (len(word), tuple(letter_key(x) for x in word))


def format_letter(letter):
    if letter < 0:
        return f".{-letter - 1}"
    return str(letter)


def parse_letter(token):
    rooted = token.startswith(".")
    body = token[1:] if rooted else token
    try:
        # isdecimal, not isdigit: int refuses digits such as "²"
        if body.isdecimal():
            return root(int(body)) if rooted else int(body)
    except ValueError:  # more digits than int converts
        pass
    kind = "root letter" if rooted else "letter"
    raise WordError(f"bad {kind} token {token!r}")


def format_word(word):
    """The text form of a word; a digit word is joined at C speed."""
    if not word:
        return "-"
    if min(word) >= 0:
        return " ".join(map(str, word))
    return " ".join(map(format_letter, word))


def parse_word(text):
    tokens = text.split()
    if tokens == ["-"] or not tokens:
        return EMPTY
    w = tuple(parse_letter(t) for t in tokens)
    check_word_shape(w)
    return w


def check_word_shape(word):
    """A root letter may only appear at position 0, and at most once.
    Decided by one min over the later letters; the letter loop runs only
    to name the first offending letter."""
    if min(word[1:], default=0) < 0:
        i, x = next((i, x) for i, x in enumerate(word[1:], start=1)
                    if is_root(x))
        raise WordError(
            f"root letter {format_letter(x)} at position {i}; "
            "roots may only lead a word"
        )
    return word


def check_word(word, alphabet):
    """Validate letter bounds and shape against an alphabet."""
    check_word_shape(word)
    for x in word:
        if is_root(x):
            if root_index(x) >= alphabet.r:
                raise WordError(f"root letter {format_letter(x)} out of range")
        elif x >= alphabet.n:
            raise WordError(f"digit {x} out of range for n={alphabet.n}")
    return word


def is_rooted(word):
    return bool(word) and word[0] < 0


def is_digit_word(word):
    return not word or min(word) >= 0


class Relation(Enum):
    EQUAL = "equal"
    IS_PREFIX = "first-prefix-of-second"
    HAS_PREFIX = "second-prefix-of-first"
    INCOMPARABLE = "incomparable"


def word_relate(eta, nu):
    """Prefix relation between two words over the same alphabet."""
    if eta == nu:
        return Relation.EQUAL
    m = min(len(eta), len(nu))
    if eta[:m] != nu[:m]:
        return Relation.INCOMPARABLE
    return Relation.IS_PREFIX if len(eta) < len(nu) else Relation.HAS_PREFIX


def is_prefix(eta, nu):
    """True iff eta <= nu."""
    return nu[: len(eta)] == eta


def word_subtract(eta, nu):
    """Return tau with nu + tau == eta; requires nu <= eta."""
    if not is_prefix(nu, eta):
        raise WordError(
            f"cannot subtract: {format_word(nu)!r} is not a prefix "
            f"of {format_word(eta)!r}"
        )
    return eta[len(nu):]


def common_prefix(*words):
    """Longest common prefix of one or more words."""
    if not words:
        raise WordError("common_prefix of no words")
    first = words[0]
    k = min(len(w) for w in words)
    i = 0
    while i < k and all(w[i] == first[i] for w in words):
        i += 1
    return first[:i]


def validate_prefix_code(code, alphabet):
    """Check that `code` is a complete maximal antichain of rooted words.

    Returns (ok, diagnostic).  Completeness is the exact Kraft equality
    sum(n^-(len(w)-1)) == r over the code; the exponent counts digit
    letters only.

    Both tests run at sort speed.  A word that is a prefix of another
    sorts directly before some word it prefixes (every word between
    them extends it too), so comparing sorted neighbours decides the
    antichain, and the pairwise search runs only to name the first
    comparable pair in code order.  The Kraft sum is scaled by n^(L-1),
    with L the longest length, to stay in integers.  Range, shape and
    rootedness are decided for the whole code at once, on the set of
    first letters and the set of later ones (see _rooted_in_range); only
    a code that fails is checked word by word, to name its first bad
    word.
    """
    if not code:
        return False, "empty code"
    if not _rooted_in_range(code, alphabet):
        for w in code:
            try:
                check_word(w, alphabet)
            except WordError as e:
                return False, str(e)
            if not is_rooted(w):
                return False, f"word {format_word(w)!r} is not rooted"
    ordered = sorted(code)
    if any(map(is_prefix, ordered, ordered[1:])):
        return False, _first_comparable_pair(code)
    n, top = alphabet.n, max(map(len, code))
    if sum(n ** (top - len(w)) for w in code) != alphabet.r * n ** (top - 1):
        total = sum(Fraction(1, n ** (len(w) - 1)) for w in code)
        return False, (f"Kraft sum {total} != r = {alphabet.r} "
                       "(incomplete code)")
    return True, None


def _rooted_in_range(code, alphabet):
    """Whether every word of a nonempty code is a root letter of the
    alphabet followed by digits below n: no word is empty, every word is
    in range (see _words_in_range) and every first letter is below 0."""
    return (all(code) and max(map(itemgetter(0), code)) < 0 and
            _words_in_range(code, alphabet.n, alphabet.r))


def _words_in_range(words, n, r):
    """Whether each word is empty or a letter followed by digits below
    n, the letter a digit below n or one of r root letters: the words
    the shape and range checks pass.  Decided on two sets, of the first
    letters and of the others."""
    words = list(filter(None, words))
    heads = set(map(itemgetter(0), words))
    tails = set(chain.from_iterable(map(itemgetter(slice(1, None)), words)))
    return ((not heads or (min(heads) >= -r and max(heads) < n)) and
            (not tails or (min(tails) >= 0 and max(tails) < n)))


def _first_comparable_pair(code):
    """Diagnostic for the first pair (i < j, in code order) of words one
    of which is a prefix of the other; the code must hold such a pair."""
    for i, a in enumerate(code):
        for b in code[i + 1:]:
            if word_relate(a, b) is not Relation.INCOMPARABLE:
                return (f"comparable pair {format_word(a)!r}, "
                        f"{format_word(b)!r}")
    raise AssertionError("no comparable pair in the code")


def _primitive_root(word):
    """Shortest z with word == z^k.  The lengths d dividing |word| with
    word == word[:d]^k are closed under gcd (Fine-Wilf), so a descent
    over the prime factors p of |word| finds the least: from d = |word|,
    d becomes d // p while the root block word[:d] has period d // p."""
    d = rest = len(word)
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while d % p == 0 and word[d // p:d] == word[:d - d // p]:
                d //= p
        p += 1
    return word[:d]


def _trimmed(preperiod, period):
    """The shortest preperiod of u v v v ... and the period that goes
    with it: the longest suffix of u that runs backwards along v v v ...
    is cut off, and v is rotated right by its length.  The suffix is
    measured by one backward pass at C speed, to the first letter that
    differs from the period's; a root letter, never equal to a digit of
    the period, ends it.  One cut and one rotation follow."""
    cut = next(compress(count(), map(ne, reversed(preperiod),
                                     cycle(reversed(period)))),
               len(preperiod))
    if not cut:
        return preperiod, period
    turn = len(period) - cut % len(period)
    return preperiod[:-cut], period[turn:] + period[:turn]


class EventuallyPeriodicPoint:
    """The point u v v v ... , stored in a unique normal form.

    Normal form: the period is primitive and the preperiod is shortest,
    i.e. its last letter differs from the period's last letter.  Points
    of C_{n,r} have a rooted preperiod; points of C_n a digit one.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period):
        preperiod = tuple(preperiod)
        period = tuple(period)
        if not period:
            raise WordError("period must be nonempty")
        if not is_digit_word(period):
            raise WordError("period must be a digit word")
        check_word_shape(preperiod)
        period = _primitive_root(period)
        preperiod, period = _trimmed(preperiod, period)
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def __setattr__(self, *_):
        raise AttributeError("EventuallyPeriodicPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, EventuallyPeriodicPoint):
            return NotImplemented
        return (self.preperiod, self.period) == (other.preperiod, other.period)

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"Point({self!s})"

    def __str__(self):
        return f"{format_word(self.preperiod)} | {format_word(self.period)}"

    def expand(self, depth):
        """First `depth` letters of the infinite string."""
        out = list(self.preperiod)
        while len(out) < depth:
            out.extend(self.period)
        return tuple(out[:depth])

    @classmethod
    def parse(cls, text):
        parts = text.split("|")
        if len(parts) != 2:
            raise WordError(f"point must be 'preperiod | period', got {text!r}")
        return cls(parse_word(parts[0]), parse_word(parts[1]))
