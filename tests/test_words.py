import random
import time

import pytest

from cantrans import (
    Alphabet,
    EventuallyPeriodicPoint,
    Relation,
    WordError,
    format_word,
    parse_word,
    validate_prefix_code,
    word_relate,
    word_subtract,
)
from cantrans.randgen import random_prefix_code
from cantrans.words import check_word_shape, format_letter, is_digit_word, \
    is_rooted

from helpers import letter_loop_check_word_shape, \
    letter_loop_is_digit_word, loop_trimmed_point, \
    pairwise_validate_prefix_code, word_by_word_validate_prefix_code


def w(text):
    return parse_word(text)


def test_alphabet_bounds():
    Alphabet(3, 2)
    with pytest.raises(WordError):
        Alphabet(2, 2)
    with pytest.raises(WordError):
        Alphabet(3, 0)


def test_word_parse_roundtrip():
    for text in ["-", "0", ".1 0 2", ".0"]:
        assert format_word(parse_word(text)) == text


def test_root_only_leads():
    with pytest.raises(WordError):
        parse_word("0 .1")


def test_relate_examples():
    assert word_relate(w(".0 1"), w(".0 1 0")) is Relation.IS_PREFIX
    assert word_relate(w(".0 1"), w(".1 0")) is Relation.INCOMPARABLE
    assert word_relate(w("-"), w(".1 0")) is Relation.IS_PREFIX
    assert word_relate(w(".1 0"), w(".1 0")) is Relation.EQUAL
    assert word_relate(w(".0 1 0"), w(".0 1")) is Relation.HAS_PREFIX


def test_relate_antisymmetric_and_concat():
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randrange(3) for _ in range(rng.randrange(5)))
        b = tuple(rng.randrange(3) for _ in range(rng.randrange(5)))
        ra = word_relate(a, b)
        rb = word_relate(b, a)
        flip = {Relation.IS_PREFIX: Relation.HAS_PREFIX,
                Relation.HAS_PREFIX: Relation.IS_PREFIX}
        assert rb == flip.get(ra, ra)
        assert word_relate(a, a + b) in (Relation.IS_PREFIX, Relation.EQUAL)


def test_subtract_examples():
    assert word_subtract(w(".0 1 2"), w(".0 1")) == w("2")
    assert word_subtract(w(".0 1"), w(".0 1")) == ()
    assert word_subtract(w(".1 0 0"), w(".1")) == w("0 0")
    with pytest.raises(WordError):
        word_subtract(w(".0"), w(".1"))


def test_subtract_concat_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        nu = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        tau = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        assert word_subtract(nu + tau, nu) == tau


def test_prefix_code_examples():
    a = Alphabet(3, 2)
    ok, _ = validate_prefix_code(
        [w(".0"), w(".1 0"), w(".1 1"), w(".1 2")], a)
    assert ok  # 1 + 1/3 + 1/3 + 1/3 == 2
    ok, why = validate_prefix_code([w(".0 0"), w(".0 1")], a)
    assert not ok and "Kraft" in why
    ok, why = validate_prefix_code([w(".0"), w(".0 1"), w(".1")], a)
    assert not ok and "comparable" in why


def test_random_complete_codes():
    for n, r in [(2, 1), (3, 2), (4, 3)]:
        a = Alphabet(n, r)
        rng = random.Random(n * 10 + r)
        for _ in range(20):
            code = random_prefix_code(a, rng.randrange(5), rng)
            ok, why = validate_prefix_code(code, a)
            assert ok, why
            if len(code) > 1:
                for i in range(len(code)):
                    ok, _ = validate_prefix_code(code[:i] + code[i + 1:], a)
                    assert not ok


def _mutations(code, alphabet, rng):
    """The code itself and codes one edit away from it: a word dropped,
    duplicated or extended by a digit, and a root out of range added;
    each in the code's order and shuffled."""
    i = rng.randrange(len(code))
    out_of_range = (-(alphabet.r + 1),) + code[i][1:]
    extended = code[i] + (rng.randrange(alphabet.n),)
    for edited in (code, code[:i] + code[i + 1:], code + [code[i]],
                   code[:i] + [extended] + code[i + 1:],
                   code + [extended], code + [out_of_range]):
        yield edited
        yield rng.sample(edited, len(edited))


def test_prefix_code_verdicts_match_the_pairwise_oracle():
    verdicts = set()
    for n, r in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        a = Alphabet(n, r)
        rng = random.Random(f"prefix-codes:{n}:{r}")
        for _ in range(60):
            code = random_prefix_code(a, rng.randrange(8), rng)
            for edited in _mutations(code, a, rng):
                got = validate_prefix_code(edited, a)
                assert got == pairwise_validate_prefix_code(edited, a)
                verdicts.add(got[1].split()[0] if got[1] else None)
    assert verdicts == {None, "Kraft", "comparable", "root", "empty"}


def _bad_words(code, alphabet, rng):
    """Codes with one bad word put in or swapped in at a seeded place: a
    digit or a root letter out of range, a root letter inside a word, a
    word with no root letter, the empty word."""
    n, r = alphabet.n, alphabet.r
    w = list(rng.choice(code))
    k = rng.randrange(1, len(w)) if len(w) > 1 else None
    bad = [(-(r + 1 + rng.randrange(2)),) + tuple(w[1:]),
           tuple(w) + (n + rng.randrange(2),),
           tuple(w) + (-(rng.randrange(r) + 1),),
           tuple(w[1:]) or (rng.randrange(n),),
           ()]
    if k is not None:
        bad.append(tuple(w[:k]) + (n,) + tuple(w[k + 1:]))
        bad.append(tuple(w[:k]) + (-1,) + tuple(w[k + 1:]))
    for word in bad:
        i = rng.randrange(len(code) + 1)
        yield code[:i] + [word] + code[i:]
        yield code[:i] + [word] + code[i + 1:]


def test_bad_words_are_named_as_word_by_word():
    kinds = {"out of range for n=": 0, "out of range": 0, "at position": 0,
             "'-' is not rooted": 0, "is not rooted": 0}
    for n, r in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        a = Alphabet(n, r)
        rng = random.Random(f"bad-words:{n}:{r}")
        for _ in range(60):
            code = random_prefix_code(a, rng.randrange(8), rng)
            for edited in list(_bad_words(code, a, rng)) + \
                    list(_mutations(code, a, rng)):
                for order in (edited, rng.sample(edited, len(edited))):
                    got = validate_prefix_code(order, a)
                    assert got == word_by_word_validate_prefix_code(order, a)
                    kind = next((k for k in kinds if k in (got[1] or "")),
                                None)
                    if kind is not None:
                        kinds[kind] += 1
    # each check of the word-by-word loop words many codes' failures:
    # digits and root letters out of range, a root letter inside a word,
    # the empty word and other unrooted words
    assert min(kinds.values()) >= 100, kinds


def _shape_outcome(check, word):
    try:
        return check(word)
    except WordError as e:
        return str(e)


def test_word_shape_tests_match_letter_loops():
    """check_word_shape, is_rooted and is_digit_word decide on one min
    (or one letter) at C speed; each agrees with the letter loop, and a
    bad shape is refused with the loop's text, naming the first root
    letter after position 0.  format_word, which joins a digit word at C
    speed, writes what formatting letter by letter writes."""
    rng = random.Random(2718)
    words = [(), (0,), (-1,), (-2, 0), (0, -1), (-1, -2), (1, 0, -3, -1)]
    for _ in range(3000):
        size = rng.randrange(8)
        roots = rng.choice([0, 0, 0.05, 0.3])
        words.append(tuple(-1 - rng.randrange(3) if rng.random() < roots
                           else rng.randrange(4) for _ in range(size)))
    refused = 0
    for word in words:
        got = _shape_outcome(check_word_shape, word)
        assert got == _shape_outcome(letter_loop_check_word_shape, word)
        refused += isinstance(got, str)
        assert is_rooted(word) is (len(word) > 0 and word[0] < 0)
        assert is_digit_word(word) is letter_loop_is_digit_word(word)
        assert format_word(word) == \
            (" ".join(format_letter(x) for x in word) or "-")
    assert 300 <= refused <= len(words) - 300


def test_point_normal_form():
    p = EventuallyPeriodicPoint(w("0 0"), w("1 0"))
    q = EventuallyPeriodicPoint(w("0"), w("0 1"))
    assert p == q
    assert p.expand(9) == w("0 0 1 0 1 0 1 0 1")
    assert EventuallyPeriodicPoint(w("-"), w("1 1")).period == w("1")


def test_point_rooted_preperiod_kept():
    p = EventuallyPeriodicPoint(w(".0"), w("0"))
    assert p.preperiod == w(".0")
    assert str(p) == ".0 | 0"
    assert EventuallyPeriodicPoint.parse(".0 | 0") == p


def test_point_rejects_bad_period():
    with pytest.raises(WordError):
        EventuallyPeriodicPoint(w(".0"), w("-"))
    with pytest.raises(WordError):
        EventuallyPeriodicPoint(w("-"), w(".0"))


def test_point_normal_form_matches_the_trim_loop():
    """The one-pass trim against the loop that trimmed one letter at a
    time: rooted and digit points whose periods have 1 to 6 letters and
    whose preperiods end in repeats of the period (often cut short, or
    rotated), so that most trims are long and some stop at a root
    letter."""
    rng = random.Random(7321)
    trimmed = rooted_stops = 0
    for _ in range(2000):
        n = rng.choice([2, 3, 4])
        period = tuple(rng.randrange(n) for _ in range(rng.randint(1, 6)))
        turn = rng.randrange(len(period))
        tail = (period[turn:] + period[:turn]) * rng.randrange(4) + \
            period[:rng.randrange(len(period) + 1)]
        if rng.random() < 0.5:
            tail = period * rng.randrange(3) + tail
        head = tuple(rng.randrange(n) for _ in range(rng.randrange(4)))
        if rng.random() < 0.5:
            head = (-1 - rng.randrange(3),) + head
        x = EventuallyPeriodicPoint(head + tail, period)
        want = loop_trimmed_point(head + tail, period)
        assert (x.preperiod, x.period) == want
        trimmed += len(want[0]) < len(head + tail)
        # trimmed down to the root letter, where the trim stops
        rooted_stops += len(want[0]) == 1 < len(head + tail) and \
            want[0][0] < 0
    assert trimmed > 1000 and rooted_stops > 50


def test_long_trims_take_linear_time():
    start = time.perf_counter()
    x = EventuallyPeriodicPoint((0,) * 50_000, (0,))
    assert time.perf_counter() - start < 0.5
    assert str(x) == "- | 0"
    x = EventuallyPeriodicPoint((-1,) + (0, 1) * 25_000 + (0,), (1, 0))
    assert (x.preperiod, x.period) == ((-1,), (0, 1))
