"""compose against the name-keyed pair walk it replaced, kept in
helpers.py as the oracle unreduced_compose: the pairs reachable from the
entry pair (all pairs in core mode), stepped through Transducer.step and
run_word, named by the pairs and reduced by _reduce.  compose must give
the same machine byte for byte and keep a preferred start when both
factors have one.  Also: valid factors always make a valid pair machine,
in both modes, which is why compose and core_product never validate the
pair machine; a factor that fails validate (one whose entry is not among
its states, say) is refused at the gate with the violations
helpers.letter_loop_validate words."""

import random

from cantrans import (
    Alphabet,
    CORE,
    INITIAL,
    InvalidTransducer,
    Transducer,
    TransducerError,
    compose,
    identity_core,
    identity_transducer,
    invert,
    serialize,
)
from cantrans.fixtures import sample_3_2
from cantrans.minimize import _reduce
from cantrans.randgen import random_gnr_element, random_transducer

from helpers import balanced_powers, fixture_cores, letter_loop_validate, \
    unreduced_compose

ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2), Alphabet(4, 3))


def _outcome(f, a, b):
    """f(a, b) as its states, entry, table (in order) and document, or
    the type and message of the cantrans error it raises."""
    try:
        m = f(a, b)
    except TransducerError as e:
        return type(e), str(e)
    return m.states, m.initial, list(m.trans.items()), serialize(m)


def _oracle(a, b):
    return _reduce(unreduced_compose(a, b))


def _digit_core(t):
    """The digit-reading states of a valid initial-mode machine as a
    core: closed, writing digits only, with no empty-output cycle."""
    names = [q for q in t.states if q != t.initial]
    trans = {k: v for k, v in t.trans.items() if k[0] != t.initial}
    return Transducer(t.n, None, CORE, names, None, trans)


def _with_start(core, start):
    return Transducer(core.n, None, CORE, core.states, start, core.trans)


def test_compose_matches_the_name_keyed_oracle():
    pairs = []
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(60):
            seed = 31_000 + 1_000 * k + 2 * i
            pairs.append((random_transducer(alphabet, 1 + i % 5, 2, seed),
                          random_transducer(alphabet, 1 + i % 4, 2,
                                            seed + 1)))
        for i in range(10):
            seed = 36_000 + 1_000 * k + 2 * i
            pairs.append((random_gnr_element(alphabet, seed),
                          random_gnr_element(alphabet, seed + 1)))
    phi = sample_3_2()
    phi_inv = invert(phi)
    for i in range(10):
        g = random_gnr_element(Alphabet(3, 2), 38_000 + i)
        pairs += [(phi_inv, g), (compose(phi_inv, g), phi)]
    cores = fixture_cores() + balanced_powers(2)[1:]
    pairs += [(x, y) for x in cores for y in cores if x.n == y.n]
    started = [_with_start(c, c.states[-1]) for c in fixture_cores()]
    pairs += [(x, y) for x in started for y in started if x.n == y.n]
    modes = set()
    for a, b in pairs:
        got = _outcome(compose, a, b)
        assert got == _outcome(_oracle, a, b)
        modes.add(a.mode)
    assert len(pairs) >= 300 and modes == {INITIAL, CORE}
    for x in started:
        assert compose(x, x).initial is not None
        assert compose(x, fixture_cores()[2 if x.n == 3 else 0]).initial \
            is None


def test_degenerate_compose_gets_the_oracles_refusal():
    """A factor with an empty-output cycle, no states, or an entry
    missing from its state list is refused, on either side, with the
    violations of the letter-loop oracle, before any pair is built."""
    silent = Transducer(2, 1, INITIAL, ["q0", "s"], "q0",
                        {("q0", -1): ((-1,), "s"), ("s", 0): ((), "s"),
                         ("s", 1): ((1,), "s")})
    ident = identity_transducer(Alphabet(2, 1))
    core = Transducer(2, None, CORE, ["s"], None,
                      {("s", 0): ((), "s"), ("s", 1): ((1,), "s")})
    empty = Transducer(2, None, CORE, [], None, {})
    lost = Transducer(2, 1, INITIAL, ["s"], "q0",
                      {("q0", -1): ((-1,), "s"), ("s", 0): ((0,), "s"),
                       ("s", 1): ((1,), "s")})
    kinds = set()
    for bad, good in ((silent, ident), (core, identity_core(2)),
                      (empty, identity_core(2)), (lost, ident)):
        want = (InvalidTransducer, "; ".join(letter_loop_validate(bad)))
        for x, y in ((bad, good), (good, bad)):
            assert _outcome(compose, x, y) == want
        kinds.add(want[1].split()[0])
    assert kinds == {"epsilon-output", "no", "initial"}


def test_valid_factors_make_a_valid_pair_machine():
    rng = random.Random(2_024)
    checked = {INITIAL: 0, CORE: 0}
    for k, alphabet in enumerate(ALPHABETS):
        for i in range(250):
            seed = 41_000 + 1_000 * k + 2 * i
            a = random_transducer(alphabet, rng.randint(1, 5), 2, seed)
            b = random_transducer(alphabet, rng.randint(1, 5), 2, seed + 1)
            if i % 2:
                a, b = _digit_core(a), _digit_core(b)
            assert letter_loop_validate(a) == letter_loop_validate(b) == []
            assert letter_loop_validate(unreduced_compose(a, b)) == []
            checked[a.mode] += 1
    assert sum(checked.values()) >= 1000 and min(checked.values()) >= 400
