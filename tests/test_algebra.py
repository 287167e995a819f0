import random
from itertools import permutations

import pytest

from cantrans import (
    Alphabet,
    EventuallyPeriodicPoint,
    NotInvertible,
    PrefixCodeMap,
    canonical_form,
    compose,
    core_of,
    embed_core,
    eval_point,
    from_prefix_code_map,
    identity_transducer,
    invert,
    is_identity_core,
    is_in_Gnr,
    minimize,
    parse_word,
    serialize,
    twist_transducer,
)
from cantrans.fixtures import sample_3_2, torsion_core_2
from cantrans.randgen import random_gnr_element, random_prefix_code_map

from helpers import unreduced_compose

w = parse_word
A21 = Alphabet(2, 1)
A32 = Alphabet(3, 2)


def point(text):
    return EventuallyPeriodicPoint.parse(text)


def test_identity_shape_and_action():
    ident = identity_transducer(A21)
    assert len(ident.states) == 2
    for text in [".0 | 1", ".0 0 1 | 1 0"]:
        assert eval_point(ident, point(text)) == point(text)
    assert is_identity_core(core_of(ident))


def test_compose_with_identity():
    t = sample_3_2()
    ident = identity_transducer(A32)
    assert canonical_form(compose(ident, t)) == canonical_form(minimize(t))
    assert canonical_form(compose(t, ident)) == canonical_form(minimize(t))


def test_twist_involution_and_action():
    tw = twist_transducer((1, 0), A21)
    assert canonical_form(compose(tw, tw)) == canonical_form(
        identity_transducer(A21))
    cyc = twist_transducer((1, 2, 0), Alphabet(3, 1))
    assert eval_point(cyc, point(".0 | 0")) == point(".0 | 1")
    assert canonical_form(twist_transducer((0, 1, 2), Alphabet(3, 1))) == \
        canonical_form(identity_transducer(Alphabet(3, 1)))


def test_twist_homomorphism_s3():
    a31 = Alphabet(3, 1)
    for s in permutations(range(3)):
        for t in permutations(range(3)):
            st = tuple(t[s[i]] for i in range(3))
            lhs = compose(twist_transducer(s, a31), twist_transducer(t, a31))
            assert canonical_form(lhs) == canonical_form(
                twist_transducer(st, a31))


def test_compose_matches_prefix_map_oracle():
    for seed in range(30):
        g = random_prefix_code_map(A32, seed)
        h = random_prefix_code_map(A32, 10_000 + seed)
        lhs = compose(from_prefix_code_map(g, A32),
                      from_prefix_code_map(h, A32))
        rhs = from_prefix_code_map(g.then(h), A32)
        assert canonical_form(lhs) == canonical_form(rhs)


def test_compose_associative():
    rng = random.Random(13)
    a31 = Alphabet(3, 1)
    for seed in range(8):
        a = random_gnr_element(A32, seed, max_splits=3)
        b = compose(sample_3_2(), random_gnr_element(A32, 50 + seed,
                                                     max_splits=2))
        c = random_gnr_element(A32, 99 + seed, max_splits=3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert canonical_form(left) == canonical_form(right)


def test_invert_twist():
    sigma = (2, 0, 1)
    inv_sigma = (1, 2, 0)
    a31 = Alphabet(3, 1)
    assert canonical_form(invert(twist_transducer(sigma, a31))) == \
        canonical_form(twist_transducer(inv_sigma, a31))


def test_invert_sample_roundtrip():
    t = sample_3_2()
    inv = invert(t)
    ident = canonical_form(identity_transducer(A32))
    assert canonical_form(compose(t, inv)) == ident
    assert canonical_form(compose(inv, t)) == ident


def test_invert_prefix_map_is_swap():
    for seed in range(20):
        m = random_prefix_code_map(A32, 777 + seed)
        lhs = invert(from_prefix_code_map(m, A32))
        rhs = from_prefix_code_map(m.inverse(), A32)
        assert canonical_form(lhs) == canonical_form(rhs)


def test_prefix_map_machines_do_not_depend_on_the_pair_order():
    """The prefix tree lists its prefixes by (length, shortlex), so the
    order of the cone pairs changes neither the states' order, nor the
    document, nor the canonical form."""
    rng = random.Random(2611)
    for alphabet in (A21, A32, Alphabet(4, 1)):
        for seed in range(40):
            pm = random_prefix_code_map(alphabet, 2611 + seed, max_splits=6)
            t = from_prefix_code_map(pm, alphabet)
            want = t.states, serialize(t), canonical_form(t)
            for _ in range(3):
                pairs = pm.pairs()
                rng.shuffle(pairs)
                u = from_prefix_code_map(PrefixCodeMap(*zip(*pairs)),
                                         alphabet)
                assert (u.states, serialize(u), canonical_form(u)) == want


def test_invert_rejects_non_homeomorphism():
    # delayed copy: injective but the image misses half the space
    from cantrans import INITIAL, Transducer
    trans = {
        ("q0", -1): ((-1,), "s"),
        ("s", 0): ((0,), "s"), ("s", 1): ((0,), "t"),
        ("t", 0): ((1,), "s"), ("t", 1): ((1,), "t"),
    }
    t = Transducer(2, 1, INITIAL, ["q0", "s", "t"], "q0", trans)
    with pytest.raises(NotInvertible):
        invert(t)


def test_prefix_map_transducer_action():
    m = PrefixCodeMap((w(".0 0"), w(".0 1")), (w(".0 1"), w(".0 0")))
    t = from_prefix_code_map(m, A21)
    assert eval_point(t, point(".0 0 | 1")) == point(".0 1 | 1")
    assert eval_point(t, point(".0 1 0 | 1")) == point(".0 0 0 | 1")
    ident_map = PrefixCodeMap((w(".0 0"), w(".0 1")), (w(".0 0"), w(".0 1")))
    assert canonical_form(from_prefix_code_map(ident_map, A21)) == \
        canonical_form(identity_transducer(A21))


def test_prefix_map_transducers_in_gnr():
    for seed in range(15):
        t = random_gnr_element(A32, 31_000 + seed)
        assert is_in_Gnr(t)


def test_prefix_map_apply_and_then():
    g = PrefixCodeMap((w(".0"), w(".1")), (w(".1"), w(".0")))
    h = PrefixCodeMap((w(".0"), w(".1 0"), w(".1 1")),
                      (w(".1 1"), w(".0"), w(".1 0")))
    gh = g.then(h)
    rng = random.Random(2)
    for _ in range(50):
        x = (-1 - rng.randrange(2),) + tuple(
            rng.randrange(2) for _ in range(6))
        assert gh.apply(x) == h.apply(g.apply(x))


def test_core_product_of_torsion_square_is_identity():
    f5 = torsion_core_2()
    sq = compose(f5, f5)
    assert is_identity_core(core_of(sq))


def test_embed_core_keeps_class():
    f5 = torsion_core_2()
    emb = embed_core(f5, start="a")
    assert emb.r == 1
    assert canonical_form(core_of(emb)) == canonical_form(minimize(f5))


def test_core_containment_in_pair_product():
    # states of the product's core are pairs of core states of the factors
    for seed in range(6):
        a = compose(sample_3_2(), random_gnr_element(A32, seed))
        b = compose(random_gnr_element(A32, 60 + seed), sample_3_2())
        raw = unreduced_compose(minimize(a), minimize(b))
        core_raw = core_of(raw)
        ca = set(core_of(minimize(a)).states)
        cb = set(core_of(minimize(b)).states)
        for pa, pb in core_raw.states:
            assert pa in ca and pb in cb


def test_invert_asynchronous_embeddings():
    # the unbalanced cores embed at a permutation state into honest
    # homeomorphisms; inversion must survive their asynchronous outputs
    from cantrans.fixtures import unbalanced_core_3
    from cantrans import Alphabet, identity_transducer, sync_level
    for core, n in [(unbalanced_core_3(), 3), (torsion_core_2(), 2)]:
        e = embed_core(core, start="a")
        inv = invert(e)
        ident = canonical_form(identity_transducer(Alphabet(n, 1)))
        assert canonical_form(compose(e, inv)) == ident
        assert canonical_form(compose(inv, e)) == ident
        assert sync_level(inv) is not None
        g = random_gnr_element(Alphabet(n, 1), 42, max_splits=3)
        both = compose(g, e)
        inv2 = invert(both)
        assert canonical_form(compose(both, inv2)) == ident
