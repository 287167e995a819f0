"""Seeded property suites over random machines.

Runnable on their own:  pytest tests/test_properties.py
"""

import random
from itertools import product

from cantrans import (
    Alphabet,
    compose,
    core_of,
    minimize,
    run_word,
    sync_level,
    theta,
)
from cantrans.randgen import random_transducer

from helpers import brute_force_level, random_bisync, random_layered, \
    random_synchronizing, unreduced_compose

A21 = Alphabet(2, 1)
A32 = Alphabet(3, 2)


def random_rooted(rng, alphabet, max_len=4):
    return (-1 - rng.randrange(alphabet.r),) + tuple(
        rng.randrange(alphabet.n) for _ in range(rng.randrange(max_len)))


def test_theta_monotonic():
    rng = random.Random(101)
    for seed in range(20):
        t = random_transducer(A32, 3, 2, 40_000 + seed)
        for _ in range(25):
            nu = random_rooted(rng, A32)
            ext = nu + tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
            a, b = theta(t, nu), theta(t, ext)
            assert b[:len(a)] == a


def test_theta_composition_inequality():
    # applying the maps left to right: theta_b(theta_a(nu)) is a prefix
    # of theta_{ab}(nu)
    rng = random.Random(202)
    for seed in range(12):
        a = random_bisync(A32, 70_000 + seed)
        b = random_bisync(A32, 80_000 + seed)
        ab = compose(a, b)
        for _ in range(15):
            nu = random_rooted(rng, A32)
            inner = theta(b, theta(a, nu))
            outer = theta(ab, nu)
            assert outer[:len(inner)] == inner


def test_sync_level_matches_enumeration():
    # free-form draws exercise the "not synchronizing" agreement, the
    # layered ones the levels 1..4 (their pair graph is always acyclic)
    seen_levels = set()
    for states in (2, 3, 4, 5, 6):
        for seed in range(25):
            t = random_transducer(A21, states, 2,
                                  50_000 + 1_000 * states + seed)
            fast = sync_level(t)
            slow = brute_force_level(t, max_level=4)
            if fast is not None and fast <= 4:
                assert fast == slow
            else:
                assert slow is None
        for seed in range(25):
            t = random_layered(A21, states - 1, 2,
                               60_000 + 1_000 * states + seed)
            fast = sync_level(t)
            assert fast is not None
            if fast <= 4:
                assert fast == brute_force_level(t, max_level=4)
                seen_levels.add(fast)
    assert {1, 2, 3, 4} <= seen_levels


def test_core_closure():
    for seed in range(12):
        t = random_synchronizing(A21, 3, 2, 90_000 + seed)
        core = core_of(minimize(t))
        states = set(core.states)
        for q in states:
            for x in range(core.n):
                assert core.step(q, x)[1] in states


def test_unique_fixed_state_per_word():
    for seed in range(12):
        t = random_synchronizing(A21, 3, 2, 91_000 + seed)
        core = core_of(minimize(t))
        for m in range(1, 5):
            for word in product(range(core.n), repeat=m):
                fixed = [q for q in core.states
                         if run_word(core, q, word)[1] == q]
                assert len(fixed) == 1


def test_monoid_closure():
    # the raw pair product represents the composed map directly; the
    # reduced form is also synchronizing whenever it exists (composing
    # non-injective maps can squeeze a cone onto one point, in which
    # case there is no reduced machine to ask about)
    from cantrans import UnboundedOutput
    for seed in range(10):
        a = random_synchronizing(A21, 3, 2, 92_000 + seed)
        b = random_synchronizing(A21, 3, 2, 93_000 + seed)
        raw = unreduced_compose(a, b)
        assert sync_level(raw) is not None
        try:
            assert sync_level(minimize(raw)) is not None
        except UnboundedOutput:
            pass


def test_theta_factors_through_local_action():
    # theta(nu + eta) = theta(nu) + theta of eta under the tail map at nu
    from cantrans import guaranteed_output, local_action, run_word
    rng = random.Random(303)
    for seed in range(10):
        t = random_transducer(A32, 3, 2, 95_000 + seed)
        for _ in range(10):
            nu = random_rooted(rng, A32)
            if theta(t, nu) == ():
                continue
            la = local_action(t, nu)
            v = guaranteed_output(la)
            eta = tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
            out, q = run_word(la, la.initial, eta)
            assert theta(t, nu + eta) == theta(t, nu) + out + v[q]


def test_theta_inverse_roundtrip_on_cone_words():
    # where the map carries a whole cone onto a cone, the image root maps
    # straight back through the inverse's root function
    from cantrans import from_prefix_code_map, invert
    from cantrans.randgen import random_prefix_code_map
    rng = random.Random(404)
    for seed in range(8):
        pm = random_prefix_code_map(A32, 96_000 + seed)
        t = from_prefix_code_map(pm, A32)
        inv = invert(t)
        for d in pm.domain:
            nu = d + tuple(rng.randrange(3) for _ in range(2))
            assert theta(inv, theta(t, nu)) == nu


def test_theta_of_twist_acts_letterwise():
    from cantrans import twist_transducer
    sigma = (2, 0, 1)
    tw = twist_transducer(sigma, A32)
    rng = random.Random(505)
    for _ in range(30):
        nu = random_rooted(rng, A32)
        want = nu[:1] + tuple(sigma[d] for d in nu[1:])
        assert theta(tw, nu) == want
