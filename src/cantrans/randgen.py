"""Seeded random machines and prefix-code maps for the property suites.

Two generators: arbitrary valid machines (continuous self-maps of
C_{n,r}, not usually invertible), and prefix-exchange maps built from
random complete antichains (always invertible, identity core).
"""

import random

from .algebra import PrefixCodeMap, from_prefix_code_map
from .machine import INITIAL, Transducer, TransducerError, \
    UnboundedOutput, guaranteed_output, validate

class RejectionBudgetExceeded(RuntimeError):
    pass

def random_transducer(alphabet, states, max_out, seed, budget=2000,
                      synchronous=False):
    """A random valid machine: an entry state plus `states` digit-reading
    states, outputs of length <= max_out drawn uniformly.  Samples until
    validation passes (empty outputs can create degenerate cycles) and
    every guaranteed output is finite (machines squeezing a cone onto a
    point admit no reduction and represent no homeomorphism).  With
    synchronous=True every state instead writes a random digit
    permutation letterwise, which is always valid."""
    if states < 1:
        raise TransducerError("need at least one digit-reading state")
    if max_out < 0:
        raise TransducerError(f"max_out must be >= 0, got {max_out}")
    rng = random.Random(seed)
    names = [f"m{i}" for i in range(states)]
    for _ in range(budget):
        trans = {}
        for k in range(alphabet.r):
            tail = 0 if synchronous else rng.randrange(max_out + 1)
            out = (-(k + 1),) + tuple(
                rng.randrange(alphabet.n) for _ in range(tail))
            trans[("q0", -(k + 1))] = (out, rng.choice(names))
        for q in names:
            if synchronous:
                sigma = list(range(alphabet.n))
                rng.shuffle(sigma)
            for d in range(alphabet.n):
                if synchronous:
                    out = (sigma[d],)
                else:
                    out = tuple(rng.randrange(alphabet.n)
                                for _ in range(rng.randrange(max_out + 1)))
                trans[(q, d)] = (out, rng.choice(names))
        t = Transducer(alphabet.n, alphabet.r, INITIAL,
                       ["q0", *names], "q0", trans)
        if not validate(t):
            try:
                guaranteed_output(t)
            except UnboundedOutput:
                continue
            return t
    raise RejectionBudgetExceeded(
        f"no valid machine in {budget} draws; parameters too tight"
    )

def random_prefix_code(alphabet, splits, rng):
    """Complete antichain grown by `splits` rounds of replacing a random
    member with its n one-letter extensions."""
    code = [(-(k + 1),) for k in range(alphabet.r)]
    for _ in range(splits):
        w = code.pop(rng.randrange(len(code)))
        code.extend(w + (d,) for d in range(alphabet.n))
    return code

def random_prefix_code_map(alphabet, seed, max_splits=4):
    """Random prefix-exchange map: two independently grown antichains of
    equal length, paired by a random bijection."""
    rng = random.Random(seed)
    splits = rng.randrange(max_splits + 1)
    dom = random_prefix_code(alphabet, splits, rng)
    ran = random_prefix_code(alphabet, splits, rng)
    rng.shuffle(ran)
    return PrefixCodeMap(tuple(dom), tuple(ran))

def random_gnr_element(alphabet, seed, max_splits=4):
    """Transducer of a random prefix-exchange map."""
    return from_prefix_code_map(
        random_prefix_code_map(alphabet, seed, max_splits), alphabet
    )
