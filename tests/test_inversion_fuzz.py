"""A seeded mutation fuzz of inversion (helpers.mutation_fuzz_case).
Each case changes one token of a fixture document, or one transition of
the parsed machine (most token changes stop at parse or validate), and
inverts, classifies and searches the order of what is left.  Every
inverse a case obtains, from invert or from invert_core directly or
inside classify_subgroup and order_in_On, passes the oracles in both
orders (helpers.check_inverse), and every other outcome is a typed
cantrans error.  Each case runs in its own child process under a memory
cap and a wall budget, two at a time, so that a case that runs away
fails alone and is named."""

import json
import os
import subprocess
import sys

CASES = 32
SEED = 29_000
BUDGET_S = 30
MEMORY = 1 << 30

CHILD = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({memory}, {memory}))
from helpers import mutation_fuzz_case
print(json.dumps(mutation_fuzz_case(int(sys.argv[1]))))
""".format(memory=MEMORY)


def _start(seed):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.Popen([sys.executable, "-c", CHILD, str(seed)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(seed, child):
    try:
        out, err = child.communicate(timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise AssertionError(f"case {seed} ran past {BUDGET_S} s")
    assert child.returncode == 0, f"case {seed}:\n{err}"
    return json.loads(out)


def test_every_inverse_the_fuzz_obtains_passes_the_oracles():
    seeds = [SEED + k for k in range(CASES)]
    outcomes = []
    for pair in zip(seeds[::2], seeds[1::2]):
        children = [(seed, _start(seed)) for seed in pair]
        try:
            outcomes += [_finish(seed, child) for seed, child in children]
        finally:
            for _, child in children:
                if child.poll() is None:
                    child.kill()
                    child.communicate()
    seen = {(step, got) for case in outcomes for step, got in case}
    # token changes refused by parse, machines changed after it, typed
    # refusals, and inverses checked, initial and core alike
    assert {("parse", "ParseError"), ("mutate", "ok"),
            ("invert", "inverse"), ("invert_core", "inverse"),
            ("invert", "InvalidTransducer"), ("invert_core", "NotInjective"),
            ("classify", "NotSynchronizing"), ("order", "ok")} <= seen
