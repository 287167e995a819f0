"""The inverse explored on sets of runs (algebra._RunSets) against the
pending-word exploration it replaced (helpers.pending_word_invert and
helpers.pending_word_invert_core): the same verdict everywhere, and byte
for byte the same inverse, initial-mode machines numbered from their
entry and inverse cores from the state digit 0 fixes.  Where two runs of
one set meet at one output position, the map is refused as not
injective, and the two input words of the refusal are walked again.
The two non-invertible documents under tests/data, whose pending-word
exploration ran for minutes and gigabytes, are answered in a child
process under a memory cap and a wall budget."""

import json
import os
import random
import subprocess
import sys

import pytest

from cantrans import (
    Alphabet,
    INITIAL,
    NotInjective,
    NotInvertible,
    TransducerError,
    compose,
    core_of,
    from_prefix_code_map,
    invert,
    invert_core,
    minimize,
    parse,
    random_prefix_code_map,
    random_transducer,
    run_word,
    serialize,
    sync_level,
)
from cantrans.randgen import random_gnr_element

from helpers import check_not_injective, pending_word_invert, \
    pending_word_invert_core

DATA = os.path.join(os.path.dirname(__file__), "data")
ALPHABETS = (Alphabet(2, 1), Alphabet(3, 1), Alphabet(3, 2))


def _outcome(fn, t):
    """fn(t) as document bytes, or the error it raises."""
    try:
        return serialize(fn(t))
    except TransducerError as e:
        return e


def _same_verdict(fn, oracle, t):
    """Both give the same document, or both refuse with NotInvertible;
    a NotInjective refusal's words are walked again.  Returns fn's
    outcome."""
    got, want = _outcome(fn, t), _outcome(oracle, t)
    if isinstance(want, Exception):
        assert isinstance(got, NotInvertible), got
        assert isinstance(want, NotInvertible), want
        if isinstance(got, NotInjective):
            check_not_injective(t, got)
    else:
        assert got == want
    return got


def test_products_of_prefix_maps_invert_as_before():
    answered = 0
    for seed in range(200):
        alphabet = ALPHABETS[seed % 3]
        t = compose(random_gnr_element(alphabet, 7_000 + seed),
                    from_prefix_code_map(
                        random_prefix_code_map(alphabet, 8_000 + seed),
                        alphabet))
        answered += isinstance(_same_verdict(invert, pending_word_invert, t),
                               str)
    assert answered == 200


def _random_machines():
    """Seeded random machines on each alphabet, with outputs of up to two
    letters (empty ones included)."""
    for seed in range(300):
        alphabet = ALPHABETS[seed % 3]
        yield random_transducer(alphabet, 2 + seed % 3, 2, 9_000 + seed)


def test_random_machines_and_their_cores_invert_as_before():
    kinds = {"initial": set(), "core": set()}
    for t in _random_machines():
        got = _same_verdict(invert, pending_word_invert, t)
        kinds["initial"].add(type(got))
        m = minimize(t)
        if sync_level(m) is not None:
            got = _same_verdict(invert_core, pending_word_invert_core,
                                core_of(m))
            kinds["core"].add(type(got))
    # answers, refusals off the image or over the bound, and the
    # refusals of non-injective maps are all met
    assert kinds["initial"] == {str, NotInvertible, NotInjective}
    assert kinds["core"] == {str, NotInvertible, NotInjective}


def _document(name):
    with open(os.path.join(DATA, f"not_invertible_{name}.ct")) as f:
        return f.read()


def test_a_clash_is_refused_with_words_that_walk_again():
    rng = random.Random(1616)
    seen = 0
    for name in "ac":
        t = parse(_document(name))
        with pytest.raises(NotInjective) as error:
            invert(t) if t.mode == INITIAL else invert_core(t)
        check_not_injective(t, error.value)
        seen += 1
    for t in _random_machines():
        try:
            invert(t)
        except NotInjective as e:
            check_not_injective(t, e)
            # the two words, continued alike, still write alike
            tail = tuple(rng.randrange(t.n) for _ in range(5))
            m = minimize(t)
            assert len({run_word(m, e.state, w + tail) for w in e.words}) \
                == 1
            seen += 1
        except NotInvertible:
            pass
    assert seen > 20


# Runs in a child process capped at 1 GiB of address space: the
# pending-word exploration took 96 s and 4.8 GiB to refuse (a), and had
# not answered (c) after 240 s and 7.5 GiB.
CHILD = """\
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cantrans import INITIAL, TransducerError, classify_subgroup, cli, \\
    invert, invert_core, is_bisynchronizing, parse

path = sys.argv[1]
with open(path) as f:
    t = parse(f.read())


def refusal(fn):
    try:
        fn(t)
    except TransducerError as e:
        return type(e).__name__
    return None


out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["member", path])
print(json.dumps({
    "invert": refusal(invert if t.mode == INITIAL else invert_core),
    "bisync": is_bisynchronizing(t),
    "classify": refusal(classify_subgroup),
    "member": [code, out.getvalue()],
}))
"""


@pytest.mark.parametrize("name", ["a", "c"])
def test_documents_that_ran_for_minutes_are_answered_at_once(name):
    path = os.path.join(DATA, f"not_invertible_{name}.ct")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", CHILD, path], env=env,
                         capture_output=True, text=True, timeout=10)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got == {"invert": "NotInjective", "bisync": [False, None],
                   "classify": "NotSynchronizing", "member": [1, "no\n"]}
