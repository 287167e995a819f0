"""The benchmark's three workloads.

Each workload function takes the imported `cantrans` package, a seed, the
smoke flag and a scratch directory; it generates its inputs from the seed
and returns a Workload whose tasks run in order, closed loop, as one
pass.

A task's `run` calls the library through the package namespace at call
time, so the traced run's wrappers apply, and returns what it computed.
Expected typed refusals are caught inside `run` and become part of the
verdict; any other exception is an error.  A task's `check` returns None
when the verdict is right, else a description of the mismatch.  Checks
use the committed answers in expected.json and the oracles in
oracles.py, never the library's own algorithms.
"""

import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from oracles import (
    brute_force_level,
    cycle_witness_ok,
    pair_survives,
    prefix_map_image,
    twin_letters,
    twist_image,
)

EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

# outer_class_equal runs on ladder rungs up to this size: it minimizes,
# synchronizes and canonicalizes both arguments, which on the 859-state
# rung would double the length of a pass.
OUTER_EQ_MAX_STATES = 103

# Sync levels up to this are re-derived by enumerating every word.
BRUTE_FORCE_MAX_LEVEL = 8

# Robustness inputs: an empty-output path this long overflows the
# recursive walks of the library as seeded.
CHAIN_STATES = 3000


@dataclass
class Task:
    name: str
    states: int          # input size, in states
    run: Callable
    check: Callable
    largest: bool = False


@dataclass
class Workload:
    tasks: list
    warmup: list
    scratch: list = field(default_factory=list)

    def close(self):
        for path in self.scratch:
            shutil.rmtree(path, ignore_errors=True)
        self.scratch.clear()


# ---------------------------------------------------------------- inputs


def rename_states(text, rng):
    """The document with its states renamed by a seeded bijection."""
    lines = text.splitlines()
    names = []
    for line in lines[2:]:
        tok = line.split()
        for name in ((tok[1],) if tok[0] == "initial" else (tok[0], tok[3])):
            if name not in names:
                names.append(name)
    fresh = [f"v{k}" for k in rng.sample(range(10 * len(names)), len(names))]
    mapping = dict(zip(names, fresh))
    out = lines[:2]
    for line in lines[2:]:
        tok = line.split()
        if tok[0] == "initial":
            tok[1] = mapping[tok[1]]
        else:
            tok[0], tok[3] = mapping[tok[0]], mapping[tok[3]]
        out.append(" ".join(tok))
    return "\n".join(out) + "\n"


def relabel(t, rng):
    """A copy of machine t with states renamed by a seeded bijection."""
    fresh = [f"w{k}" for k in rng.sample(range(10 * len(t.states)),
                                         len(t.states))]
    m = dict(zip(t.states, fresh))
    trans = {(m[q], x): (w, m[tgt]) for (q, x), (w, tgt) in t.trans.items()}
    initial = m[t.initial] if t.initial is not None else None
    return type(t)(t.n, t.r, t.mode, [m[q] for q in t.states], initial,
                   trans)


def random_point(api, rng, n, r=None):
    """Seeded eventually periodic point; rooted when r is given."""
    pre = tuple(rng.randrange(n) for _ in range(rng.randint(0, 4)))
    if r is not None:
        pre = (-(rng.randrange(r) + 1),) + pre
    period = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
    return api.EventuallyPeriodicPoint(pre, period)


def _bits(i, width=12):
    return tuple((i >> (width - 1 - b)) & 1 for b in range(width))


def empty_output_chain(api, core):
    """CHAIN_STATES states c0, c1, ... linked by digit 0 with empty output.
    Digit 1 writes 1 and the binary index of the state, so no two chain
    states are equivalent.  Initial mode: an entry writes the root and
    the chain ends in an echo state.  Core mode: the chain closes into a
    ring whose last 0-edge writes 0, and c0 is the preferred start."""
    last = CHAIN_STATES - 1
    names = [f"c{i}" for i in range(CHAIN_STATES)]
    trans = {}
    for i, q in enumerate(names):
        if core:
            trans[(q, 0)] = ((), names[i + 1]) if i < last else ((0,), "c0")
            trans[(q, 1)] = ((1,) + _bits(i), names[(7 * i + 3) % len(names)])
        else:
            trans[(q, 0)] = ((), names[i + 1]) if i < last else ((0,), "e")
            trans[(q, 1)] = ((1,) + _bits(i), "e")
    if core:
        return api.Transducer(2, None, api.CORE, names, "c0", trans)
    trans[("q0", -1)] = ((-1,), "c0")
    trans[("e", 0)] = ((0,), "e")
    trans[("e", 1)] = ((1,), "e")
    return api.Transducer(2, 1, api.INITIAL, ["q0", *names, "e"], "q0",
                          trans)


def non_synchronizing_core(api, rng):
    """Core on which digit 0 permutes the states, so words 0^m never
    synchronize.  Each state writes 0 plus its own index on digit 0 (no
    two states are equivalent, so minimizing keeps the defect) and a word
    starting with 1 on digit 1 (every guaranteed output is empty)."""
    n = rng.choice((2, 3))
    k = rng.randint(2, 5)
    names = [f"p{i}" for i in range(k)]
    perm = rng.sample(names, k)
    trans = {}
    for i, q in enumerate(names):
        trans[(q, 0)] = ((0,) + _bits(i, 3), perm[i])
        trans[(q, 1)] = ((1,) + tuple(rng.randrange(n)
                                      for _ in range(rng.randint(0, 1))),
                         rng.choice(names))
        for d in range(2, n):
            trans[(q, d)] = (tuple(rng.randrange(n)
                                   for _ in range(rng.randint(1, 2))),
                             rng.choice(names))
    return api.Transducer(n, None, api.CORE, names, None, trans)


def non_invertible_machine(api, rng):
    """Initial-mode machine in which the entry's first target reads two
    digits through the same transition, so the map is not injective."""
    n, r = rng.choice(((2, 1), (3, 1), (3, 2)))
    names = [f"m{i}" for i in range(rng.randint(2, 4))]
    while True:
        trans = {}
        for j in range(r):
            trans[("q0", -(j + 1))] = ((-(j + 1),),
                                       names[0] if j == 0
                                       else rng.choice(names))
        for q in names:
            for d in range(n):
                out = tuple(rng.randrange(n)
                            for _ in range(rng.randint(1, 2)))
                trans[(q, d)] = (out, rng.choice(names))
        x, y = rng.sample(range(n), 2)
        trans[(names[0], y)] = trans[(names[0], x)]
        t = api.Transducer(n, r, api.INITIAL, ["q0", *names], "q0", trans)
        if api.validate(t):
            continue
        try:
            api.guaranteed_output(t)
        except api.UnboundedOutput:
            continue
        return t


# ------------------------------------------------------------ core-ladder


def _rung(api, base, held, k, rng_seed):
    p = base if k == 1 else api.core_product(held["power"], base)
    held["power"] = p
    res = dict(
        power=p,
        level=api.sync_level(p),
        core=api.core_of(p),
        form=api.canonical_form(p),
        balance=api.cycle_balance(p),
        back=api.parse(api.serialize(p)),
        same=None,
    )
    if len(p.states) <= OUTER_EQ_MAX_STATES:
        twin = relabel(p, random.Random(rng_seed))
        res["same"] = api.outer_class_equal(p, twin)
    return res


def _check_rung(want, k, res):
    p = res["power"]
    if len(p.states) != want["states"][k - 1]:
        return f"{len(p.states)} states, expected {want['states'][k - 1]}"
    if res["level"] != want["levels"][k - 1]:
        return f"level {res['level']}, expected {want['levels'][k - 1]}"
    if res["level"] <= BRUTE_FORCE_MAX_LEVEL and \
            brute_force_level(p, BRUTE_FORCE_MAX_LEVEL) != res["level"]:
        return f"level {res['level']} disagrees with word enumeration"
    if len(res["core"].states) != len(p.states):
        return f"core_of kept {len(res['core'].states)} of a core's states"
    if not isinstance(res["form"], bytes) or not res["form"]:
        return "canonical_form returned no bytes"
    ok, witness = res["balance"]
    if want["balanced"] and (not ok or witness is not None):
        return f"balanced core reported unbalanced: {witness}"
    if not want["balanced"] and (ok or not cycle_witness_ok(p, *witness)):
        return f"bad unbalanced-cycle witness {witness}"
    back = res["back"]
    if set(back.states) != set(p.states) or back.trans != p.trans:
        return "parse(serialize(.)) changed the machine"
    if res["same"] is False:
        return "outer_class_equal rejected a relabelled copy"
    return None


def core_ladder(api, seed, smoke, scratch):
    """Powers a^k = core_product(a^(k-1), a) of two fixture cores, each
    rung synchronized, cored, canonicalized, balance-checked and round
    tripped through the document format."""
    rng = random.Random(f"core-ladder:{seed}")
    tasks = []
    for name in ("BALANCED_CORE_2", "UNBALANCED_CORE_3"):
        want = EXPECTED["core_ladder"][name]
        rungs = 2 if smoke else len(want["states"])
        base = api.parse(rename_states(getattr(api.fixtures, name), rng))
        held = {}
        for k in range(1, rungs + 1):
            tasks.append(Task(
                f"{name}^{k}", want["states"][k - 1],
                partial(_rung, api, base, held, k, rng.random()),
                partial(_check_rung, want, k),
                largest=name == "BALANCED_CORE_2" and k == rungs))
    return Workload(tasks, warmup=tasks[:2])


# -------------------------------------------------------- bisync-classify


def _flags(flags):
    return dict(G=flags.in_Gnr, P=flags.in_Pn, L=flags.in_Ln,
                level=flags.level, core_states=flags.core_states)


def _classify(api, t):
    return api.classify_subgroup(t)


def _check_flags(want, flags):
    got = _flags(flags)
    if got != want:
        return f"flags {got}, expected {want}"
    if (flags.unbalanced is None) != flags.in_Ln:
        return f"balance flag {flags.in_Ln} with witness {flags.unbalanced}"
    return None


def _classify_eval(api, t, point):
    return api.classify_subgroup(t), api.eval_point(t, point)


def _check_twist(identity, image, res):
    flags, got = res
    want = dict(G=identity, P=True, L=True, core_states=1)
    have = {k: v for k, v in _flags(flags).items() if k != "level"}
    if have != want:
        return f"flags {have}, expected {want}"
    if got != image:
        return f"image {got}, expected {image}"
    return None


def _order(api, t, cap):
    return api.order_in_On(t, cap=cap)


def _check_order(want, res):
    if want == "not finite":
        return None if res[0] != "finite" else f"order {res}, expected none"
    return None if list(res) == want else f"order {res}, expected {want}"


def _refused(fn, error, *args):
    try:
        return fn(*args)
    except error:
        return "refused"


def _non_synchronizing(api, t):
    return dict(
        level=api.sync_level(t),
        pair=api.witness_pair(t),
        bisync=api.is_bisynchronizing(t),
        core=_refused(api.core_of, api.NotSynchronizing, t),
        classify=_refused(api.classify_subgroup, api.NotSynchronizing, t),
    )


def _check_non_synchronizing(t, res):
    if res["level"] is not None or \
            brute_force_level(t, BRUTE_FORCE_MAX_LEVEL) is not None:
        return f"level {res['level']} for a non-synchronizing machine"
    if res["pair"] is None or not pair_survives(t, *res["pair"]):
        return f"witness pair {res['pair']} is not kept apart forever"
    if res["bisync"] != (False, None):
        return f"is_bisynchronizing gave {res['bisync']}"
    if res["core"] != "refused" or res["classify"] != "refused":
        return "core_of or classify_subgroup did not refuse"
    return None


def _non_invertible(api, t):
    return dict(
        bisync=api.is_bisynchronizing(t),
        invert=_refused(api.invert, api.NotInvertible, t),
        classify=_refused(api.classify_subgroup, api.NotSynchronizing, t),
    )


def _check_non_invertible(t, res):
    if twin_letters(t) is None:
        return "input lost its non-injectivity witness"
    if res["invert"] != "refused":
        return "invert returned a machine for a non-injective map"
    if res["bisync"] != (False, None):
        return f"is_bisynchronizing gave {res['bisync']}"
    if res["classify"] != "refused":
        return "classify_subgroup did not refuse"
    return None


def _robust(api, t, points):
    violations = api.validate(t)
    m = api.minimize(t)
    return dict(violations=violations, states=len(m.states),
                before=[api.eval_point(t, x) for x in points],
                after=[api.eval_point(m, x) for x in points])


def _check_robust(t, res):
    if res["violations"]:
        return f"valid machine reported invalid: {res['violations'][:2]}"
    if res["states"] > len(t.states):
        return f"minimizing grew the machine to {res['states']} states"
    if res["before"] != res["after"]:
        return "minimized machine evaluates points differently"
    return None


def bisync_classify(api, seed, smoke, scratch):
    """The subgroup classifier on fixtures, on balanced-core powers and on
    seeded twist-after-prefix-exchange maps; order searches; negative
    verdicts on non-synchronizing and non-invertible machines; and the
    long empty-output chains."""
    want = EXPECTED["bisync_classify"]
    rng = random.Random(f"bisync-classify:{seed}")
    fx = api.fixtures
    tasks = []
    for name, flags in want["classify"].items():
        t = api.parse(rename_states(getattr(fx, name), rng))
        tasks.append(Task(f"classify {name}", len(t.states),
                          partial(_classify, api, t),
                          partial(_check_flags, flags)))
    a = api.parse(rename_states(fx.BALANCED_CORE_2, rng))
    power = a
    powers = want["balanced_powers"][:2 if smoke else None]
    for k, flags in enumerate(powers, start=1):
        if k > 1:
            power = api.core_product(power, a)
        tasks.append(Task(f"classify BALANCED_CORE_2^{k}", len(power.states),
                          partial(_classify, api, power),
                          partial(_check_flags, flags),
                          largest=k == len(powers)))
    for i in range(2 if smoke else 7):
        n, r = ((2, 1), (3, 2), (3, 1), (4, 2))[i % 4]
        alphabet = api.Alphabet(n, r)
        sigma = list(range(n))
        if i:
            rng.shuffle(sigma)
        pm = api.random_prefix_code_map(alphabet, rng.randrange(2 ** 32))
        t = api.compose(api.from_prefix_code_map(pm, alphabet),
                        api.twist_transducer(sigma, alphabet))
        x = random_point(api, rng, n, r)
        image = twist_image(sigma, prefix_map_image(
            pm, x, api.EventuallyPeriodicPoint), api.EventuallyPeriodicPoint)
        tasks.append(Task(f"classify twist-after-prefix-map {i}",
                          len(t.states), partial(_classify_eval, api, t, x),
                          partial(_check_twist, sigma == sorted(sigma),
                                  image)))
    for name, (cap, order) in want["order"].items():
        t = api.parse(rename_states(getattr(fx, name), rng))
        tasks.append(Task(f"order {name} cap {cap}", len(t.states),
                          partial(_order, api, t, cap),
                          partial(_check_order, order)))
    for i in range(1 if smoke else 3):
        t = non_synchronizing_core(api, rng)
        tasks.append(Task(f"non-synchronizing {i}", len(t.states),
                          partial(_non_synchronizing, api, t),
                          partial(_check_non_synchronizing, t)))
        t = non_invertible_machine(api, rng)
        tasks.append(Task(f"non-invertible {i}", len(t.states),
                          partial(_non_invertible, api, t),
                          partial(_check_non_invertible, t)))
    for core in (False, True):
        t = empty_output_chain(api, core)
        points = []
        for _ in range(4):
            lead = (0,) * rng.randrange(CHAIN_STATES) + (1,)
            if not core:
                lead = (-1,) + lead
            tail = random_point(api, rng, 2)
            points.append(api.EventuallyPeriodicPoint(
                lead + tail.preperiod, tail.period))
        tasks.append(Task(f"empty-output chain ({t.mode})", len(t.states),
                          partial(_robust, api, t, points),
                          partial(_check_robust, t)))
    return Workload(tasks, warmup=tasks[:1])


# -------------------------------------------------------------- gnr-batch


def _cli(api, *argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.main([str(a) for a in argv])
    return code, out.getvalue().strip(), err.getvalue().strip()


def _gnr_pair(api, d, n, r, point, conjugate):
    f, g, fg, inv = d / "f.ct", d / "g.ct", d / "fg.ct", d / "inv.ct"
    res = {}
    res["make"] = [
        _cli(api, "make-prefix-map", d / "f.map", "--n", n, "--r", r,
             "-o", f)[0],
        _cli(api, "make-prefix-map", d / "g.map", "--n", n, "--r", r,
             "-o", g)[0],
        _cli(api, "compose", f, g, "-o", fg)[0],
        _cli(api, "invert", fg, "-o", inv)[0],
    ]
    res["member"] = _cli(api, "member", fg)
    res["canon"] = _cli(api, "canon", fg)
    res["eval"] = _cli(api, "eval", fg, "--point", point)
    if res["eval"][0] == 0:
        res["back"] = _cli(api, "eval", inv, "--point", res["eval"][1])
    if conjugate:
        left, conj = d / "left.ct", d / "conj.ct"
        res["make"] += [
            _cli(api, "compose", d.parent / "sample_inv.ct", fg,
                 "-o", left)[0],
            _cli(api, "compose", left, d.parent / "sample.ct",
                 "-o", conj)[0],
        ]
        res["conj_member"] = _cli(api, "member", conj)
        res["conj_eval"] = _cli(api, "eval", conj, "--point", point)
    return res


def _check_gnr(point_type, x, image, canon, conj_image, res):
    if any(res["make"]):
        return f"a document-writing verb failed: exit codes {res['make']}"
    if res["member"][:2] != (0, "yes"):
        return f"member of a prefix-exchange map gave {res['member']}"
    if res["canon"][:2] != (0, canon):
        return "canonical form differs from the composed prefix map's"
    if res["eval"][0] or point_type.parse(res["eval"][1]) != image:
        return f"eval gave {res['eval']}, expected {image}"
    if res["back"][0] or point_type.parse(res["back"][1]) != x:
        return f"inverse sent the image to {res['back']}, expected {x}"
    if conj_image is not None:
        if res["conj_member"][:2] != (0, "yes"):
            return f"member of a conjugate gave {res['conj_member']}"
        got = res["conj_eval"]
        if got[0] or point_type.parse(got[1]) != conj_image:
            return f"conjugate eval gave {got}, expected {conj_image}"
    return None


def gnr_batch(api, seed, smoke, scratch):
    """Seeded pairs of prefix-exchange maps through the command line, in
    process, with documents in a scratch directory: build both machines,
    compose, invert, membership, canonical form, evaluation, and on
    C_{3,2} conjugation by the SAMPLE_3_2 fixture."""
    rng = random.Random(f"gnr-batch:{seed}")
    root = Path(tempfile.mkdtemp(prefix="gnr-batch-", dir=scratch))
    point_type = api.EventuallyPeriodicPoint
    sample_text = rename_states(api.fixtures.SAMPLE_3_2, rng)
    sample = api.parse(sample_text)
    sample_inv = api.invert(sample)
    (root / "sample.ct").write_text(sample_text, encoding="utf-8")
    (root / "sample_inv.ct").write_text(api.serialize(sample_inv),
                                        encoding="utf-8")
    tasks = []
    for i in range(3 if smoke else 40):
        n, r = ((3, 2), (2, 1), (4, 2), (3, 1))[i % 4]
        alphabet = api.Alphabet(n, r)
        d = root / f"pair{i:03d}"
        d.mkdir()
        f, g = (api.random_prefix_code_map(alphabet, rng.randrange(2 ** 32),
                                           max_splits=5) for _ in range(2))
        (d / "f.map").write_text(api.serialize_prefix_map(f),
                                 encoding="utf-8")
        (d / "g.map").write_text(api.serialize_prefix_map(g),
                                 encoding="utf-8")
        fg = f.then(g)
        ref = api.from_prefix_code_map(fg, alphabet)
        x = random_point(api, rng, n, r)
        image = prefix_map_image(fg, x, point_type)
        conj_image = None
        if (n, r) == (3, 2):
            y = prefix_map_image(fg, api.eval_point(sample_inv, x),
                                 point_type)
            conj_image = api.eval_point(sample, y)
        tasks.append(Task(
            f"prefix-map pair {i} on C_{n},{r}", len(ref.states),
            partial(_gnr_pair, api, d, n, r, str(x), conj_image is not None),
            partial(_check_gnr, point_type, x, image,
                    api.canonical_form(ref).decode(), conj_image)))
    return Workload(tasks, warmup=tasks[:1], scratch=[root])


WORKLOADS = {
    "core-ladder": core_ladder,
    "bisync-classify": bisync_classify,
    "gnr-batch": gnr_batch,
}
