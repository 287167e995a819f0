"""Seeded, single-process benchmark of the cantrans library.

    python3 bench/run.py --workload core-ladder --seed 1 --seconds 40 --trace 0

Workloads: core-ladder, bisync-classify, gnr-batch (see README.md).  The
run imports the library from src/ next to this directory, generates the
workload's inputs from --seed, and runs its tasks closed loop, one pass
after another, for about --seconds.  Every verdict is checked.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time untraced and half with every public layer function wrapped, and
reports per-layer metrics and the tracing overhead; the spans go to
.bench_out/.  --smoke runs one pass on the smallest inputs.

Report lines start with '#'; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_stats
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up (import, input generation, warm-up) runs once before the first
# pass and again after each pass, up to this many times in all, so that
# the samples spread over the run; setup_s is their median.
SETUP_REPEATS = 5

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# The speed of the host this benchmark was tuned on drifts by up to 2x
# within tens of seconds, because other tenants share its cores, and more
# passes do not average that out.  End-to-end times are therefore scaled
# to a reference speed: a fixed pure-Python loop that never calls the
# library is timed at the start and end of each pass and between tasks,
# at most every SAMPLE_EVERY seconds.  Each pass's times are multiplied by
# REFERENCE_S / (loop time over the pass, each stretch between two
# samples weighted by its length), and each set-up's by the loops timed
# around it.  The loops' own time is left out of every measurement.
REFERENCE_S = 0.025
SAMPLE_EVERY = 0.5

# Functions whose calls and self time are reported, by layer.
TIMED = (
    "machine.validate", "machine.check_valid", "machine.guaranteed_output",
    "machine.canonical_form", "machine.eval_point",
    "minimize.remove_incomplete_response", "minimize.remove_inaccessible",
    "minimize.merge_equivalent_states", "minimize.minimize",
    "algebra.compose", "algebra.invert", "algebra.from_prefix_code_map",
    "synchro.sync_level", "synchro.witness_pair", "synchro.core_of",
    "synchro.core_product", "synchro.invert_core",
    "synchro.is_bisynchronizing",
    "classify.classify_subgroup", "classify.is_in_Gnr",
    "classify.outer_class_equal", "classify.order_in_On",
    "classify.cycle_balance", "classify.outer_product",
    "document.parse", "document.serialize", "document.parse_prefix_map",
    "cli.main",
)


def _ratio(a, b):
    return a / b if b else 0.0


def _stat(stats, name, key):
    return stats.get(name, {}).get(key, 0)


# Extra per-layer metrics: name -> (unit, value from the per-function
# totals of the traced passes, divided by the traced pass count).
DERIVED = {
    "synchro.sync_level.states_in": (
        "count", lambda s, p: _stat(s, "synchro.sync_level", "states_in") / p),
    "machine.canonical_form.states_in": (
        "count",
        lambda s, p: _stat(s, "machine.canonical_form", "states_in") / p),
    "synchro.core_product.keep_ratio": (
        "ratio", lambda s, p: _ratio(
            _stat(s, "synchro.core_product", "states_out"),
            _stat(s, "synchro.core_product", "extra"))),
    "synchro.invert_core.failed": (
        "count", lambda s, p: _stat(s, "synchro.invert_core", "failed") / p),
    "algebra.invert.failed": (
        "count", lambda s, p: _stat(s, "algebra.invert", "failed") / p),
    "minimize.merge_equivalent_states.keep_ratio": (
        "ratio", lambda s, p: _ratio(
            _stat(s, "minimize.merge_equivalent_states", "states_out"),
            _stat(s, "minimize.merge_equivalent_states", "states_in"))),
    "minimize.minimize.keep_ratio": (
        "ratio", lambda s, p: _ratio(
            _stat(s, "minimize.minimize", "states_out"),
            _stat(s, "minimize.minimize", "states_in"))),
    "machine.validate.per_compose": (
        "ratio", lambda s, p: _ratio(_stat(s, "machine.validate", "calls"),
                                     _stat(s, "algebra.compose", "calls"))),
    "document.parse.bytes_in": (
        "bytes", lambda s, p: _stat(s, "document.parse", "extra") / p),
    "document.serialize.bytes_out": (
        "bytes", lambda s, p: _stat(s, "document.serialize", "extra") / p),
}

TRACE_TOTALS = {
    "tracing_overhead_s": "s",
    "untraced_wall_s": "s",
    "traced_wall_s": "s",
    "wrapped_self_s": "s",
}


def per_layer_units():
    units = dict(TRACE_TOTALS)
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in DERIVED.items()})
    return units


def import_library():
    """A fresh import of the package from src/, dropping earlier ones."""
    for name in [m for m in sys.modules
                 if m == "cantrans" or m.startswith("cantrans.")]:
        del sys.modules[name]
    api = importlib.import_module("cantrans")
    importlib.import_module("cantrans.cli")
    if Path(api.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cantrans imported from {api.__file__}, "
                          f"not from {SRC}")
    return api


def reference_loop():
    """Seconds taken by a fixed dict-, tuple- and sort-heavy loop, the kind
    of work the library does.  The cyclic garbage collector is off while
    it runs, so the heap left by the library does not change its time."""
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        hits = 0
        for i in range(30000):
            key = ((i * 7919) % 1009, i & 7)
            table[key] = (i, key[0])
            hits += len(table.get((i % 1009, 3), ()))
        sorted(table.items())
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Reference-loop samples: the host's speed over the run."""

    def __init__(self):
        self.samples = []   # loop seconds
        self.gaps = []      # seconds of other work before each sample
        self._last = None

    def sample(self, force=False):
        """Time the loop when forced or due; returns the seconds spent."""
        t0 = perf_counter()
        gap = 0.0 if self._last is None else t0 - self._last
        if not force and gap < SAMPLE_EVERY:
            return 0.0
        self.samples.append(reference_loop())
        self.gaps.append(gap)
        self._last = perf_counter()
        return self._last - t0

    def scale(self, first):
        """Factor to the reference speed for the work between sample
        `first` and the latest sample: each gap between two samples
        weighs the mean of their loop times by its length."""
        loops, gaps = self.samples[first:], self.gaps[first + 1:]
        if not sum(gaps):
            return REFERENCE_S / statistics.median(loops)
        loop = sum(g * (a + b) / 2
                   for g, a, b in zip(gaps, loops, loops[1:])) / sum(gaps)
        return REFERENCE_S / loop


def run_pass(workload, tracer=None, clock=None):
    """One closed-loop pass: each task starts after the previous verdict.
    Returns (wall seconds, [(task, seconds, outcome, message)], scale),
    where scale is 1 without a clock."""
    results = []
    first = len(clock.samples) if clock else 0
    paused = 0.0
    start = perf_counter()
    for i, task in enumerate(workload.tasks):
        if clock:
            paused += clock.sample(force=i == 0)
        close = tracer.task(i, task.name) if tracer else None
        t0 = perf_counter()
        try:
            value = task.run()
        except Exception as e:  # any untyped failure is the program's
            seconds = perf_counter() - t0
            outcome, message = "error", f"{type(e).__name__}: {e}"[:300]
        else:
            seconds = perf_counter() - t0
            message = task.check(value)
            outcome = "ok" if message is None else "wrong"
        if close:
            close()
        results.append((task, seconds, outcome, message))
    if clock:
        paused += clock.sample(force=True)
    wall = perf_counter() - start - paused
    return wall, results, clock.scale(first) if clock else 1.0


def run_passes(workload, budget, smoke, tracer=None, clock=None,
               between=None):
    """Whole passes while the next one is expected to end within budget
    seconds (at least one); `between` runs after each pass."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(workload, tracer, clock))
        if between:
            between()
        longest = max(p[0] for p in passes)
        if smoke or perf_counter() - start + longest > budget:
            return passes


def tail(durations):
    """(percentile, value) of the highest listed percentile that has at
    least ten tasks beyond it, or None under 100 tasks."""
    n = len(durations)
    if n < 100:
        return None
    ranked = sorted(durations)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ranked[rank - 1]
    return None


def report(line):
    print("# " + line, flush=True)


def summarize(passes):
    runs = [r for _, results, _ in passes for r in results]
    failed = [r for r in runs if r[2] != "ok"]
    for task, _, outcome, message in failed[:5]:
        report(f"{outcome}: {task.name}: {message}")
    kinds = Counter(f"{outcome}: {task.name}"
                    for task, _, outcome, _ in failed)
    if kinds:
        report("failures by task: " + json.dumps(kinds))
    wrong = sum(r[2] == "wrong" for r in runs)
    return runs, len(failed), wrong


def end_to_end(passes, setups, clock):
    """End-to-end metrics from (wall, results, scale) passes and
    (seconds, scale) set-ups."""
    runs, failed, wrong = summarize(passes)
    durations = [r[1] * scale for _, results, scale in passes
                 for r in results]
    walls = [wall * scale for wall, _, scale in passes]
    metrics = {
        "setup_s": (statistics.median(t * k for t, k in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "task_p50_ms": (statistics.median(durations) * 1000, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report(f"passes: {len(walls)}, unscaled walls_s: "
           f"{[round(p[0], 4) for p in passes]}, unscaled setups_s: "
           f"{[round(t, 4) for t, _ in setups]}")
    report(f"reference loop: {len(clock.samples)} samples, median "
           f"{statistics.median(clock.samples):.6g} s (reference "
           f"{REFERENCE_S} s); unscaled medians: wall_s "
           f"{statistics.median(p[0] for p in passes):.6g}, task_p50_ms "
           f"{statistics.median(r[1] for r in runs) * 1000:.6g}")
    for name, (value, unit) in metrics.items():
        report(f"metric {name} = {value:.6g} {unit}")
    t = tail(durations)
    if t is None:
        report(f"metric task_tail_ms: not reported, {len(durations)} tasks "
               "(needs 100)")
    else:
        report(f"metric task_tail_ms = {t[1] * 1000:.6g} ms "
               f"(p{t[0]:g} of {len(durations)} tasks)")
    largest = [(r[0].name, r[1] * scale) for _, results, scale in passes
               for r in results if r[0].largest]
    if largest:
        value = statistics.median(s for _, s in largest)
        report(f"metric largest_task_s = {value:.6g} s ({largest[0][0]}, "
               f"median of {len(largest)})")
    report(f"metric error_rate = {failed / len(runs):.6g} "
           f"({failed} of {len(runs)} tasks; {wrong} wrong verdicts)")
    return runs, failed, wrong, metrics


def per_layer(api, workload, args):
    half = args.seconds / 2
    plain = run_passes(workload, half, args.smoke)
    tracer = Tracer(refusals=(api.TransducerError, api.WordError,
                              api.ParseError))
    tracer.install("cantrans")
    try:
        traced = run_passes(workload, half, args.smoke, tracer)
    finally:
        tracer.uninstall()
    runs, failed, wrong = summarize(plain + traced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    stats = layer_stats(tracer.spans)
    n = len(traced)
    untraced_wall = statistics.fmean(p[0] for p in plain)
    traced_wall = statistics.fmean(p[0] for p in traced)
    wrapped = sum(s["self_s"] for s in stats.values()) / n
    metrics = {
        "tracing_overhead_s": (traced_wall - untraced_wall, "s"),
        "untraced_wall_s": (untraced_wall, "s"),
        "traced_wall_s": (traced_wall, "s"),
        "wrapped_self_s": (wrapped, "s"),
    }
    for name in TIMED:
        metrics[f"{name}.calls"] = (_stat(stats, name, "calls") / n, "count")
        metrics[f"{name}.self_s"] = (_stat(stats, name, "self_s") / n, "s")
    for name, (unit, value) in DERIVED.items():
        metrics[name] = (value(stats, n), unit)
    report(f"spans: {len(tracer.spans)} written to {spans_path}")
    report(f"passes: {len(plain)} untraced, {n} traced")
    report(f"sum of self_s over wrapped functions {wrapped:.6g} s "
           f"<= traced wall_s {traced_wall:.6g} s: {wrapped <= traced_wall}")
    busiest = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, s in busiest:
        report(f"layer {name}: calls {s['calls'] / n:g}, "
               f"self_s {s['self_s'] / n:.6g}")
    return runs, failed, wrong, metrics, wrapped <= traced_wall


def set_up(args):
    """Fresh import, seeded inputs and warm-up; returns the package, the
    workload and the seconds taken."""
    t0 = perf_counter()
    api = import_library()
    workload = WORKLOADS[args.workload](api, args.seed, args.smoke, OUT)
    try:
        for task in workload.warmup:
            message = task.check(task.run())
            if message is not None:
                raise RuntimeError(f"warm-up {task.name}: {message}")
    except BaseException:
        workload.close()
        raise
    return api, workload, perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="'all' runs each workload in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass on the smallest inputs")
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)] + ["--smoke"] * args.smoke
            codes.append(subprocess.run(argv).returncode)
        return max(codes)
    if not (SRC / "cantrans" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    report(f"env: python {platform.python_version()}, nproc "
           f"{os.cpu_count()}, platform {platform.platform()}, workload "
           f"{args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
           f"trace {args.trace}, smoke {args.smoke}")
    clock = Clock()
    setups = []

    def timed_set_up():
        clock.sample(force=True)
        made = set_up(args)
        clock.sample(force=True)
        setups.append((made[2], clock.scale(len(clock.samples) - 2)))
        return made

    def another_set_up():
        if len(setups) < SETUP_REPEATS:
            timed_set_up()[1].close()

    api, workload, _ = timed_set_up()

    try:
        report("task sizes (states): " + json.dumps(
            {t.name: t.states for t in workload.tasks}))
        if args.trace:
            runs, failed, wrong, metrics, sound = per_layer(
                api, workload, args)
        else:
            passes = run_passes(workload, args.seconds, args.smoke,
                                clock=clock, between=another_set_up)
            runs, failed, wrong, metrics = end_to_end(passes, setups, clock)
            sound = True
    finally:
        workload.close()
    print(json.dumps({
        "correct": wrong == 0 and sound,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
