"""Tests of the benchmark itself: span arithmetic, the committed answers
against the oracles, and a smoke run of every workload."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import cantrans as api  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EXPECTED,
    Task,
    non_invertible_machine,
    non_synchronizing_core,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, parent, start, end, name="f"):
    return [sid, parent, name, 0, start, end, 0, 0, "ok", 0]


def test_self_time_subtracts_children_once():
    recs = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),       # overlaps span 1: [1, 6] covered once
        span(3, 1, 2.0, 3.0),       # grandchild: charged to span 1 only
        span(4, 0, 9.0, 12.0),      # runs past its parent: clipped
    ]
    got = spans.self_times(recs)
    assert got == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1, 2: 3, 3: 1, 4: 3})


def test_self_times_of_nested_spans_add_up_to_the_root():
    recs = [span(0, None, 0.0, 8.0), span(1, 0, 1.0, 5.0),
            span(2, 1, 2.0, 3.0), span(3, 1, 3.5, 4.5),
            span(4, 0, 6.0, 7.0)]
    got = spans.self_times(recs)
    assert got == pytest.approx({0: 3, 1: 2, 2: 1, 3: 1, 4: 1})
    assert sum(got.values()) == pytest.approx(8.0)


def test_layer_stats_totals():
    recs = [span(0, None, 0.0, 4.0, "task:x"),
            span(1, 0, 0.0, 3.0, "synchro.sync_level"),
            span(2, 1, 1.0, 2.0, "machine.validate"),
            span(3, 0, 3.0, 4.0, "machine.validate")]
    recs[3][spans.STATUS] = "failed"
    stats = spans.layer_stats(recs)
    assert set(stats) == {"synchro.sync_level", "machine.validate"}
    assert stats["synchro.sync_level"]["self_s"] == pytest.approx(2.0)
    assert stats["machine.validate"]["calls"] == 2
    assert stats["machine.validate"]["failed"] == 1


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = spans.Tracer(refusals=(api.TransducerError,))
    original = api.minimize
    tracer.install("cantrans")
    try:
        assert api.minimize is not original
        assert api.synchro.minimize is api.minimize
        assert api.algebra.run_word.__name__ == "run_word"
        assert not hasattr(api.algebra.run_word, "__wrapped__")
        sample = api.fixtures.sample_3_2()
        close = tracer.task(0, "demo")
        api.classify_subgroup(sample)
        close()
    finally:
        tracer.uninstall()
    assert api.minimize is original
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"classify.classify_subgroup", "synchro.is_bisynchronizing",
            "minimize.minimize", "machine.validate"} <= names
    by_id = {rec[spans.ID]: rec for rec in tracer.spans}
    task = next(rec for rec in tracer.spans if rec[spans.NAME] == "task:demo")
    top = [rec for rec in tracer.spans if rec[spans.PARENT] == task[spans.ID]]
    assert [rec[spans.NAME] for rec in top] == ["classify.classify_subgroup"]
    for rec in tracer.spans[task[spans.ID] + 1:]:
        parent = by_id[rec[spans.PARENT]]
        assert parent[spans.START] <= rec[spans.START] <= rec[spans.END]
        assert rec[spans.END] <= parent[spans.END]


def test_end_to_end_times_are_scaled_per_pass():
    task = Task("t", 1, None, None)
    passes = [(2.0, [(task, 0.5, "ok", None)], 0.5),
              (4.0, [(task, 1.0, "ok", None)], 0.25),
              (3.0, [(task, 0.6, "ok", None)], 0.5)]
    clock = run.Clock()
    clock.samples = [0.05, 0.1]
    _, failed, wrong, metrics = run.end_to_end(
        passes, [(0.2, 0.5), (0.3, 0.5), (0.1, 2.0)], clock)
    assert (failed, wrong) == (0, 0)
    assert metrics["wall_s"][0] == pytest.approx(1.0)
    assert metrics["task_p50_ms"][0] == pytest.approx(250.0)
    assert metrics["setup_s"][0] == pytest.approx(0.15)


def test_expected_ladder_matches_documented_facts():
    balanced = EXPECTED["core_ladder"]["BALANCED_CORE_2"]
    assert balanced["states"] == [10, 34, 103, 300, 859]
    assert balanced["levels"] == [6 * k for k in range(1, 6)]
    order = EXPECTED["bisync_classify"]["order"]["TORSION_CORE_2"]
    assert order[1] == ["finite", 2]


@pytest.mark.parametrize("name", ["BALANCED_CORE_2", "UNBALANCED_CORE_3"])
def test_expected_levels_agree_with_brute_force(name):
    want = EXPECTED["core_ladder"][name]
    a = api.parse(getattr(api.fixtures, name))
    power = a
    for k, level in enumerate(want["levels"], start=1):
        if level > 8:
            break
        if k > 1:
            power = api.core_product(power, a)
        assert len(power.states) == want["states"][k - 1]
        assert oracles.brute_force_level(power) == level


def test_expected_fixture_levels_bound_the_forward_level():
    for name, flags in EXPECTED["bisync_classify"]["classify"].items():
        t = api.minimize(api.parse(getattr(api.fixtures, name)))
        assert oracles.brute_force_level(t) <= flags["level"], name


def test_prefix_map_oracle_agrees_with_word_arithmetic():
    rng = random.Random(5)
    point_type = api.EventuallyPeriodicPoint
    for seed in range(20):
        alphabet = api.Alphabet(3, 2)
        f = api.random_prefix_code_map(alphabet, seed)
        g = api.random_prefix_code_map(alphabet, seed + 100)
        x = point_type((-1 - rng.randrange(2), rng.randrange(3)),
                       (rng.randrange(3), 1))
        fg = f.then(g)
        image = oracles.prefix_map_image(fg, x, point_type)
        depth = 30
        word = g.apply(f.apply(x.expand(depth)))
        assert image.expand(len(word)) == word
        back = oracles.prefix_map_image(fg.inverse(), image, point_type)
        assert back == x


def test_twist_rule_on_the_smallest_inputs():
    alphabet = api.Alphabet(2, 1)
    pm = api.random_prefix_code_map(alphabet, 3, max_splits=1)
    for sigma, identity in (([0, 1], True), ([1, 0], False)):
        t = api.compose(api.from_prefix_code_map(pm, alphabet),
                        api.twist_transducer(sigma, alphabet))
        flags = api.classify_subgroup(t)
        assert (flags.in_Gnr, flags.in_Pn, flags.in_Ln,
                flags.core_states) == (identity, True, True, 1)


def test_negative_inputs_carry_their_certificates():
    rng = random.Random(9)
    for _ in range(5):
        t = non_synchronizing_core(api, rng)
        assert oracles.brute_force_level(t) is None
        assert oracles.pair_survives(t, t.states[0], t.states[1])
        u = non_invertible_machine(api, rng)
        assert oracles.twin_letters(u) is not None
    sync = api.fixtures.synchronous_core_3()
    assert oracles.brute_force_level(sync) == 1
    assert not oracles.pair_survives(sync, *sync.states)


def test_benchmark_json_names_what_the_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units


def smoke(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    out = smoke(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = smoke("core-ladder", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
