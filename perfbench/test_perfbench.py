"""Tests of the benchmark itself: span arithmetic, and that a traced run's
counts repeat exactly. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, self_times, subtree  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["a.child", 15, 20, 1, None],
        ["b", 30, 60, 0, None],  # overlaps a
        ["c", 90, 120, 0, None],  # sticks out of root
    ]
    assert self_times(spans) == [100 - 50 - 10, 25, 5, 30, 30]
    assert subtree(spans, 1) == [1, 2]


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        ["cli.main", 0, 1000, -1, None],
        ["montecarlo.run_study", 10, 900, 0, None],
        ["montecarlo.run_replicate", 20, 400, 1, None],
        ["solvers.solve", 30, 300, 2, None],
        ["solvers.residual", 40, 45, 3, None],
        ["montecarlo.run_replicate", 400, 880, 1, None],
    ]
    assert layers.check_self_time_sum(spans) == []
    assert sum(self_times(spans)) == 1000
    spans.append(["solvers.jacobian", 290, 310, 3, None])  # escapes its parent
    assert layers.check_self_time_sum(spans)


def test_recorder_links_parents_and_lists_missing_names():
    mod = types.ModuleType("fake")
    mod.outer = lambda: mod.inner() + 1
    mod.inner = lambda: 1
    rec = SpanRecorder()
    rec.patch(mod, "inner", "fake.inner")
    rec.patch(mod, "outer", "fake.outer")
    rec.patch(mod, "gone", "fake.gone")
    assert mod.outer() == 2
    assert [(s[0], s[3]) for s in rec.spans] == [("fake.outer", -1), ("fake.inner", 0)]
    assert rec.missing == ["fake.gone"]


@pytest.fixture
def runner(tmp_path):
    prep = workloads.prepare("paper-study", 7, tmp_path)
    r = run.Runner(prep, tmp_path, time.monotonic() + 600)
    r.warm_up()
    return r


def test_two_traced_runs_with_the_same_seed_give_identical_counts(runner):
    counts = []
    for _ in range(2):
        res = runner.invoke(1, trace=True)
        assert res is not None, runner.errors
        assert layers.check_self_time_sum(res["spans"]) == []
        m = layers.per_layer_metrics(res["spans"])
        counts.append({k: v for k, v in m.items() if layers.unit_of(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["montecarlo.run_replicate.calls"] == runner.prep.replicates


def test_traced_run_reports_exactly_the_per_layer_metrics_of_benchmark_json(runner):
    metrics = run.trace(runner, 1, 0.0)
    assert runner.errors == []
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
