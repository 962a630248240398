"""Smoke tests for the benchmark itself; run with ``python -m pytest perfbench``.

Every workload runs at a tiny size, once with the true reference answers
(no op may fail) and once with a planted wrong reference (ops must fail).
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.add_source_path(), "the benchmark needs the fjattack sources under src/"

import workloads  # noqa: E402  (needs the source path)

TINY = {
    "plan_approx": lambda: workloads.PlanApprox(n=7, pool_size=4, verify_instances=1),
    "plan_exact": lambda: workloads.PlanExact(n=7, edge_prob=0.4, pool_size=3, count_strata=()),
    "fit_noisy": lambda: workloads.FitNoisy(n=5, trajectories=3, rounds=12, pool_size=2),
    "replay_large": lambda: workloads.ReplayLarge(
        n=60, edge_prob=0.1, adversaries=2, start_vectors=2
    ),
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name, tmp_path):
    metrics, _, attempted, failures = run.run_untraced(
        TINY[name](), seed=1, seconds=0.01, workdir=tmp_path, check=workloads.Checker()
    )
    assert failures == []
    assert attempted >= 2
    assert set(metrics) == {metric for metric, _ in run.END_TO_END}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_reference_raises_failed_frac(name, tmp_path):
    _, _, attempted, failures = run.run_untraced(
        TINY[name](), seed=1, seconds=0.01, workdir=tmp_path, check=workloads.Checker(skew=1.0)
    )
    assert len(failures) / attempted > 0
    assert "CheckFailed" in failures[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    metrics, attempted, failures = run.run_traced(
        TINY[name](), seed=1, seconds=0.01, workdir=tmp_path, check=workloads.Checker(),
        spans_path=spans_path,
    )
    assert failures == []
    assert set(metrics) == {metric for metric, _ in run.PER_LAYER}
    assert metrics["trace.ops"] >= 1 and attempted >= 3
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert any(span["name"] == "harness.generate" for span in spans)
    assert all(span["end"] >= span["start"] for span in spans)


def test_traced_ops_time_the_leader_loop_from_inside(tmp_path):
    import fjattack.optimizer

    original = fjattack.optimizer.marginal_gains
    spans_path = tmp_path / "spans.jsonl"
    metrics, _, failures = run.run_traced(
        TINY["plan_approx"](), seed=1, seconds=0.01, workdir=tmp_path,
        check=workloads.Checker(), spans_path=spans_path,
    )
    assert failures == []
    assert fjattack.optimizer.marginal_gains is original
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    names = {span["id"]: span["name"] for span in spans}
    # Every leader set of every traced op went through the wrapped functions,
    # called by solve_attack itself.
    per_set = [span for span in spans if span["op"] >= 0 and span["name"] == "optimizer._best_response"]
    assert len(per_set) == metrics["optimizer.leader_sets"] * metrics["trace.ops"]
    assert all(names[span["parent"]] == "optimizer.solve_attack" for span in per_set)
    gains = [span for span in spans if span["op"] >= 0 and span["name"] == "optimizer.marginal_gains"]
    assert len(gains) == len(per_set)
    for name in ("optimizer.gains_s", "optimizer.select_rescore_s", "optimizer.leader_loop_self_s"):
        assert metrics[name] > 0
    assert metrics["optimizer.solve_follower.us_per_call"] > 0


def test_untraced_plan_approx_catches_skipped_leader_sets(tmp_path, monkeypatch):
    import fjattack.optimizer

    def every_other(items, size):
        return itertools.islice(itertools.combinations(items, size), 0, None, 2)

    monkeypatch.setattr(fjattack.optimizer, "combinations", every_other)
    workload = workloads.PlanApprox(n=7, pool_size=4, verify_instances=4)
    _, _, _, failures = run.run_untraced(
        workload, seed=1, seconds=0.05, workdir=tmp_path, check=workloads.Checker()
    )
    assert len(failures) == 1
    assert "reference best" in failures[0]


def test_fit_noisy_pool_holds_each_stratum_in_its_share(tmp_path):
    workload = workloads.FitNoisy(pool_size=10)
    workload.setup(1, tmp_path, run.NullTracer())
    strata = [min(workloads.constrained_rows(noisy), 1) for _, noisy, _ in workload.pool]
    assert strata.count(1) == 2
    assert strata[0] == 0 and strata[-1] == 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_approx", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
