"""Tests of the benchmark itself: metric names/units, checks, span arithmetic."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import END, NAME, PARENT, START, Tracer, layer_totals, self_times
from workloads import WORKLOADS, Outcome, PassResult, build, check_passes

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_reduced_run_reports_every_metric_with_its_unit(workload, trace, section):
    out = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--smoke",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == units(section)
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    workload = build("replay-saturated", smoke=True)
    first = workload.setup(5, ROOT)
    second = workload.setup(5, ROOT)
    assert first["units"] == second["units"]
    assert build("plan-cold", smoke=True).setup(5, ROOT)["units"] == (
        build("plan-cold", smoke=True).setup(5, ROOT)["units"]
    )


def test_tampered_fingerprint_counts_as_failure():
    workload = build("replay-idle", smoke=True)
    ctx = workload.setup(1, ROOT)
    passes = [workload.run_pass(ctx, unit) for _ in range(3) for unit in (0, 1)]
    operations = sum(ctx["operations"][:2])
    clean = Outcome()
    check_passes(passes, clean)
    assert clean.failed == 0 and clean.attempted == 3 * operations

    # Units differ from each other; a pass is checked against its own unit.
    assert passes[0].fingerprint != passes[1].fingerprint
    passes[2].fingerprint = "0" * 64
    tampered = Outcome()
    check_passes(passes, tampered)
    assert tampered.failed == ctx["operations"][0]
    assert tampered.attempted == 3 * operations


def test_pass_check_failures_are_counted():
    result = PassResult(1.0, 9, 10, [1], "f", 1.0, 0.5, failed=1, why="unfinished")
    outcome = Outcome()
    check_passes([result], outcome)
    assert (outcome.attempted, outcome.failed) == (10, 1)
    assert "unfinished" in outcome.errors[0]


def span(name, start, end, parent):
    return (name, start, end, parent, None)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        span("step", 0, 100, -1),       # 0
        span("place", 10, 40, 0),       # 1
        span("take", 15, 25, 1),        # 2
        span("release", 50, 90, 0),     # 3
        span("step", 120, 130, -1),     # 4
    ]
    assert self_times(spans) == [30, 20, 10, 40, 10]
    totals = layer_totals(spans)
    assert totals["step"] == {
        "calls": 2, "busy_s": pytest.approx(110e-9), "self_s": pytest.approx(40e-9)
    }
    assert totals["place"]["self_s"] == pytest.approx(20e-9)
    # Self times of a tree add up to its roots' durations.
    assert sum(self_times(spans)) == 100 + 10


def test_reentered_layer_is_busy_once():
    spans = [span("plan", 0, 50, -1), span("plan", 10, 20, 0)]
    totals = layer_totals(spans)
    assert totals["plan"]["calls"] == 2
    assert totals["plan"]["busy_s"] == pytest.approx(50e-9)
    assert totals["plan"]["self_s"] == pytest.approx(50e-9)


def test_tracer_restores_every_patched_callable():
    import importlib

    from repro.sched.engine import SchedulerEngine
    from repro.sched.snapshot import EngineSnapshot

    fingerprint_module = importlib.import_module("repro.cache.fingerprint")
    step = SchedulerEngine.__dict__["step"]
    capture = EngineSnapshot.__dict__["capture"]
    dumps = fingerprint_module.canonical_json
    tracer = Tracer()
    tracer.install()
    try:
        assert SchedulerEngine.__dict__["step"] is not step
        assert fingerprint_module.canonical_json("x") == '"x"'
        assert [s[NAME] for s in tracer.spans] == ["cache.canonical_json"]
        assert tracer.spans[0][END] >= tracer.spans[0][START]
        assert tracer.spans[0][PARENT] == -1
    finally:
        tracer.uninstall()
    assert SchedulerEngine.__dict__["step"] is step
    assert EngineSnapshot.__dict__["capture"] is capture
    assert fingerprint_module.canonical_json is dumps


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(
        "--workload", "plan-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
