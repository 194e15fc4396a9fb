"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-idle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` runs the same passes once untraced and once
with every layer's public calls wrapped in spans, and reports the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable table and the run's environment record.

The program under test is imported from ``src/`` of the checkout holding
this file; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Set-ups per measured run; ``setup_s`` is their median.  Cheap set-ups
#: repeat until they add up to ``SETUP_MIN_S`` of CPU time so the median
#: settles.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_LOOP = 1_000_000
#: Iterations of the host-speed reference loop run between passes, and its
#: nominal CPU time: a scaled timing reads as it would on a host where one
#: reference loop takes exactly ``REFERENCE_NOMINAL_S``.
REFERENCE_LOOP = 4_000
REFERENCE_NOMINAL_S = 0.01
#: Pass wall time after which the next reference loop runs.
REFERENCE_EVERY_S = 0.2

Metric = Tuple[float, str]


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program from {src}: {exc}\n")
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"perfbench: repro was imported from outside {src}\n")
        sys.exit(2)


# ------------------------------------------------------------- environment
def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_s() -> float:
    """Median wall time of a fixed pure-Python loop (machine speed probe)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "calibration_s": calibration_s(),
    }


class _Slot:
    __slots__ = ("name", "gpus", "left")


def reference_s() -> float:
    """CPU time of a fixed, event-loop-like pure-Python workload.

    Like the scheduler it allocates small objects, keys a dict by name,
    keeps a heap and sorts, so a host whose cores other guests share runs
    it about as much slower as it runs the program.  It calls nothing in
    the program.
    """
    start = time.process_time()
    heap: list = []
    table: Dict[str, _Slot] = {}
    free = list(range(256))
    now = 0.0
    for i in range(REFERENCE_LOOP):
        slot = _Slot()
        slot.name, slot.gpus, slot.left = f"j{i % 512}", 1 + i * 7 % 8, i * 13 % 97 + 1
        heapq.heappush(heap, (now + slot.left, i, slot))
        table[slot.name] = slot
        if len(heap) > 128:
            now, _, done = heapq.heappop(heap)
            table.pop(done.name, None)
            free.extend(range(done.gpus))
            del free[: done.gpus]
        if i % 64 == 0:
            sorted(table.values(), key=lambda s: (s.left, s.name))[:8]
    return time.process_time() - start


# ---------------------------------------------------------------- measuring
def percentile_us(samples_ns: List[int], q: float) -> float:
    from repro.sched import percentile

    return percentile(samples_ns, q) / 1e3


def run_passes(workload, ctx, seconds: float, outcome, tracer=None, cycles=None):
    """Cycle through every unit until ``seconds`` elapsed (or ``cycles`` cycles).

    The window closes only between cycles, so every unit runs equally
    often, and at least once.  The reference loop runs at the start of each
    cycle and after every ``REFERENCE_EVERY_S`` of passes; the median of a
    cycle's loops sets the ``host_scale`` of its passes.
    A pass that raises counts every operation it would have made as failed
    and ends the window.  Returns the passes and the cycles completed.
    """
    units = range(len(ctx["units"]))
    passes = []
    done = 0
    start = time.perf_counter()
    while True:
        if cycles is not None and done >= cycles:
            break
        if cycles is None and done and time.perf_counter() - start >= seconds:
            break
        references = [reference_s()]
        last = time.perf_counter()
        cycle = []
        raised = False
        for unit in units:
            try:
                cycle.append(workload.run_pass(ctx, unit, tracer))
            except Exception as exc:  # a raised operation is a failed operation
                operations = ctx["operations"][unit]
                outcome.record(operations, operations, f"pass raised {exc!r}")
                raised = True
                break
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                references.append(reference_s())
                last = time.perf_counter()
        scale = statistics.median(references) / REFERENCE_NOMINAL_S
        for result in cycle:
            result.host_scale = scale
        passes.extend(cycle)
        if raised:
            break
        done += 1
    return passes, done


def unit_medians(passes, value) -> List[float]:
    """For each unit, the median of ``value(pass)`` over the unit's passes."""
    by_unit: Dict[int, List[float]] = {}
    for result in passes:
        by_unit.setdefault(result.unit, []).append(value(result))
    return [statistics.median(values) for _, values in sorted(by_unit.items())]


def first_passes(passes):
    """One pass per unit; every pass of a unit has the same outputs."""
    first = {}
    for result in passes:
        first.setdefault(result.unit, result)
    return [result for _, result in sorted(first.items())]


def cycle_wall_s(passes) -> float:
    """Wall time of one cycle: the sum of every unit's median pass time."""
    return sum(unit_medians(passes, lambda p: p.wall_s))


def end_to_end(passes, setup_s: float) -> Dict[str, Metric]:
    """The gated metrics of ``BENCHMARK.json``.

    Timings are CPU time, which leaves out the time a shared host's
    hypervisor gives to other guests, divided by each pass's
    ``host_scale``, so a host that runs everything slower for minutes at a
    time does not read as a slower program.  A timing is each unit's median
    over its passes, summed over the units, so a burst of contention moves
    a single sample of a unit, not the run.
    """
    first = first_passes(passes)
    jobs = sum(p.jobs for p in first)
    operations = sum(len(p.op_ns) for p in first)
    cpu_s = sum(unit_medians(passes, lambda p: p.cpu_s / p.host_scale))
    op_cpu_s = sum(unit_medians(passes, lambda p: p.op_cpu_s / p.host_scale))
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jobs_per_cpu_s_norm": (jobs / cpu_s, "1/s"),
        "op_cpu_us_norm": (op_cpu_s / operations * 1e6, "us"),
        "sim_mean_jct_s": (
            sum(p.sim_mean_jct_s * p.jobs for p in first) / max(jobs, 1), "s"),
        "sim_utilization": (statistics.fmean(p.sim_utilization for p in first), "fraction"),
    }


def cpu_share(result) -> float:
    """The pass's CPU time over its wall time."""
    return result.cpu_s / result.wall_s if result.wall_s > 0 else 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def named_metrics(name: str, passes, gated, outcome) -> Dict[str, Optional[Metric]]:
    """The run under the thirteen per-workload metric names.

    ``None`` marks a metric whose operation the workload's timed phase does
    not have; the gated metrics generalize them to every workload.  Rates
    and percentiles here are plain wall time, not scaled by the host.
    """
    samples = [sample for p in passes for sample in p.op_ns]
    rate = sum(p.jobs for p in first_passes(passes)) / cycle_wall_s(passes), "1/s"
    replay = name.startswith("replay-")
    plan = name == "plan-cold"
    serve = name == "serve-durable"

    def pct(q: float, unit: str, scale: float = 1.0) -> Metric:
        return percentile_us(samples, q) / scale, unit

    return {
        "setup_s": gated["setup_s"],
        "peak_rss_mb": gated["peak_rss_mb"],
        "error_ratio": (outcome.failed / max(outcome.attempted, 1), "ratio"),
        "jobs_per_s": None if plan else rate,
        "step_us_p50": pct(50, "us") if replay else None,
        "step_us_p99": pct(99, "us") if replay else None,
        "plans_per_s": rate if plan else None,
        "plan_ms_p50": pct(50, "ms", 1e3) if plan else None,
        "plan_ms_p90": pct(90, "ms", 1e3) if plan else None,
        "submit_ms_p50": pct(50, "ms", 1e3) if serve else None,
        "submit_ms_p99": pct(99, "ms", 1e3) if serve else None,
        "sim_mean_jct_s": None if plan else gated["sim_mean_jct_s"],
        "sim_utilization": None if plan else gated["sim_utilization"],
        "host_scale": (statistics.median(p.host_scale for p in passes), "ratio"),
        "cpu_share": (statistics.median(cpu_share(p) for p in passes), "ratio"),
    }


def measure(name: str, seed: int, seconds: float, smoke: bool, workdir: Path):
    from workloads import Outcome, build, check_passes

    workload = build(name, smoke)
    outcome = Outcome()
    setups: List[float] = []
    references = [reference_s()]
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        began = time.process_time()
        ctx = workload.setup(seed, workdir)
        setups.append(time.process_time() - began)
        references.append(reference_s())
    # Set-up time is CPU time over the median host scale around the set-ups.
    setup_s = statistics.median(setups) * REFERENCE_NOMINAL_S / statistics.median(references)
    gc.collect()
    passes, cycles = run_passes(workload, ctx, seconds, outcome)
    if not cycles:
        return outcome, {}, {}, 0
    check_passes(passes, outcome)
    workload.finish(ctx, passes, outcome)
    gated = end_to_end(passes, setup_s)
    return outcome, gated, named_metrics(name, passes, gated, outcome), cycles


def measure_traced(name: str, seed: int, seconds: float, smoke: bool, workdir: Path, spans_out: Path):
    from tracing import Tracer, per_layer
    from workloads import Outcome, build, check_passes

    from repro.obs.metrics import global_registry

    workload = build(name, smoke)
    outcome = Outcome()
    ctx = workload.setup(seed, workdir)
    gc.collect()
    untraced, cycles = run_passes(workload, ctx, seconds / 2, outcome)
    tracer = Tracer()
    before = global_registry().counter_values()
    tracer.install()
    try:
        traced, traced_cycles = run_passes(workload, ctx, 0, outcome, tracer, cycles=cycles)
    finally:
        tracer.uninstall()
    after = global_registry().counter_values()
    passes = untraced + traced
    if passes:
        check_passes(passes, outcome)
        workload.finish(ctx, passes, outcome)
    if not cycles or traced_cycles != cycles:
        return outcome, {}, None
    tracer.write(spans_out)
    counters = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    overhead = cycle_wall_s(traced) - cycle_wall_s(untraced)
    metrics, top = per_layer(tracer, counters, traced, cycles, overhead)
    # Operation-latency percentiles did not repeat within the end-to-end
    # bounds, so they are reported here, from the untraced passes.
    samples = [sample for p in untraced for sample in p.op_ns]
    for q in (50, 90, 99):
        metrics[f"untraced.op_us_p{q}"] = (percentile_us(samples, q), "us")
    return outcome, metrics, top


# ------------------------------------------------------------------ output
def format_value(value: float) -> str:
    return f"{value:.6g}"


def print_table(title: str, metrics: Dict[str, Optional[Metric]]) -> None:
    print(title)
    if not metrics:
        print("  no pass completed")
        return
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        if metric is None:
            print(f"  {name:<{width}}  n/a (not in this workload's timed phase)")
        else:
            print(f"  {name:<{width}}  {format_value(metric[0])} {metric[1]}")


def result_line(outcome, metrics: Dict[str, Metric]) -> Dict[str, object]:
    return {
        "correct": outcome.failed == 0 and bool(metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_one(name: str, args, env) -> Dict[str, object]:
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = OUT / "spans" / f"{name}-seed{args.seed}.jsonl"
            outcome, metrics, top = measure_traced(
                name, args.seed, args.seconds, args.smoke, workdir, spans
            )
            print_table(f"{name}: per-layer metrics (per cycle, traced)", dict(metrics))
            if top is not None:
                print(f"  largest self-time span: {top[0]} ({format_value(top[1])} s per cycle)")
                print(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            outcome, metrics, table, cycles = measure(
                name, args.seed, args.seconds, args.smoke, workdir
            )
            print_table(f"{name}: end-to-end metrics ({cycles} cycles)", dict(metrics))
            print_table(f"{name}: the same run by per-workload metric names", table)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    result = result_line(outcome, metrics)
    with (OUT / "runs.jsonl").open("a", encoding="utf-8") as fh:
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "env": env,
            "result": result,
        }
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrink every workload to a seconds-long run (the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    results = {name: run_one(name, args, env) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
