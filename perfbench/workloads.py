"""The benchmark's four workloads, driven through the public API only.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
``setup_s``) as a list of independent *units*: replay segments, single
searches or service sessions.  A *pass* runs one unit; the measuring window
cycles through every unit until it closes, so each unit is timed several
times.  Every pass returns a :class:`PassResult`; the correctness checks in
:func:`check_passes` and the workloads' own ``finish`` hooks turn wrong
outputs into failed operations.

Load always comes from this one process: no planner worker pool, no sharded
replay, and a single asyncio caller for the service.
"""

from __future__ import annotations

import asyncio
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.cache import fingerprint
from repro.core.planner.planner import BurstParallelPlanner, PlannerConfig
from repro.models.registry import available_models, build_model, model_entry
from repro.network.fabric import get_fabric
from repro.profiler.gpu_spec import get_gpu_spec
from repro.profiler.layer_profiler import LayerProfiler
from repro.sched import (
    CheckpointModel,
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    SchedulerEngine,
    inject_failures,
    mixed_trace,
)
from repro.serve import (
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    recover_service,
    result_fingerprint,
)

POLICY = "collocation"


@dataclass
class Outcome:
    """Operations attempted and failed across a run (``error_ratio``)."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, operations: int, failed: int = 0, why: str = "") -> None:
        self.attempted += operations
        self.failed += failed
        if failed:
            self.errors.append(f"{failed}/{operations} failed: {why}")


@dataclass
class PassResult:
    """One pass over one unit of a workload's inputs."""

    wall_s: float
    #: Jobs that reached a terminal state (plan-cold: jobs planned).
    jobs: int
    #: Operations this pass made (jobs replayed, searches, submissions).
    operations: int
    #: Per-operation latency samples in ns: engine steps, searches, submits.
    op_ns: List[int]
    fingerprint: str
    sim_mean_jct_s: float
    sim_utilization: float
    #: Operations a correctness check failed inside the pass.
    failed: int = 0
    why: str = ""
    #: Index of the unit this pass ran.
    unit: int = 0
    #: CPU time of this process over the same interval as ``wall_s``.  It
    #: leaves out time the hypervisor gave to other guests and I/O waits.
    cpu_s: float = 0.0
    #: CPU time of the operations in ``op_ns``, summed.
    op_cpu_s: float = 0.0
    #: The host's slowdown around this pass: reference-loop CPU time over
    #: its nominal time (see ``run.py``); 1.0 on a host at nominal speed.
    host_scale: float = 1.0


def check_passes(passes: Sequence[PassResult], outcome: Outcome) -> None:
    """Count each pass's operations; a pass whose fingerprint differs fails.

    Every pass of a unit replays the same inputs, so every fingerprint must
    equal that of the unit's first pass.  A pass that disagrees has all of
    its operations counted as failed, whatever its own checks said.
    """
    references: Dict[int, str] = {}
    for result in passes:
        reference = references.setdefault(result.unit, result.fingerprint)
        if result.fingerprint != reference:
            outcome.record(
                result.operations,
                result.operations,
                f"fingerprint {result.fingerprint[:12]} != {reference[:12]}",
            )
        else:
            outcome.record(result.operations, result.failed, result.why)


def _fleet(pools: Sequence[tuple]) -> ClusterFleet:
    return ClusterFleet(
        tuple(
            GpuPoolSpec(name, get_gpu_spec(name), gpus, 8) for name, gpus in pools
        )
    )


def gpus_conserved(engine: SchedulerEngine) -> bool:
    """Free plus down GPUs are exactly the fleet, each GPU once."""
    free = engine.free.free_ids()
    down = engine.free.down_ids()
    fleet = range(engine.scheduler.fleet.num_gpus)
    return len(free) + len(down) == len(fleet) and set(free) | set(down) == set(fleet)


# ---------------------------------------------------------------- replays
@dataclass
class ReplaySize:
    pools: tuple
    #: Independent traces, one unit each.  Averaging over several traces
    #: keeps one heavy-tailed job from deciding a seed.
    segments: int
    jobs: int  # per segment
    rate: float  # multiple of mixed_trace's default arrival rate
    failures: int  # per segment
    synthetic_fraction: float = 0.5  # mixed_trace's share of Poisson-tenant jobs


class Replay:
    """Offline trace replay on a heterogeneous fleet, step by step."""

    def __init__(self, name: str, size: ReplaySize) -> None:
        self.name = name
        self.size = size

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        size = self.size
        fleet = _fleet(size.pools)
        rng = random.Random(seed)
        segments = []
        for _ in range(size.segments):
            segment_seed = rng.randrange(2**31)
            jobs = mixed_trace(
                size.jobs,
                seed=segment_seed,
                synthetic_fraction=size.synthetic_fraction,
                arrival_rate=0.8 * size.rate,
                mean_interarrival=1.5 / size.rate,
            )
            span = jobs[-1].arrival_time
            failures = inject_failures(
                fleet,
                size.failures,
                seed=segment_seed,
                window=(0.1 * span, 0.9 * span),
                mean_downtime=60.0,
            )
            segments.append((jobs, failures))
        scheduler = ClusterScheduler(fleet, checkpoint=CheckpointModel(120.0, 15.0))
        scheduler.prewarm_plans([job for jobs, _ in segments for job in jobs])
        return {
            "units": segments,
            "scheduler": scheduler,
            "operations": [len(jobs) for jobs, _ in segments],
        }

    def run_pass(self, ctx: Dict[str, Any], unit: int, tracer=None) -> PassResult:
        jobs, failures = ctx["units"][unit]
        clock = time.perf_counter_ns
        cpu = time.process_time()
        start = clock()
        steps: List[int] = []
        engine = SchedulerEngine(ctx["scheduler"], POLICY)
        for job in jobs:
            engine.add_job(job)
        engine.add_failures(failures)
        queue = engine.queue
        cpu_clock = time.process_time_ns
        op_cpu = 0
        while queue:
            if tracer is not None:
                tracer.request = (unit, len(steps))
            began = clock()
            began_cpu = cpu_clock()
            engine.step()
            op_cpu += cpu_clock() - began_cpu
            steps.append(clock() - began)
        result = engine.result(require_complete=False)
        wall = (clock() - start) / 1e9
        cpu = time.process_time() - cpu
        failed, why = 0, ""
        unfinished = len(engine.unfinished())
        if not gpus_conserved(engine):
            failed, why = len(jobs), "GPU conservation violated"
        elif unfinished:
            failed, why = unfinished, "jobs never reached a terminal state"
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            op_cpu_s=op_cpu / 1e9,
            jobs=result.metrics.num_jobs,
            operations=len(jobs),
            op_ns=steps,
            fingerprint=result_fingerprint(result),
            sim_mean_jct_s=result.metrics.mean_jct,
            sim_utilization=result.metrics.utilization,
            failed=failed,
            why=why,
            unit=unit,
        )

    def finish(self, ctx, passes, outcome: Outcome) -> None:
        pass


# -------------------------------------------------------------- plan-cold
@dataclass
class PlanSize:
    models: tuple
    gpus: tuple
    budgets: tuple
    #: (low, high) ranges; every cell is planned once per range, at a limit
    #: drawn uniformly from it, so seeds vary the inputs but not the mix.
    amplification_ranges: tuple


#: Iterations of the job each plan-cold search plans; its simulated JCT is
#: this many iterations at the plan's iteration time on an idle cluster.
PLANNED_ITERATIONS = 1000


class PlanCold:
    """Cold burst-parallel searches: fresh profiler and planner every time.

    Each search is a unit of its own.
    """

    name = "plan-cold"

    def __init__(self, size: PlanSize) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        size = self.size
        rng = random.Random(seed)
        cells = [
            (model, gpu, budget, rng.uniform(low, high))
            for model in size.models
            for gpu in size.gpus
            for budget in size.budgets
            for low, high in size.amplification_ranges
        ]
        rng.shuffle(cells)
        return {
            "units": cells,
            "operations": [1] * len(cells),
            "graphs": {model: build_model(model) for model in size.models},
            "specs": {gpu: get_gpu_spec(gpu) for gpu in size.gpus},
            "fabric": get_fabric("nvswitch"),
        }

    def run_pass(self, ctx: Dict[str, Any], unit: int, tracer=None) -> PassResult:
        model, gpu, budget, amp = ctx["units"][unit]
        if tracer is not None:
            tracer.request = unit
        batch = max(model_entry(model).default_global_batch, budget)
        clock = time.perf_counter_ns
        cpu = time.process_time()
        start = clock()
        planner = BurstParallelPlanner(
            ctx["fabric"],
            LayerProfiler(gpu=ctx["specs"][gpu]),
            PlannerConfig(amplification_limit=amp),
        )
        plan = planner.plan(ctx["graphs"][model], batch, budget)
        search = clock() - start
        cpu = time.process_time() - cpu
        if not plan_is_valid(plan, budget):
            return PassResult(
                wall_s=search / 1e9, cpu_s=cpu, op_cpu_s=cpu, jobs=0, operations=1, op_ns=[search],
                fingerprint="invalid", sim_mean_jct_s=0.0, sim_utilization=0.0,
                failed=1, why=f"invalid plan for {model}/{gpu}/{budget}", unit=unit,
            )
        output = [model, gpu, budget, amp, plan.iteration_time,
                  [a.num_gpus for a in plan.assignments]]
        return PassResult(
            wall_s=search / 1e9,
            cpu_s=cpu,
            op_cpu_s=cpu,
            jobs=1,
            operations=1,
            op_ns=[search],
            fingerprint=fingerprint("perfbench-plan-cold", output),
            sim_mean_jct_s=PLANNED_ITERATIONS * plan.iteration_time,
            sim_utilization=plan.total_gpu_seconds()
            / (plan.iteration_time * plan.total_gpus),
            unit=unit,
        )

    def finish(self, ctx, passes, outcome: Outcome) -> None:
        pass


def plan_is_valid(plan, budget: int) -> bool:
    """GPUs within the budget and a finite, positive iteration time."""
    return (
        1 <= plan.total_gpus <= budget
        and all(1 <= a.num_gpus <= budget for a in plan.assignments)
        and math.isfinite(plan.iteration_time)
        and plan.iteration_time > 0
    )


# ---------------------------------------------------------- serve-durable
@dataclass
class ServeSize:
    gpus: int
    #: Independent service sessions, one unit each, each on its own trace.
    sessions: int
    jobs: int  # per session
    synthetic_fraction: float
    quota_gpu_seconds: float
    max_pending: int
    snapshot_every: int
    query_every: int
    cancel_every: int


#: A cancel targets the job submitted this many submissions earlier.
CANCEL_LAG = 5


class ServeDurable:
    """Journaled service with snapshots, quotas and one closed-loop caller."""

    name = "serve-durable"

    def __init__(self, size: ServeSize) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        rng = random.Random(seed)
        sessions = [
            mixed_trace(
                self.size.jobs,
                seed=rng.randrange(2**31),
                synthetic_fraction=self.size.synthetic_fraction,
            )
            for _ in range(self.size.sessions)
        ]
        scheduler = ClusterScheduler(self.size.gpus)
        scheduler.prewarm_plans([job for jobs in sessions for job in jobs])
        return {
            "units": sessions,
            "scheduler": scheduler,
            "workdir": workdir,
            "passes": 0,
            #: Each unit's latest journal directory and live outcome.
            "journals": {},
            "live": {},
            "operations": [len(jobs) for jobs in sessions],
        }

    def _service(self, ctx, journal_dir: Optional[Path]) -> SchedulerService:
        admission = QuotaAdmission(
            default=TenantQuota(
                gpu_seconds=self.size.quota_gpu_seconds,
                max_pending=self.size.max_pending,
            )
        )
        if journal_dir is None:
            return SchedulerService(ctx["scheduler"], POLICY, admission=admission)
        return SchedulerService(
            ctx["scheduler"],
            POLICY,
            admission=admission,
            journal_dir=journal_dir,
            snapshot_every=self.size.snapshot_every,
        )

    def run_pass(self, ctx: Dict[str, Any], unit: int, tracer=None) -> PassResult:
        previous = ctx["journals"].get(unit)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        ctx["passes"] += 1
        journal_dir = ctx["workdir"] / f"journal-{unit}-{ctx['passes']}"
        shutil.rmtree(journal_dir, ignore_errors=True)
        ctx["journals"][unit] = journal_dir
        return asyncio.run(self._closed_loop(ctx, unit, journal_dir, tracer))

    async def _closed_loop(self, ctx, unit: int, journal_dir: Path, tracer) -> PassResult:
        size = self.size
        jobs = ctx["units"][unit]
        clock = time.perf_counter_ns
        cpu = time.process_time()
        start = clock()
        service = self._service(ctx, journal_dir)
        handles = []
        submits: List[int] = []
        cpu_clock = time.process_time_ns
        op_cpu = 0
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.request = (unit, index)
            await service.advance_to(job.arrival_time)
            began = clock()
            began_cpu = cpu_clock()
            handles.append(await service.submit(job))
            op_cpu += cpu_clock() - began_cpu
            submits.append(clock() - began)
            service.cluster_state()
            if index % size.query_every == 0:
                service.query(job.name)
            if index % size.cancel_every == size.cancel_every - 1:
                await service.cancel(jobs[index - CANCEL_LAG].name)
        await service.drain()
        result = service.result()
        ledgers = service.cluster_state()["tenants"]
        await service.close()
        wall = (clock() - start) / 1e9
        cpu = time.process_time() - cpu
        done = sum(1 for handle in handles if handle.done())
        failed, why = 0, ""
        if done != len(handles):
            failed, why = len(handles) - done, "submissions never reached a terminal state"
        live = fingerprint("perfbench-serve", result_fingerprint(result), ledgers)
        ctx["live"][unit] = (result_fingerprint(result), ledgers)
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            op_cpu_s=op_cpu / 1e9,
            jobs=done,
            operations=len(handles),
            op_ns=submits,
            fingerprint=live,
            sim_mean_jct_s=result.metrics.mean_jct,
            sim_utilization=result.metrics.utilization,
            failed=failed,
            why=why,
            unit=unit,
        )

    def finish(self, ctx, passes, outcome: Outcome) -> None:
        """Recover each unit's last pass from its journal; it must match the live run."""
        for unit, journal_dir in sorted(ctx["journals"].items()):
            live_fp, live_ledgers = ctx["live"][unit]
            try:
                recovered_fp, recovered_ledgers = asyncio.run(self._recover(ctx, journal_dir))
            except Exception as exc:  # a failed recovery is a failed check
                recovered_fp, recovered_ledgers = f"recovery raised {exc!r}", None
            operations = ctx["operations"][unit]
            failed = 0
            if recovered_fp != live_fp or recovered_ledgers != live_ledgers:
                failed = operations
            outcome.record(
                operations,
                failed,
                f"recovery of unit {unit} does not reproduce the live run ({recovered_fp[:40]})",
            )

    async def _recover(self, ctx, journal_dir: Path):
        service, _report = recover_service(
            lambda: self._service(ctx, None), journal_dir
        )
        await service.drain()
        fp = result_fingerprint(service.result())
        ledgers = service.cluster_state()["tenants"]
        await service.close()
        return fp, ledgers


# ------------------------------------------------------------------ sizes
def build(name: str, smoke: bool = False):
    """The named workload at full size, or shrunk for the benchmark's tests."""
    if name == "replay-idle":
        if smoke:
            return Replay(name, ReplaySize((("a100", 32), ("v100", 32)), 2, 30, 0.3, 1))
        return Replay(name, ReplaySize((("a100", 64), ("v100", 64)), 4, 2500, 0.075, 4))
    if name == "replay-saturated":
        if smoke:
            return Replay(name, ReplaySize((("a100", 16), ("v100", 16)), 2, 30, 4.0, 1, 0.95))
        return Replay(name, ReplaySize((("a100", 32), ("v100", 32)), 16, 300, 4.0, 2, 0.95))
    if name == "plan-cold":
        if smoke:
            return PlanCold(PlanSize(("vgg11", "vgg16"), ("a100", "v100"), (2,), ((1.5, 2.0),)))
        return PlanCold(
            PlanSize(
                tuple(available_models()), ("a100", "v100"), (2, 4, 8),
                ((1.45, 1.55), (2.4, 2.6)),
            )
        )
    if name == "serve-durable":
        if smoke:
            return ServeDurable(ServeSize(32, 2, 20, 0.9, 1e9, 4, 10, 4, 10))
        return ServeDurable(ServeSize(256, 6, 250, 0.95, 1e9, 32, 100, 4, 50))
    raise KeyError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")


WORKLOADS = ("replay-idle", "replay-saturated", "plan-cold", "serve-durable")
