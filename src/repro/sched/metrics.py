"""Fleet-level metrics for trace-driven scheduler runs.

The scheduler reduces a whole simulation to one :class:`JobRecord` per
completed job and one :class:`FleetMetrics` summary per run:

* job-completion-time (JCT) distribution — mean / median / p95 / max;
* makespan — time from the first arrival to the last completion;
* cluster utilization — busy GPU-seconds over ``num_gpus * makespan``,
  counting only useful work (foreground stage time, background compute);
* foreground / background goodput — completed training samples per second
  of makespan, split by job class.

Both dataclasses are frozen so two runs can be compared with ``==`` when
asserting determinism under a fixed trace seed.

``FleetMetrics.compute`` sums each float field in record order and keeps
the exact counts (samples, preemptions, replans, restarts) as integers, so
the same records always give a bit-identical summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..cluster.job import JobKind

__all__ = ["JobRecord", "FleetMetrics", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) without numpy."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    frac = rank - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle summary of one completed job.

    Attributes
    ----------
    name / model / kind:
        Job identity (kind distinguishes foreground from background).
    arrival_time / start_time / finish_time:
        Submission, first placement, and completion times (seconds).
    iterations / global_batch:
        Work completed: ``iterations * global_batch`` training samples.
    width:
        GPU width at completion (1 for background jobs).
    busy_gpu_seconds:
        GPU-seconds of useful compute the job performed.
    allocated_gpu_seconds:
        GPU-seconds of capacity dedicated to the job (zero while a
        background job rides collocated on foreground GPUs).
    preemptions / replans:
        Times the job was preempted off its GPUs / re-planned to a new width.
    gpu_pool:
        Name of the fleet pool the job completed on (empty when the
        scheduler predates fleets, e.g. records built by hand in tests).
    restarts:
        Times a node failure killed the job and forced a restart.
    lost_gpu_seconds:
        Useful GPU-seconds rolled back by failures (work since the last
        checkpoint, re-done after each restart).
    """

    name: str
    model: str
    kind: JobKind
    arrival_time: float
    start_time: float
    finish_time: float
    iterations: int
    global_batch: int
    width: int
    busy_gpu_seconds: float
    allocated_gpu_seconds: float
    preemptions: int = 0
    replans: int = 0
    gpu_pool: str = ""
    restarts: int = 0
    lost_gpu_seconds: float = 0.0

    @property
    def jct(self) -> float:
        """Job completion time: finish minus arrival."""
        return self.finish_time - self.arrival_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting before the first placement."""
        return self.start_time - self.arrival_time

    @property
    def samples(self) -> int:
        """Training samples processed over the job's lifetime."""
        return self.iterations * self.global_batch

    @property
    def is_foreground(self) -> bool:
        return self.kind is JobKind.FOREGROUND


@dataclass(frozen=True)
class FleetMetrics:
    """Aggregate outcome of one scheduler run."""

    num_gpus: int
    num_jobs: int
    makespan: float
    mean_jct: float
    median_jct: float
    p95_jct: float
    max_jct: float
    mean_queue_delay: float
    utilization: float
    fg_goodput: float
    bg_goodput: float
    preemptions: int
    replans: int
    restarts: int = 0
    lost_gpu_seconds: float = 0.0

    @property
    def total_goodput(self) -> float:
        return self.fg_goodput + self.bg_goodput

    @classmethod
    def compute(
        cls, records: Sequence[JobRecord], num_gpus: int, makespan: float
    ) -> "FleetMetrics":
        """Summarize a run from its completed-job records.

        Zero completed jobs (a partial or aborted replay, or a sampler
        summarizing mid-run) is a valid input: the result is an all-zero
        metrics object with ``num_jobs=0`` — never an exception.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if not records:
            return cls(
                num_gpus=num_gpus,
                num_jobs=0,
                makespan=makespan,
                mean_jct=0.0,
                median_jct=0.0,
                p95_jct=0.0,
                max_jct=0.0,
                mean_queue_delay=0.0,
                utilization=0.0,
                fg_goodput=0.0,
                bg_goodput=0.0,
                preemptions=0,
                replans=0,
                restarts=0,
                lost_gpu_seconds=0.0,
            )
        # Float columns are summed with built-in ``sum`` in record order and
        # the exact counts as integer running totals, so a given record
        # sequence always yields a bit-identical metrics object.
        jcts: List[float] = []
        queue_delays: List[float] = []
        busy: List[float] = []
        lost: List[float] = []
        fg_samples = bg_samples = preemptions = replans = restarts = 0
        for record in records:
            jcts.append(record.finish_time - record.arrival_time)
            queue_delays.append(record.start_time - record.arrival_time)
            busy.append(record.busy_gpu_seconds)
            lost.append(record.lost_gpu_seconds)
            if record.kind is JobKind.FOREGROUND:
                fg_samples += record.iterations * record.global_batch
            else:
                bg_samples += record.iterations * record.global_batch
            preemptions += record.preemptions
            replans += record.replans
            restarts += record.restarts
        span = max(makespan, 1e-12)
        return cls(
            num_gpus=num_gpus,
            num_jobs=len(jcts),
            makespan=makespan,
            mean_jct=sum(jcts) / len(jcts),
            median_jct=percentile(jcts, 50.0),
            p95_jct=percentile(jcts, 95.0),
            max_jct=max(jcts),
            mean_queue_delay=sum(queue_delays) / len(jcts),
            utilization=min(1.0, sum(busy) / (num_gpus * span)),
            fg_goodput=fg_samples / span,
            bg_goodput=bg_samples / span,
            preemptions=preemptions,
            replans=replans,
            restarts=restarts,
            lost_gpu_seconds=sum(lost),
        )
