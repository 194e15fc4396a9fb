"""Job-arrival traces for the multi-tenant cluster scheduler.

Three generators are provided, all fully deterministic under a seed:

* :func:`synthetic_trace` — Poisson arrivals over the evaluation model zoo,
  with a configurable share of single-GPU background jobs.  This is the
  workload the policy-comparison benchmark runs.
* :func:`alibaba_trace` — an Alibaba-PAI-style workload: the vast majority
  of jobs are small (short, narrow, mostly background/best-effort) while a
  small head of large foreground jobs dominates GPU demand, with log-normal
  job sizes and a diurnal arrival-rate modulation.
* :func:`mixed_trace` — both of the above interleaved on one timeline: the
  steady Poisson tenant mix sharing the cluster with the heavy-tailed
  diurnal tenant, which is the workload the cluster-scale ``sched_sim_xl``
  benchmark replays.

Neither generator needs the real cluster traces; they reproduce the shape
(arrival process, size skew, foreground/background mix) that the scheduling
policies are sensitive to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..cluster.job import JobKind, TrainingJob
from ..models.graph import ModelGraph

__all__ = ["TraceJob", "synthetic_trace", "alibaba_trace", "mixed_trace"]


@dataclass(frozen=True)
class TraceJob:
    """One job of an arrival trace.

    Attributes
    ----------
    name:
        Unique job name within the trace.
    model:
        Registry name of the model to train (see ``repro.models.registry``).
    global_batch:
        Global batch size (for background jobs: the single-GPU batch).
    arrival_time:
        Submission time in simulated seconds.
    iterations:
        Training-iteration budget; the job completes after this many
        iterations.
    kind:
        Foreground (distributed, planner-scheduled) or background
        (single-GPU, best-effort).
    amplification_limit:
        Inefficiency tolerance handed to the burst-parallel planner
        (foreground jobs only).
    max_gpus:
        Optional cap on the job's GPU width (defaults to the cluster size).
    """

    name: str
    model: str
    global_batch: int
    arrival_time: float
    iterations: int
    kind: JobKind = JobKind.FOREGROUND
    amplification_limit: float = 2.0
    max_gpus: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("arrival_time", "amplification_limit"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"job {self.name!r}: {name} must be finite, got {value!r}")
        if self.arrival_time < 0:
            raise ValueError(f"job {self.name!r}: arrival_time must be >= 0")
        if self.iterations < 1:
            raise ValueError(f"job {self.name!r}: iterations must be positive")
        if self.global_batch < 1:
            raise ValueError(f"job {self.name!r}: global_batch must be positive")
        if self.max_gpus is not None and self.max_gpus < 1:
            raise ValueError(f"job {self.name!r}: max_gpus must be positive")

    @property
    def is_foreground(self) -> bool:
        return self.kind is JobKind.FOREGROUND

    def with_arrival(
        self, arrival_time: float, name: Optional[str] = None
    ) -> "TraceJob":
        """Copy of this job submitted at a different time.

        Pass ``name`` when the copy coexists with the original in one run —
        a service resubmission reusing the old name would be rejected at
        submit (job names index live state), and silently reusing the old
        arrival for ordering would jump the queue.  See :meth:`resubmitted`.
        """
        if name is not None:
            return replace(self, arrival_time=arrival_time, name=name)
        return replace(self, arrival_time=arrival_time)

    def resubmitted(self, arrival_time: float, attempt: int = 1) -> "TraceJob":
        """Copy for cancel-then-resubmit through the service API.

        The copy is renamed ``<name>#<attempt>`` (fresh identity, so
        duplicate-name rejection never trips on the cancelled original) and
        re-stamped with the new ``arrival_time`` (fresh queue position, so
        the stale arrival can't leapfrog jobs submitted in between).
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base, _, _ = self.name.partition("#")
        return replace(
            self, arrival_time=arrival_time, name=f"{base}#{attempt}"
        )

    def to_training_job(self, graph: ModelGraph) -> TrainingJob:
        """The cluster-layer job description for this trace entry."""
        return TrainingJob(
            name=self.name,
            graph=graph,
            global_batch=self.global_batch,
            kind=self.kind,
            amplification_limit=(
                self.amplification_limit if self.is_foreground else None
            ),
        )


def _sorted_and_named(jobs: List[TraceJob]) -> List[TraceJob]:
    """Stable-sort a trace by arrival time (ties keep generation order)."""
    return sorted(jobs, key=lambda j: (j.arrival_time, j.name))


def synthetic_trace(
    num_jobs: int,
    seed: int = 0,
    arrival_rate: float = 0.8,
    models: Sequence[str] = ("vgg16", "resnet50"),
    bg_fraction: float = 0.35,
    fg_iterations: Tuple[int, int] = (300, 1500),
    bg_iterations: Tuple[int, int] = (500, 3000),
    bg_batches: Sequence[int] = (2, 4, 8),
    amplification_limits: Sequence[float] = (2.0,),
) -> List[TraceJob]:
    """Poisson-arrival synthetic trace over the evaluation model zoo.

    Interarrival gaps are exponential with rate ``arrival_rate`` (jobs per
    second); each job is background with probability ``bg_fraction``,
    otherwise a foreground job with an iteration budget drawn uniformly from
    ``fg_iterations``.  Identical seeds produce identical traces.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be positive")
    if not (0.0 <= bg_fraction <= 1.0):
        raise ValueError("bg_fraction must be in [0, 1]")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    from ..models.registry import model_entry  # deferred: registry builds lazily

    rng = random.Random(seed)
    jobs: List[TraceJob] = []
    clock = 0.0
    for i in range(num_jobs):
        clock += rng.expovariate(arrival_rate)
        model = rng.choice(list(models))
        if rng.random() < bg_fraction:
            jobs.append(
                TraceJob(
                    name=f"bg-{i:03d}",
                    model=model,
                    global_batch=rng.choice(list(bg_batches)),
                    arrival_time=clock,
                    iterations=rng.randint(*bg_iterations),
                    kind=JobKind.BACKGROUND,
                )
            )
        else:
            jobs.append(
                TraceJob(
                    name=f"fg-{i:03d}",
                    model=model,
                    global_batch=model_entry(model).default_global_batch,
                    arrival_time=clock,
                    iterations=rng.randint(*fg_iterations),
                    kind=JobKind.FOREGROUND,
                    amplification_limit=rng.choice(list(amplification_limits)),
                )
            )
    return _sorted_and_named(jobs)


def alibaba_trace(
    num_jobs: int,
    seed: int = 0,
    mean_interarrival: float = 1.5,
    models: Sequence[str] = ("vgg16", "resnet50"),
    small_fraction: float = 0.8,
    sigma: float = 1.0,
    small_iterations: int = 400,
    large_iterations: int = 1200,
    diurnal_period: float = 60.0,
) -> List[TraceJob]:
    """Alibaba-PAI-style heavy-tailed trace.

    Mirrors the published cluster-trace shape rather than the raw data:
    ~``small_fraction`` of jobs are small single-GPU best-effort jobs while a
    small head of wide foreground jobs carries most of the GPU demand;
    iteration budgets are log-normal (heavy tail), and the arrival rate is
    modulated by a deterministic diurnal wave of period ``diurnal_period``
    simulated seconds.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be positive")
    if not (0.0 <= small_fraction <= 1.0):
        raise ValueError("small_fraction must be in [0, 1]")
    from ..models.registry import model_entry

    rng = random.Random(seed)
    jobs: List[TraceJob] = []
    clock = 0.0
    for i in range(num_jobs):
        # Day/night modulation: gaps stretch up to ~2x in the trough.
        phase = 2.0 * math.pi * clock / diurnal_period
        modulation = 1.5 - 0.5 * math.sin(phase)
        clock += rng.expovariate(1.0 / (mean_interarrival * modulation))
        model = rng.choice(list(models))
        if rng.random() < small_fraction:
            iterations = max(1, int(small_iterations * rng.lognormvariate(0.0, sigma)))
            jobs.append(
                TraceJob(
                    name=f"small-{i:03d}",
                    model=model,
                    global_batch=rng.choice((2, 4)),
                    arrival_time=clock,
                    iterations=iterations,
                    kind=JobKind.BACKGROUND,
                )
            )
        else:
            iterations = max(1, int(large_iterations * rng.lognormvariate(0.0, sigma)))
            jobs.append(
                TraceJob(
                    name=f"large-{i:03d}",
                    model=model,
                    global_batch=model_entry(model).default_global_batch,
                    arrival_time=clock,
                    iterations=iterations,
                    kind=JobKind.FOREGROUND,
                    amplification_limit=2.0,
                )
            )
    return _sorted_and_named(jobs)


def mixed_trace(
    num_jobs: int,
    seed: int = 0,
    synthetic_fraction: float = 0.5,
    arrival_rate: float = 0.8,
    mean_interarrival: float = 1.5,
    models: Sequence[str] = ("vgg16", "resnet50"),
) -> List[TraceJob]:
    """Synthetic and Alibaba-style tenants interleaved on one timeline.

    ``synthetic_fraction`` of the jobs come from :func:`synthetic_trace`
    (steady Poisson mix) and the rest from :func:`alibaba_trace`
    (heavy-tailed, diurnal); job names are prefixed by tenant so the merged
    trace keeps unique names, and the merge is re-sorted by arrival time.
    This is the cluster-scale workload ``sched_sim_xl`` replays: neither
    tenant alone exercises both a deep steady queue and bursty wide jobs.
    """
    if num_jobs < 2:
        raise ValueError("mixed_trace needs at least 2 jobs (one per tenant)")
    if not (0.0 < synthetic_fraction < 1.0):
        raise ValueError("synthetic_fraction must be strictly between 0 and 1")
    num_synthetic = max(1, min(num_jobs - 1, round(num_jobs * synthetic_fraction)))
    synthetic = synthetic_trace(
        num_synthetic, seed=seed, arrival_rate=arrival_rate, models=models
    )
    alibaba = alibaba_trace(
        num_jobs - num_synthetic,
        seed=seed + 1,
        mean_interarrival=mean_interarrival,
        models=models,
    )
    jobs = [replace(job, name=f"syn-{job.name}") for job in synthetic]
    jobs += [replace(job, name=f"ali-{job.name}") for job in alibaba]
    return _sorted_and_named(jobs)
