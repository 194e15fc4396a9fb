"""Cluster coordinator: placing a training plan onto GPU runtimes.

The coordinator receives the planner's JSON training plan and places each
stage on a subset of GPUs (paper Figure 6).  The placement policy mirrors the
prototype's simple strategy: a stage scaled to ``w`` GPUs runs on GPUs
``0 .. w-1`` ("bursting" always grows from the same base set), while
non-critical branches that the planner scheduled concurrently are pushed onto
the highest-numbered GPUs so they do not contend with the critical path.
Complex alignments (interleaving the gaps of two burst-parallel jobs) are not
supported, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..core.planner.plan import TrainingPlan, check_plan_fits, stage_gpus
from .job import TrainingJob
from .runtime import GPURuntime

__all__ = ["ClusterCoordinator"]


@dataclass
class ClusterCoordinator:
    """Manages the cluster's GPU runtimes and job placement."""

    num_gpus: int
    runtimes: List[GPURuntime] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be at least 1")
        if not self.runtimes:
            self.runtimes = [GPURuntime(gpu_id=i) for i in range(self.num_gpus)]
        if len(self.runtimes) != self.num_gpus:
            raise ValueError("runtimes list does not match num_gpus")

    # -------------------------------------------------------------- placement
    def place_plan(self, plan: Union[TrainingPlan, str]) -> List[GPURuntime]:
        """Place a foreground training plan (object or JSON) onto the GPUs.

        Returns the runtimes with their per-iteration foreground busy time
        populated.  Raises if the plan needs more GPUs than the cluster has.
        """
        if isinstance(plan, str):
            plan = TrainingPlan.from_json(plan)
        check_plan_fits(plan, self.num_gpus)
        for runtime in self.runtimes:
            runtime.foreground_busy_time = 0.0
            runtime.foreground_assignments = []
        for assignment in plan.assignments:
            for gpu_id in stage_gpus(assignment, self.num_gpus):
                self.runtimes[gpu_id].assign_stage(assignment)
        return self.runtimes

    def place_background(self, job: TrainingJob, gpu_ids: Optional[List[int]] = None) -> None:
        """Attach a background job to every GPU (or to an explicit subset)."""
        targets = gpu_ids if gpu_ids is not None else list(range(self.num_gpus))
        for gpu_id in targets:
            self.runtimes[gpu_id].attach_background(job)

    # ---------------------------------------------------------------- queries
    def busy_fractions(self, iteration_time: float) -> List[float]:
        """Per-GPU foreground busy fraction for one iteration."""
        return [rt.busy_fraction(iteration_time) for rt in self.runtimes]

    def average_busy_fraction(self, iteration_time: float) -> float:
        fractions = self.busy_fractions(iteration_time)
        return sum(fractions) / len(fractions) if fractions else 0.0

    def idle_gpu_seconds(self, iteration_time: float) -> float:
        """Total idle GPU-seconds per iteration across the cluster."""
        return sum(
            rt.idle_fraction(iteration_time) * iteration_time for rt in self.runtimes
        )
