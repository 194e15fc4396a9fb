"""Training-plan data structures.

The planner's output is a :class:`TrainingPlan`: one :class:`LayerAssignment`
per layer recording how many GPUs the layer bursts to and the time it
contributes to the iteration.  DeepPool submits this plan as JSON to the
cluster coordinator (paper Figure 6); we keep the same JSON round-trip so the
cluster simulator consumes exactly what the planner emits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Tuple

__all__ = [
    "LayerAssignment",
    "TrainingPlan",
    "PlanOccupancy",
    "check_plan_fits",
    "stage_gpus",
    "plan_occupancy",
]


@dataclass(frozen=True)
class LayerAssignment:
    """Planned execution of one layer within an iteration.

    Attributes
    ----------
    layer_id:
        Layer id in the model graph.
    layer_name / op:
        Copied from the model graph for readability of serialized plans.
    num_gpus:
        Number of GPUs the layer is scaled to ("burst" width).
    compute_time:
        Forward+backward compute time at that width, seconds.
    sync_time:
        Gradient all-reduce time at that width, seconds.
    comm_time:
        Activation/gradient redistribution paid when transitioning *into*
        this layer from the previous one, seconds.
    parallel_branch:
        True when the layer belongs to a non-critical branch that the planner
        scheduled concurrently with the critical branch of its block; its
        time then does not add to the iteration's critical path.
    """

    layer_id: int
    layer_name: str
    op: str
    num_gpus: int
    compute_time: float
    sync_time: float = 0.0
    comm_time: float = 0.0
    parallel_branch: bool = False

    @property
    def stage_time(self) -> float:
        """Time this layer occupies on its assigned GPUs."""
        return self.compute_time + self.sync_time + self.comm_time

    @property
    def gpu_seconds(self) -> float:
        """Aggregate GPU time consumed by the layer (GPU-sec)."""
        return self.stage_time * self.num_gpus


@dataclass
class TrainingPlan:
    """A complete burst-parallel execution plan for one training iteration."""

    model_name: str
    global_batch: int
    total_gpus: int
    amplification_limit: float
    assignments: List[LayerAssignment] = field(default_factory=list)
    iteration_time: float = 0.0
    search_time: float = 0.0

    # ------------------------------------------------------------- aggregates
    def assignment_for(self, layer_id: int) -> LayerAssignment:
        for a in self.assignments:
            if a.layer_id == layer_id:
                return a
        raise KeyError(f"no assignment for layer {layer_id}")

    def gpu_assignment_map(self) -> Dict[int, int]:
        """Mapping of layer id to assigned GPU count."""
        return {a.layer_id: a.num_gpus for a in self.assignments}

    def max_gpus_used(self) -> int:
        """Widest burst in the plan."""
        return max((a.num_gpus for a in self.assignments), default=0)

    def total_gpu_seconds(self) -> float:
        """GPU-seconds consumed by one iteration of the plan."""
        return sum(a.gpu_seconds for a in self.assignments)

    def critical_path_time(self) -> float:
        """Sum of stage times on the critical path (excludes parallel branches)."""
        return sum(a.stage_time for a in self.assignments if not a.parallel_branch)

    def amplification(self, single_gpu_iteration_time: float) -> float:
        """Plan-level GPU-sec amplification relative to single-GPU execution."""
        if single_gpu_iteration_time <= 0:
            raise ValueError("single_gpu_iteration_time must be positive")
        return self.total_gpu_seconds() / single_gpu_iteration_time

    def average_gpus_busy(self) -> float:
        """Average number of GPUs busy over the iteration.

        The difference between this value and ``total_gpus`` is the capacity
        burst parallelism frees up for background jobs.
        """
        if self.iteration_time <= 0:
            return 0.0
        return self.total_gpu_seconds() / self.iteration_time

    def idle_gpu_fraction(self) -> float:
        """Fraction of the cluster's GPU-time left idle by the foreground job."""
        if self.total_gpus <= 0 or self.iteration_time <= 0:
            return 0.0
        busy = self.total_gpu_seconds() / (self.total_gpus * self.iteration_time)
        return max(0.0, 1.0 - busy)

    def is_pure_data_parallel(self) -> bool:
        """True when every layer uses the same GPU count (no bursting)."""
        widths = {a.num_gpus for a in self.assignments}
        return len(widths) == 1

    # ---------------------------------------------------------------- serdes
    def to_dict(self) -> Dict:
        return {
            "model_name": self.model_name,
            "global_batch": self.global_batch,
            "total_gpus": self.total_gpus,
            "amplification_limit": self.amplification_limit,
            "iteration_time": self.iteration_time,
            "search_time": self.search_time,
            "assignments": [asdict(a) for a in self.assignments],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize the plan the way DeepPool submits it to the coordinator."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrainingPlan":
        assignments = [LayerAssignment(**a) for a in data["assignments"]]
        return cls(
            model_name=data["model_name"],
            global_batch=int(data["global_batch"]),
            total_gpus=int(data["total_gpus"]),
            amplification_limit=float(data["amplification_limit"]),
            assignments=assignments,
            iteration_time=float(data["iteration_time"]),
            search_time=float(data.get("search_time", 0.0)),
        )

    @classmethod
    def from_json(cls, payload: str) -> "TrainingPlan":
        return cls.from_dict(json.loads(payload))

    # --------------------------------------------------------------- reporting
    def summary(self) -> str:
        """Human-readable plan summary (one line per distinct burst width run)."""
        lines = [
            f"TrainingPlan for {self.model_name}: global_batch={self.global_batch}, "
            f"gpus={self.total_gpus}, amp_limit={self.amplification_limit:g}",
            f"  iteration_time={self.iteration_time * 1e3:.3f} ms, "
            f"gpu_seconds={self.total_gpu_seconds() * 1e3:.3f} ms, "
            f"avg_busy_gpus={self.average_gpus_busy():.2f}",
        ]
        # Collapse consecutive layers with the same width into runs.
        run_start = 0
        assignments = self.assignments
        for i in range(1, len(assignments) + 1):
            end_of_run = (
                i == len(assignments)
                or assignments[i].num_gpus != assignments[run_start].num_gpus
            )
            if end_of_run:
                first, last = assignments[run_start], assignments[i - 1]
                span = (
                    first.layer_name
                    if first is last
                    else f"{first.layer_name} .. {last.layer_name}"
                )
                total = sum(a.stage_time for a in assignments[run_start:i])
                lines.append(
                    f"  [{first.num_gpus:>3d} GPU] {span}  ({total * 1e3:.3f} ms)"
                )
                run_start = i
        return "\n".join(lines)


# ---------------------------------------------------------------- placement
def check_plan_fits(plan: TrainingPlan, num_gpus: int) -> None:
    """Reject a plan whose widest burst needs more than ``num_gpus`` GPUs."""
    if plan.max_gpus_used() > num_gpus:
        raise ValueError(
            f"plan requires {plan.max_gpus_used()} GPUs but the cluster has "
            f"{num_gpus}"
        )


def stage_gpus(assignment: LayerAssignment, num_gpus: int) -> range:
    """GPU indices one stage runs on when its plan is placed on ``num_gpus``.

    A stage scaled to ``w`` GPUs runs on GPUs ``0 .. w-1`` ("bursting"
    always grows from the same base set), while a concurrent non-critical
    branch uses the top of the GPU range.  The branch runs at the same time
    as its block's critical branch (which grows from GPU 0), so a branch as
    wide as the cluster necessarily overlaps it and the same GPU would be
    assigned twice for the same time slot.  Narrower overlaps cannot be
    detected here: the serialized plan does not record which non-branch
    stages belong to the same block, and stages of *other* blocks
    legitimately share GPUs with this branch (they run at different times).
    The planner itself guarantees per-block disjointness.
    """
    width = assignment.num_gpus
    if not assignment.parallel_branch:
        return range(0, width)
    if width >= num_gpus:
        raise ValueError(
            f"parallel branch layer {assignment.layer_name!r} uses "
            f"{width} GPUs, which would overlap the critical-path "
            f"GPU range on a {num_gpus}-GPU cluster; "
            "concurrent branches must leave room for the critical "
            "branch"
        )
    return range(num_gpus - width, num_gpus)


class PlanOccupancy(NamedTuple):
    """What one iteration of a placed plan costs each of its GPUs."""

    #: Per-GPU fraction of the iteration spent on foreground stages.
    busy_fractions: Tuple[float, ...]
    #: GPU-seconds one iteration consumes (``TrainingPlan.total_gpu_seconds``).
    gpu_seconds: float


def plan_occupancy(plan: TrainingPlan) -> PlanOccupancy:
    """Per-GPU busy fractions and GPU-seconds of a plan on its own GPUs.

    A pure function of the plan: the plan is placed on ``plan.total_gpus``
    GPUs by :func:`stage_gpus` and each GPU's stage times are summed in
    assignment order, so the result is bit-identical to
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.place_plan`
    followed by ``busy_fractions(plan.iteration_time)`` — and raises the
    same ``ValueError`` for plans that do not fit.
    """
    num_gpus = plan.total_gpus
    if num_gpus < 1:
        raise ValueError("num_gpus must be at least 1")
    check_plan_fits(plan, num_gpus)
    busy = [0.0] * num_gpus
    for assignment in plan.assignments:
        stage_time = assignment.stage_time
        for gpu_id in stage_gpus(assignment, num_gpus):
            busy[gpu_id] += stage_time
    iteration_time = plan.iteration_time
    if iteration_time <= 0:
        fractions = (0.0,) * num_gpus
    else:
        fractions = tuple(min(1.0, b / iteration_time) for b in busy)
    return PlanOccupancy(fractions, plan.total_gpu_seconds())
