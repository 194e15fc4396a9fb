"""Burst-parallel training planner (the paper's Section 4).

Public API:

* :class:`~repro.core.planner.planner.BurstParallelPlanner` — produce burst
  parallel, data-parallel, and single-GPU training plans.
* :class:`~repro.core.planner.plan.TrainingPlan` /
  :class:`~repro.core.planner.plan.LayerAssignment` — the plan artifact
  (JSON-serializable, consumed by the cluster simulator);
  :func:`~repro.core.planner.plan.plan_occupancy` derives a plan's per-GPU
  busy fractions and GPU-seconds.
* :class:`~repro.core.planner.costs.PlannerCostModel` — the
  ``comp``/``sync``/``comm`` cost inputs.
* :func:`~repro.core.planner.linear_search.solve_chain` — Algorithm 1.
* :func:`~repro.core.planner.graph_reduction.build_chain_nodes` — the
  multi-chain graph reduction (Figure 7).

A search is cheap enough to run online, one job at a time (the paper's
Section 7.4); the cluster scheduler plans inline and caches every plan it
installs.
"""

from .costs import PlannerCostModel, candidate_gpu_counts
from .graph_reduction import BlockNode, LayerNode, build_chain_nodes
from .linear_search import ChainSolution, NodeDecision, solve_chain
from .plan import LayerAssignment, PlanOccupancy, TrainingPlan, plan_occupancy
from .planner import BurstParallelPlanner, PlannerConfig

__all__ = [
    "BurstParallelPlanner",
    "PlannerConfig",
    "TrainingPlan",
    "LayerAssignment",
    "PlanOccupancy",
    "plan_occupancy",
    "PlannerCostModel",
    "candidate_gpu_counts",
    "solve_chain",
    "ChainSolution",
    "NodeDecision",
    "build_chain_nodes",
    "BlockNode",
    "LayerNode",
]
