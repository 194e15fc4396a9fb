"""Trace-driven multi-tenant cluster scheduler (the DeepPool cluster manager).

Public API:

* :class:`~repro.sched.scheduler.ClusterScheduler` /
  :class:`~repro.sched.scheduler.ScheduleResult` — the discrete-event
  scheduler and one run's outcome.
* :class:`~repro.sched.engine.SchedulerEngine` — the event-dispatch core
  one run is made of, shared by the offline ``run`` path and the online
  :class:`~repro.serve.service.SchedulerService` (incremental arrivals,
  virtual-clock ``advance_to``, in-flight ``cancel``).
* :mod:`~repro.sched.policies` — :class:`FIFOPolicy`,
  :class:`ShortestRemainingGPUSecondsPolicy`, and the DeepPool-style
  :class:`CollocationAwarePolicy` (registry: :data:`POLICIES` /
  :func:`get_policy`).
* :mod:`~repro.sched.traces` — :class:`TraceJob` plus the
  :func:`synthetic_trace` and :func:`alibaba_trace` generators.
* :mod:`~repro.sched.metrics` — :class:`JobRecord` and
  :class:`FleetMetrics` (JCT distribution, makespan, utilization, goodput,
  failure losses).
* :mod:`~repro.sched.fleet` — :class:`GpuPoolSpec` / :class:`ClusterFleet` /
  :class:`FleetPool`: heterogeneous fleets of named GPU pools mapped onto
  hosts.
* :mod:`~repro.sched.failures` — :class:`NodeFailure` /
  :class:`CheckpointModel` / :func:`inject_failures`: host failures and the
  checkpoint/restart cost model.
* :mod:`~repro.sched.events` — the :class:`EventQueue` primitives.
* :mod:`~repro.sched.snapshot` — :class:`EngineSnapshot`: crash-safe
  capture/restore of a live engine at any event boundary
  (``SchedulerEngine.snapshot()`` / ``.restore()``), fingerprint-exact.
"""

from .engine import SchedulerEngine
from .events import Event, EventKind, EventQueue, GpuPool
from .failures import CheckpointModel, NodeFailure, inject_failures, validate_failures
from .fleet import ClusterFleet, FleetPool, GpuPoolSpec
from .metrics import FleetMetrics, JobRecord, percentile
from .ordering import PendingQueue, SortedJobList
from .snapshot import SNAPSHOT_SCHEMA, EngineSnapshot
from .policies import (
    POLICIES,
    CollocationAwarePolicy,
    FIFOPolicy,
    SchedulingPolicy,
    ShortestRemainingGPUSecondsPolicy,
    floor_pow2,
    get_policy,
)
from .scheduler import ClusterScheduler, ScheduleResult
from .traces import TraceJob, alibaba_trace, mixed_trace, synthetic_trace

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "GpuPool",
    "GpuPoolSpec",
    "ClusterFleet",
    "FleetPool",
    "NodeFailure",
    "CheckpointModel",
    "inject_failures",
    "validate_failures",
    "PendingQueue",
    "SortedJobList",
    "FleetMetrics",
    "JobRecord",
    "percentile",
    "SchedulingPolicy",
    "FIFOPolicy",
    "ShortestRemainingGPUSecondsPolicy",
    "CollocationAwarePolicy",
    "POLICIES",
    "get_policy",
    "floor_pow2",
    "ClusterScheduler",
    "SchedulerEngine",
    "ScheduleResult",
    "EngineSnapshot",
    "SNAPSHOT_SCHEMA",
    "TraceJob",
    "synthetic_trace",
    "alibaba_trace",
    "mixed_trace",
]
