"""Failure injection and checkpoint/restart cost modeling for the scheduler.

Clusters lose nodes.  A :class:`NodeFailure` takes one host (and every GPU on
it) down for a duration; the scheduler turns each one into a pair of
``NODE_FAILURE`` / ``NODE_RECOVERY`` events on the simulation timeline.  Jobs
touching a failed host are killed and re-queued, rolling their progress back
to the last checkpoint under a :class:`CheckpointModel`:

* work since the last checkpoint is **lost** (subtracted from the job's
  useful GPU-seconds and accounted as ``lost_gpu_seconds``);
* the restart pays ``restart_overhead_s`` of dead time on its next
  placement before any iteration progresses;
* collocated guests of a killed foreground job are evicted and re-queued —
  with a rollback of their own only when their specific GPU was on the
  failed host (a guest on a surviving GPU merely loses its slot).

:func:`inject_failures` generates deterministic failure schedules (seeded,
non-overlapping per host) so benchmark scenarios can replay identical
failure storms run after run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..obs.metrics import global_registry
from .fleet import ClusterFleet

__all__ = ["NodeFailure", "CheckpointModel", "inject_failures", "validate_failures"]


@dataclass(frozen=True)
class NodeFailure:
    """One host going down at ``time`` for ``duration`` simulated seconds.

    The host recovers (all its GPUs return to the free pool) at
    ``time + duration``.
    """

    time: float
    host: int
    duration: float

    def __post_init__(self) -> None:
        for name in ("time", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"failure {name} must be finite, got {value!r}")
        if self.time < 0:
            raise ValueError("failure time must be non-negative")
        if self.host < 0:
            raise ValueError("host id must be non-negative")
        if self.duration <= 0:
            raise ValueError("failure duration must be positive")

    @property
    def recovery_time(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class CheckpointModel:
    """Checkpoint/restart cost knobs for failure handling.

    Attributes
    ----------
    interval_s:
        Simulated seconds between checkpoints of a *placed* job.  The
        checkpoint clock restarts at every placement (an eviction or
        preemption snapshots progress by construction), so a failure loses
        at most ``interval_s`` worth of recent progress.
    restart_overhead_s:
        Dead time a restarted job pays at its next placement (checkpoint
        restore, NCCL re-initialization...) before iterations progress
        again.  The job holds its GPUs during this window, so the overhead
        shows up as allocated-but-not-busy time.
    """

    interval_s: float = 120.0
    restart_overhead_s: float = 15.0

    def __post_init__(self) -> None:
        for name in ("interval_s", "restart_overhead_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"checkpoint {name} must be finite, got {value!r}")
        if self.interval_s <= 0:
            raise ValueError("checkpoint interval_s must be positive")
        if self.restart_overhead_s < 0:
            raise ValueError("restart_overhead_s must be non-negative")


def validate_failures(
    fleet: ClusterFleet, failures: Sequence[NodeFailure]
) -> List[NodeFailure]:
    """Check a failure schedule against a fleet and return it time-sorted.

    Host ids must exist in the fleet and the downtime windows of one host
    must not overlap (a host cannot fail while it is already down).
    """
    ordered = sorted(failures, key=lambda f: (f.time, f.host))
    last_recovery: Dict[int, float] = {}
    for failure in ordered:
        if failure.host >= fleet.num_hosts:
            raise ValueError(
                f"failure names host {failure.host}, but the fleet has "
                f"{fleet.num_hosts} hosts"
            )
        previous = last_recovery.get(failure.host)
        if previous is not None and failure.time < previous:
            raise ValueError(
                f"host {failure.host} fails at t={failure.time:.3f} while "
                f"still down (recovers at t={previous:.3f})"
            )
        last_recovery[failure.host] = failure.recovery_time
    return ordered


def inject_failures(
    fleet: ClusterFleet,
    num_failures: int,
    seed: int = 0,
    window: Tuple[float, float] = (60.0, 600.0),
    mean_downtime: float = 45.0,
    min_downtime: float = 5.0,
) -> List[NodeFailure]:
    """Deterministic failure schedule: seeded, non-overlapping per host.

    Failure times are drawn uniformly over ``window``, hosts uniformly over
    the fleet, and downtimes as ``min_downtime`` plus an exponential with
    mean ``mean_downtime``.  A draw that would overlap an existing downtime
    window of the same host is re-drawn (bounded attempts), keeping the
    schedule valid by construction.  Identical arguments always produce an
    identical schedule.
    """
    if num_failures < 0:
        raise ValueError("num_failures must be non-negative")
    if window[0] < 0 or window[1] <= window[0]:
        raise ValueError("window must be a non-negative (start, end) with end > start")
    if mean_downtime <= 0 or min_downtime <= 0:
        raise ValueError("downtimes must be positive")
    rng = random.Random(seed)
    windows: Dict[int, List[Tuple[float, float]]] = {}
    failures: List[NodeFailure] = []
    for _ in range(num_failures):
        for _attempt in range(64):
            time = rng.uniform(*window)
            host = rng.randrange(fleet.num_hosts)
            duration = min_downtime + rng.expovariate(1.0 / mean_downtime)
            taken = windows.setdefault(host, [])
            if all(time + duration <= s or time >= e for s, e in taken):
                taken.append((time, time + duration))
                failures.append(NodeFailure(time=time, host=host, duration=duration))
                break
        # An unplaceable failure (dense schedule on a tiny fleet) is simply
        # dropped after the attempt budget; the schedule stays deterministic.
    registry = global_registry()
    registry.counter("sched.failures.injected").add(len(failures))
    registry.counter("sched.failures.dropped").add(num_failures - len(failures))
    return validate_failures(fleet, failures)
