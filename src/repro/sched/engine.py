"""Event-dispatch core shared by offline replay and the online service.

:class:`SchedulerEngine` is one run's event loop, extracted from
:class:`~repro.sched.scheduler.ClusterScheduler` so that the offline
:meth:`~repro.sched.scheduler.ClusterScheduler.run` path and the online
:class:`~repro.serve.service.SchedulerService` drive the *same* engine: the
offline path feeds every arrival up front and drains the queue; the service
feeds arrivals incrementally against a virtual clock
(:meth:`SchedulerEngine.advance_to`) and may :meth:`cancel` jobs in flight.
Both produce bit-identical :class:`ScheduleResult` metrics for the same
arrival log, which is the parity obligation `repro.serve` tests against.

The engine owns one run's mutable registries (event queue, pending queue,
free-GPU pool, job states, completion records) and delegates every placement
decision to the owning scheduler's helpers, so policy behaviour lives in
exactly one place.  Construction re-binds the scheduler's per-run registry
attributes (``_states``/``_fg_running``/``_bg_dedicated``/``_free``) exactly
as ``run()`` historically did — integrity tests inspect them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.planner.plan import TrainingPlan
from ..models.graph import ModelGraph
from ..obs.metrics import global_registry
from ..obs.trace import EV_ARRIVAL, EV_CANCEL, EV_GPU_FREE, EV_NODE_RECOVERY
from .events import Event, EventKind, EventQueue
from .failures import NodeFailure, validate_failures
from .fleet import FleetPool
from .metrics import FleetMetrics, JobRecord
from .ordering import PendingQueue, SortedJobList
from .policies import SchedulingPolicy, get_policy
from .traces import TraceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .snapshot import EngineSnapshot

__all__ = ["SchedulerEngine", "ScheduleResult"]

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"

# Per-kind event-loop counters, prefetched at import so the loop pays one
# dict lookup + integer add per event.  ``sched.events.stale`` counts finish
# events discarded by lazy invalidation (not an EventKind of their own);
# ``sched.events.cancel`` counts jobs cancelled through the engine API.
_EVENT_COUNTERS = {
    kind: global_registry().counter(f"sched.events.{kind.value}")
    for kind in EventKind
}
_STALE_EVENTS = global_registry().counter("sched.events.stale")
_CANCELLED_JOBS = global_registry().counter("sched.events.cancel")


class _JobState:
    """Mutable per-job simulation state (one instance per trace job per run)."""

    def __init__(
        self, trace: TraceJob, order: int, graph: ModelGraph, iso_iter_time: float
    ) -> None:
        self.trace = trace
        self.order = order
        self.graph = graph
        #: Single-GPU time per iteration on the fleet's reference (fastest)
        #: pool; the work estimate policies sort by.
        self.iso_iter_time = iso_iter_time
        self.status = _PENDING
        self.remaining = float(trace.iterations)
        self.version = 0
        self.last_update = trace.arrival_time
        self.rate = 0.0  # iterations per second while running
        self.start_time: Optional[float] = None
        # Foreground placement state.
        self.width = 0
        self.gpu_ids: List[int] = []
        self.gpu_type: Optional[str] = None  # fleet pool of the placement
        self.plan: Optional[TrainingPlan] = None
        self.base_iter_time = 0.0
        self.work_per_iteration = 0.0  # busy GPU-seconds per iteration
        self.busy_fractions: Sequence[float] = ()
        self.hosted: Dict[int, "_JobState"] = {}  # local GPU index -> bg job
        #: Guests ordered by arrival order, maintained on attach/detach.
        self.guest_order = SortedJobList()
        # Background placement state.
        self.host: Optional["_JobState"] = None
        self.host_index = 0
        #: Isolated iteration time on the pool the job is placed on (equals
        #: ``iso_iter_time`` on a homogeneous fleet).
        self.placed_iso_time = iso_iter_time
        # Failure / checkpoint state.
        self.ckpt_remaining = float(trace.iterations)
        self.next_checkpoint: Optional[float] = None
        self.penalty_until = 0.0  # restart overhead window of the placement
        self.pending_restart_penalty = 0.0  # owed at the next placement
        # Accounting.
        self.preemptions = 0
        self.replans = 0
        self.restarts = 0
        self.busy_gpu_seconds = 0.0
        self.allocated_gpu_seconds = 0.0
        self.lost_gpu_seconds = 0.0

    # Attributes policies read (duck-typed).
    @property
    def name(self) -> str:
        return self.trace.name

    @property
    def is_foreground(self) -> bool:
        return self.trace.is_foreground

    @property
    def arrival_time(self) -> float:
        return self.trace.arrival_time

    @property
    def global_batch(self) -> int:
        return self.trace.global_batch

    @property
    def max_gpus(self) -> Optional[int]:
        return self.trace.max_gpus

    @property
    def remaining_gpu_seconds(self) -> float:
        """Estimated single-GPU compute remaining (the policy sort key)."""
        return self.remaining * self.iso_iter_time

    @property
    def collocated(self) -> bool:
        return self.host is not None


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduler run: per-job records plus fleet metrics."""

    policy: str
    num_gpus: int
    records: Tuple[JobRecord, ...]
    metrics: FleetMetrics
    #: Events the simulation processed (arrivals, finishes, node failures
    #: and recoveries, and stale finishes discarded by lazy invalidation) —
    #: the run's deterministic op count, reported by the benchmark harness.
    events_processed: int = 0
    #: Node failures injected into the run.
    failures_injected: int = 0

    def record(self, name: str) -> JobRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record for job {name!r}")


class SchedulerEngine:
    """One run's discrete-event loop over a :class:`ClusterScheduler`.

    The engine is deliberately *incremental*: jobs are registered with
    :meth:`add_job` (arrival events enter the queue as they are admitted),
    failures with :meth:`add_failures`, and time moves either all the way to
    quiescence (:meth:`drain` — the offline path) or up to a virtual-clock
    bound (:meth:`advance_to` — the service path).  Event *seq* numbers
    break exact-time ties, so feeding the same arrival log in the same
    order reproduces the offline run event for event.
    """

    def __init__(
        self,
        scheduler,
        policy: Union[str, SchedulingPolicy],
    ) -> None:
        self.scheduler = scheduler
        self.policy = get_policy(policy)
        self.states: Dict[str, _JobState] = {}
        self.queue = EventQueue()
        self.free = FleetPool(scheduler.fleet)
        self.pending = PendingQueue(self.policy)
        self.records: List[JobRecord] = []
        self.clock = 0.0
        self.first_arrival: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.failures_injected = 0
        self._order = 0
        # Re-bind the scheduler's per-run registries (one engine == one run);
        # placement helpers and integrity tests consult them there.
        scheduler._states = self.states
        scheduler._fg_running = SortedJobList()
        scheduler._bg_dedicated = SortedJobList()
        scheduler._free = self.free
        scheduler._track_failures = False
        scheduler._slot_version += 1  # a new run's collocation slots
        self._recorder = scheduler._recorder
        if self._recorder is not None:
            self._recorder.begin_run(scheduler.fleet, self.policy.name)
        self._sampler = scheduler._sampler
        self._gauges = None
        if self._sampler is not None:
            self._sampler.begin_run()
            self._gauges = scheduler._make_gauges(self.pending, self.free)

    # ------------------------------------------------------------------ intake
    def add_job(self, job: TraceJob) -> None:
        """Register one job and queue its arrival event.

        Jobs must be added in the order their arrivals should break exact
        simulated-time ties (trace order, for the offline path).  Duplicate
        names are rejected — the engine indexes state by name.
        """
        if job.name in self.states:
            raise ValueError(f"duplicate job name {job.name!r}")
        if job.arrival_time < self.clock:
            raise ValueError(
                f"job {job.name!r} arrives at {job.arrival_time}, before the "
                f"engine clock {self.clock}"
            )
        sched = self.scheduler
        self.states[job.name] = _JobState(
            job,
            self._order,
            sched._graph(job.model),
            sched._iso_iter_time(job.model, job.global_batch),
        )
        self._order += 1
        self.queue.push(job.arrival_time, EventKind.JOB_ARRIVAL, job.name)
        if self.first_arrival is None or job.arrival_time < self.first_arrival:
            self.first_arrival = job.arrival_time

    def add_failures(self, failures: Sequence[NodeFailure]) -> int:
        """Validate and queue a node-failure schedule; returns its length."""
        ordered = validate_failures(self.scheduler.fleet, failures) if failures else []
        if ordered:
            self.scheduler._track_failures = True
        for failure in ordered:
            self.queue.push(failure.time, EventKind.NODE_FAILURE, "", host=failure.host)
            self.queue.push(
                failure.recovery_time, EventKind.NODE_RECOVERY, "", host=failure.host
            )
        self.failures_injected += len(ordered)
        return len(ordered)

    # -------------------------------------------------------------- event loop
    def step(self) -> Event:
        """Pop and dispatch one event, then run a scheduling pass."""
        sched = self.scheduler
        event = self.queue.pop()
        now = event.time
        self.clock = max(self.clock, now)
        if self._sampler is not None:
            # Boundaries at or before ``now`` sample the state *before*
            # this event's changes (piecewise-constant between events).
            self._sampler.advance_to(now, self._gauges)
        _EVENT_COUNTERS[event.kind].add(1)
        if event.kind is EventKind.JOB_ARRIVAL:
            state = self.states[event.job_name]
            if state.status is not _PENDING:
                # Cancelled before its arrival event popped: lazy-invalidated
                # exactly like a stale finish, including skipping the
                # scheduling pass (the cancellation already ran one).
                _STALE_EVENTS.add(1)
                return event
            state.last_update = now
            self.pending.add(state, now)
            if self._recorder is not None:
                self._recorder.emit(now, EV_ARRIVAL, job=state.name)
        elif event.kind is EventKind.NODE_FAILURE:
            sched._fail_host(event.host, now, self.free, self.pending)
        elif event.kind is EventKind.NODE_RECOVERY:
            self.free.recover_host(event.host)
            if self._recorder is not None:
                pool = sched.fleet.pool_of_host(event.host)
                self._recorder.emit(
                    now,
                    EV_NODE_RECOVERY,
                    pool=pool,
                    host=event.host,
                    gpus=sched.fleet.gpus_of_host(event.host),
                    free_gpus=self.free.free_of(pool),
                )
        else:
            state = self.states[event.job_name]
            if state.status != _RUNNING or event.version != state.version:
                _STALE_EVENTS.add(1)
                return event  # stale finish event (job was re-planned/preempted)
            sched._finish(state, now, self.free, self.pending, self.queue, self.records)
            self.last_finish = now if self.last_finish is None else max(
                self.last_finish, now
            )
        self._schedule_point(now)
        return event

    def _schedule_point(self, now: float) -> None:
        """One scheduling pass: place pending work, then expand running jobs."""
        sched = self.scheduler
        sched._schedule_pending(now, self.pending, self.free, self.policy, self.queue)
        if self.policy.replan_running and not self.pending and self.free:
            sched._expand_running(now, self.free, self.policy, self.queue)

    def events(self, until: Optional[float] = None) -> Iterator[Event]:
        """Dispatch events one :meth:`step` at a time, yielding each.

        With ``until=None`` the queue is drained to quiescence.  Otherwise
        every event strictly before ``until`` is dispatched: the bound is
        *exclusive* so that a job submitted at ``until`` slots into the
        queue before same-instant events that were pushed later —
        reproducing the offline path, where all arrivals are queued first —
        and once the generator is exhausted the engine clock is at least
        ``until``.  A non-finite ``until`` is rejected: ``nan`` would drain
        the queue without moving the clock, and ``inf`` would drain it and
        leave the clock at ``inf``.

        :meth:`drain`, :meth:`advance_to` and the online service's
        cooperative callers all step through this one loop.
        """
        if until is None:
            while self.queue:
                yield self.step()
            return
        if not math.isfinite(until):
            raise ValueError(f"time must be finite, got {until!r}")
        while True:
            peek = self.queue.peek_time()
            if peek is None or peek >= until:
                break
            yield self.step()
        self.clock = max(self.clock, until)

    def drain(self) -> int:
        """Dispatch events until the queue is empty; returns steps taken."""
        return sum(1 for _ in self.events())

    def advance_to(self, time: float) -> int:
        """Dispatch every event strictly before ``time``; returns steps taken.

        See :meth:`events` for the exclusive bound, the clock bump and the
        rejection of a non-finite ``time``.
        """
        return sum(1 for _ in self.events(time))

    # ------------------------------------------------------------ cancellation
    def cancel(self, name: str, now: float) -> bool:
        """Cancel one job at simulated time ``now``.

        Pending jobs leave the queue with their progress-to-date kept on
        their state (the service layer reads ``busy_gpu_seconds`` /
        ``lost_gpu_seconds`` for quota settlement — the same accounting the
        offline ``lost_gpu_seconds`` semantics use).  Running jobs release
        their GPUs (or their collocation slot) exactly like a completion,
        minus the completion record.  Returns ``False`` when the job is
        already done or cancelled.
        """
        state = self.states[name]
        if state.status in (_DONE, _CANCELLED):
            return False
        sched = self.scheduler
        recorder = self._recorder
        _CANCELLED_JOBS.add(1)
        if state.status == _PENDING:
            if state in self.pending:
                self.pending.remove(state)
            state.status = _CANCELLED
            state.version += 1  # invalidate any in-flight event
            if recorder is not None:
                recorder.emit(now, EV_CANCEL, job=state.name, detail="pending")
            self._schedule_point(now)
            return True
        # Running: mirror _finish's teardown without emitting a completion.
        gpu_pool = state.gpu_type or ""
        gpus = tuple(state.gpu_ids)
        if state.is_foreground:
            sched._fg_running.remove(state)
            sched._slot_version += 1
        elif not state.collocated:
            sched._bg_dedicated.remove(state)
        sched._advance(state, now)
        state.status = _CANCELLED
        if state.collocated:
            assert state.host is not None
            host = state.host
            del host.hosted[state.host_index]
            host.guest_order.remove(state)
            state.host = None
            sched._slot_version += 1
            if not host.hosted:
                # Last guest left: the host runs at full speed again.
                sched._advance(host, now)
                sched._reschedule_finish(host, now, self.queue)
            if recorder is not None:
                recorder.emit(
                    now, EV_CANCEL, job=state.name, pool=gpu_pool,
                    gpus=gpus, detail="collocated",
                )
        else:
            self.free.release(state.gpu_ids)
            if recorder is not None:
                recorder.emit(
                    now, EV_GPU_FREE, job=state.name, pool=gpu_pool,
                    gpus=gpus, free_gpus=self.free.free_of(gpu_pool),
                )
                recorder.emit(
                    now, EV_CANCEL, job=state.name, pool=gpu_pool,
                    gpus=gpus, width=max(state.width, 1), detail="running",
                )
        state.gpu_ids = []
        state.gpu_type = None
        if state.is_foreground:
            # Orphaned guests go back to the queue and are re-placed below.
            for guest in list(state.guest_order):
                sched._detach_background(guest, now, self.pending)
            state.hosted = {}
            state.guest_order = SortedJobList()
        state.version += 1
        self._schedule_point(now)
        return True

    # ------------------------------------------------------- snapshot/restore
    def snapshot(self) -> "EngineSnapshot":
        """Freeze the run's complete state (see :mod:`repro.sched.snapshot`).

        Legal at any event boundary — between :meth:`step` calls, after an
        :meth:`advance_to`, mid-drain.  The capture is read-only: taking a
        snapshot never changes the run's subsequent event history.
        """
        from .snapshot import EngineSnapshot

        return EngineSnapshot.capture(self)

    def restore(self, snapshot: "EngineSnapshot") -> None:
        """Load a snapshot into this freshly constructed engine.

        The engine must be new (no jobs added, clock at zero) and built on a
        scheduler whose fleet, policy and planner/profiler configuration
        match the capturing run; continuing afterwards reproduces the
        uninterrupted run's event history exactly — same
        ``events_processed``, same metrics, same ``result_fingerprint``.
        """
        snapshot.apply(self)

    # ---------------------------------------------------------------- results
    def unfinished(self) -> List[str]:
        """Names of jobs neither completed nor cancelled, sorted."""
        return sorted(
            s.name
            for s in self.states.values()
            if s.status not in (_DONE, _CANCELLED)
        )

    def result(self, require_complete: bool = True) -> ScheduleResult:
        """Fold the run into a :class:`ScheduleResult`.

        ``require_complete`` raises on jobs that never completed (the
        offline deadlock check); cancelled jobs are never counted as
        unfinished.
        """
        if require_complete:
            unfinished = self.unfinished()
            if unfinished:
                raise RuntimeError(
                    f"scheduler deadlock under policy {self.policy.name!r}: "
                    f"jobs never completed: {', '.join(unfinished)}"
                )
        # Makespan runs from the first arrival to the last completion, so a
        # trace submitted late does not dilute utilization and goodput.
        first = self.first_arrival if self.first_arrival is not None else 0.0
        last = first if self.last_finish is None else max(self.last_finish, first)
        metrics = FleetMetrics.compute(
            self.records, self.scheduler.num_gpus, last - first
        )
        return ScheduleResult(
            policy=self.policy.name,
            num_gpus=self.scheduler.num_gpus,
            records=tuple(self.records),
            metrics=metrics,
            events_processed=self.queue.popped,
            failures_injected=self.failures_injected,
        )
