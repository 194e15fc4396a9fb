"""The placement pass checked against a naive full-scan reference.

``ClusterScheduler._schedule_pending`` stops scanning the pending queue once
no pending job can be placed (no free GPU, no preemption victim, no
collocation slot).  The reference below is the plain pass it replaces: it
scans every pending job on every pass until a pass places nothing.  Patched
in, it must reproduce the optimized runs decision for decision — the same
recorder event stream, the same snapshot at a mid-run cut, the same
``result_fingerprint`` — across policies (a dynamic-priority one included),
small heterogeneous fleets, host failures, cancels and a restore.

Also here: the policy contract the short-circuit relies on (``width_for``
returns ``None`` or a width in ``[1, free GPUs]``; ``min_collocation_efficiency``
is declared on every policy) and the ``sched.pending.scanned`` counter.

Hypothesis runs a small budget by default; ``--hypothesis-profile=ci``
(registered in ``tests/conftest.py``) scales it up.
"""

from typing import Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import TraceRecorder
from repro.obs.metrics import global_registry
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    CollocationAwarePolicy,
    EngineSnapshot,
    GpuPoolSpec,
    SchedulerEngine,
    SchedulingPolicy,
    ShortestRemainingGPUSecondsPolicy,
    inject_failures,
    mixed_trace,
)
from repro.sched import scheduler as scheduler_module
from repro.serve.replay import result_fingerprint


def _naive_schedule_pending(self, now, pending, free, policy, queue) -> None:
    """Every pending job, every pass, until a pass places nothing."""
    while pending:
        if policy.dynamic_priority:
            pending.resort(now)
        order = list(pending)
        placed = 0
        scanned = 0
        waiting_fg = pending.foreground_waiting
        for state in order:
            scanned += 1
            if state.is_foreground:
                placement: Optional[Tuple[str, int]] = None
                for pool_name in policy.pool_preference(state, self.fleet):
                    pool_gpus = self.fleet.pool(pool_name).num_gpus
                    desired = policy.desired_width(state, pool_gpus)
                    if policy.preempt_background and free.free_of(pool_name) < desired:
                        self._preempt_for(desired, pool_name, now, free, pending)
                    width = policy.width_for(
                        state, free.free_of(pool_name), pool_gpus, waiting_fg
                    )
                    if width is not None:
                        placement = (pool_name, width)
                        break
                waiting_fg -= 1
                if placement is None:
                    if policy.strict_order:
                        break
                    continue
                pending.remove(state)
                self._start_foreground(state, placement[1], placement[0], now, free, queue)
                placed += 1
            elif self._place_background(state, now, free, policy, queue):
                pending.remove(state)
                placed += 1
            elif policy.strict_order:
                break
        scheduler_module._PENDING_SCANNED.add(scanned)
        if not placed:
            break


class _AgingPolicy(CollocationAwarePolicy):
    """Collocation policy whose pending order drifts as jobs wait.

    Remaining work is divided by (1 + waiting time), so long-waiting jobs
    overtake shorter newcomers: keys change with ``now`` and the queue is
    re-keyed before every pass.
    """

    name = "aging"
    dynamic_priority = True

    def sort_key(self, job, now: float) -> Tuple:
        wait = max(0.0, now - job.arrival_time)
        return (
            not job.is_foreground,
            job.remaining_gpu_seconds / (1.0 + wait),
            job.order,
        )


_POLICIES = {
    "fifo": "fifo",
    "srgs": "srgs",
    "collocation": "collocation",
    "aging": _AgingPolicy,
}


def _fleet(a100: int, v100: int) -> ClusterFleet:
    return ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, a100, 4),
            GpuPoolSpec("v100", V100_32GB, v100, 4),
        )
    )


# One scheduler per fleet shape, shared by every run on it: plans are
# searched once, and each run starts on a scheduler whose slot memo a
# previous run left behind.
_SCHEDULERS: Dict[Tuple[int, int], ClusterScheduler] = {}


def _scheduler(a100: int, v100: int) -> ClusterScheduler:
    sched = _SCHEDULERS.get((a100, v100))
    if sched is None:
        sched = _SCHEDULERS[(a100, v100)] = ClusterScheduler(_fleet(a100, v100))
    return sched


def _run(
    policy, a100: int, v100: int, seed: int, rate: float,
    num_jobs: int = 48, cut: int = 60,
) -> Dict[str, object]:
    """A replay with failures, cancels and a snapshot cut, then resumed.

    Returns every recorded event of the uninterrupted run and of the run
    resumed from the cut, the snapshot's JSON, and the result fingerprint.
    """
    sched = _scheduler(a100, v100)
    recorder = TraceRecorder()
    sched.attach_recorder(recorder)
    try:
        source = SchedulerEngine(sched, policy)
        for job in mixed_trace(num_jobs, seed=seed, arrival_rate=rate):
            source.add_job(job)
        source.add_failures(
            inject_failures(sched.fleet, 2, seed=seed, window=(5.0, 120.0))
        )
        snapshot = None
        step = 0
        while source.queue:
            source.step()
            step += 1
            # Cancels land before the cut, so the resumed run replays them.
            if step <= cut and step % 20 == 0:
                running = sorted(
                    s.name for s in source.states.values() if s.status == "running"
                )
                if running:
                    source.cancel(running[len(running) // 2], source.clock)
            if step == cut:
                snapshot = source.snapshot().to_json()
        events = recorder.events
        fingerprint = result_fingerprint(source.result())
        resumed_events: Tuple = ()
        if snapshot is not None:
            target = SchedulerEngine(sched, policy)
            target.restore(EngineSnapshot.from_json(snapshot))
            target.drain()
            assert result_fingerprint(target.result()) == fingerprint
            resumed_events = recorder.events
    finally:
        sched.attach_recorder(None)
    return {
        "events": events,
        "resumed_events": resumed_events,
        "snapshot": snapshot,
        "fingerprint": fingerprint,
    }


def _both(monkeypatch, *args, **kwargs):
    optimized = _run(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(ClusterScheduler, "_schedule_pending", _naive_schedule_pending)
        naive = _run(*args, **kwargs)
    return optimized, naive


def _budget() -> int:
    # A tenth of the active profile's budget: 10 examples under hypothesis'
    # default of 100, more under the ``ci`` profile.
    return max(4, settings.default.max_examples // 10)


class TestNaiveReference:
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_saturated_hetero_run_matches_decision_for_decision(
        self, policy, monkeypatch
    ):
        optimized, naive = _both(
            monkeypatch, _POLICIES[policy], 8, 8, seed=11, rate=6.0, num_jobs=80
        )
        assert optimized["snapshot"] is not None
        assert len(optimized["events"]) > 100
        assert optimized == naive

    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @given(
        seed=st.integers(0, 10_000),
        rate=st.floats(0.5, 8.0),
        a100=st.sampled_from((4, 8, 12)),
        v100=st.sampled_from((4, 8)),
    )
    @settings(
        max_examples=_budget(),
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_runs_match(self, policy, seed, rate, a100, v100, monkeypatch):
        optimized, naive = _both(
            monkeypatch, _POLICIES[policy], a100, v100, seed=seed, rate=rate
        )
        assert optimized == naive


# ---------------------------------------------------------------------------
# sched.pending.scanned
# ---------------------------------------------------------------------------


def _scanned(run) -> int:
    counter = global_registry().counter("sched.pending.scanned")
    before = counter.value
    run()
    return counter.value - before


class TestScannedCounter:
    def _saturated(self):
        return _run("collocation", 8, 8, seed=11, rate=6.0, num_jobs=80)

    def test_repeats_exactly_for_a_seed(self):
        first = _scanned(self._saturated)
        assert first > 0
        assert _scanned(self._saturated) == first

    def test_falls_against_the_full_scan_on_a_saturated_trace(self, monkeypatch):
        optimized = _scanned(self._saturated)
        monkeypatch.setattr(
            ClusterScheduler, "_schedule_pending", _naive_schedule_pending
        )
        naive = _scanned(self._saturated)
        assert optimized < naive // 2


# ---------------------------------------------------------------------------
# Policy contract
# ---------------------------------------------------------------------------


class _RoguePolicy(ShortestRemainingGPUSecondsPolicy):
    """Returns a fixed width whatever the free pool holds."""

    name = "rogue"

    def __init__(self, width: int) -> None:
        self.width = width

    def width_for(self, job, free_gpus, num_gpus, pending_foreground=1):
        return self.width


class _PlainCollocation(ShortestRemainingGPUSecondsPolicy):
    """Collocates without declaring a minimum slot efficiency."""

    name = "plain-collocation"
    collocate_background = True


class TestPolicyContract:
    @pytest.mark.parametrize("width", [0, -1, 64])
    def test_out_of_range_width_names_policy_job_pool_and_free_count(self, width):
        sched = ClusterScheduler(_fleet(8, 8))
        trace = mixed_trace(6, seed=1)
        with pytest.raises(ValueError) as error:
            sched.run(trace, _RoguePolicy(width))
        message = str(error.value)
        assert "'rogue'" in message
        assert f"width {width}" in message
        assert "pool 'a100'" in message
        assert "8 free GPUs" in message
        assert any(f"job {job.name!r}" in message for job in trace)

    def test_min_collocation_efficiency_is_declared_on_every_policy(self):
        assert SchedulingPolicy.min_collocation_efficiency == 0.0
        assert CollocationAwarePolicy.min_collocation_efficiency == 0.5
        sched = ClusterScheduler(_fleet(4, 4))
        result = sched.run(mixed_trace(30, seed=2, arrival_rate=4.0), _PlainCollocation())
        assert result.metrics.num_jobs == 30
