"""The event loop's memoized hot paths, checked against plain references.

* :func:`~repro.core.planner.plan.plan_occupancy` replaces a
  :class:`~repro.cluster.coordinator.ClusterCoordinator` per plan install:
  it must agree with the coordinator exactly, errors included.
* The scheduler remembers a background-slot search's answer, slot or none,
  until the slot set changes: a naive scan with no memo must reproduce the
  same runs, fingerprint for fingerprint.
* :meth:`~repro.sched.fleet.FleetPool.release` makes one pool call per pool
  touched, so ``sched.gpu_pool.releases`` counts calls.
"""

import dataclasses
from typing import Dict, Optional, Tuple

import pytest

from repro.cluster import ClusterCoordinator, CollocationProfile
from repro.core.planner.plan import LayerAssignment, TrainingPlan, plan_occupancy
from repro.obs.metrics import global_registry
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import scheduler as scheduler_module
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    EngineSnapshot,
    FleetPool,
    GpuPoolSpec,
    SchedulerEngine,
    TraceJob,
    inject_failures,
    mixed_trace,
)
from repro.serve.replay import result_fingerprint


def _fleet(a100=16, v100=16, gpus_per_host=4):
    return ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, a100, gpus_per_host),
            GpuPoolSpec("v100", V100_32GB, v100, gpus_per_host),
        )
    )


def _coordinator_occupancy(plan):
    coordinator = ClusterCoordinator(num_gpus=plan.total_gpus)
    coordinator.place_plan(plan)
    return (
        tuple(coordinator.busy_fractions(plan.iteration_time)),
        plan.total_gpu_seconds(),
    )


# ---------------------------------------------------------------------------
# plan_occupancy against the coordinator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def prewarmed_plans():
    """Every plan a two-generation fleet prewarms for three models."""
    sched = ClusterScheduler(_fleet(a100=8, v100=8, gpus_per_host=8))
    trace = [
        TraceJob(f"job-{model}", model, 32, 0.0, 10)
        for model in ("vgg16", "resnet50", "inception_v3")
    ]
    sched.prewarm_plans(trace)
    return list(sched._plan_cache.values())


class TestPlanOccupancy:
    def test_matches_coordinator_exactly_on_every_prewarmed_plan(
        self, prewarmed_plans
    ):
        # 3 models x widths {1, 2, 4, 8} x 2 pools.
        assert len(prewarmed_plans) == 24
        for plan in prewarmed_plans:
            occupancy = plan_occupancy(plan)
            assert isinstance(occupancy.busy_fractions, tuple)
            assert tuple(occupancy) == _coordinator_occupancy(plan)

    def test_prewarmed_plans_include_parallel_branches(self, prewarmed_plans):
        branched = [
            plan
            for plan in prewarmed_plans
            if any(a.parallel_branch for a in plan.assignments)
        ]
        assert branched
        # A branch runs on the top GPUs, so some GPU is busier than GPU 0
        # would be on its own: the placement is not plain prefix bursting.
        assert any(
            plan_occupancy(plan).busy_fractions
            != _prefix_only_fractions(plan)
            for plan in branched
        )

    def test_over_wide_plan_raises_the_coordinators_error(self, prewarmed_plans):
        plan = next(p for p in prewarmed_plans if p.max_gpus_used() == 8)
        narrow = dataclasses.replace(plan, total_gpus=4)
        with pytest.raises(ValueError) as expected:
            ClusterCoordinator(num_gpus=4).place_plan(narrow)
        with pytest.raises(ValueError) as actual:
            plan_occupancy(narrow)
        assert str(actual.value) == str(expected.value)
        assert "requires 8 GPUs" in str(actual.value)

    def test_over_wide_branch_raises_the_coordinators_error(self):
        plan = TrainingPlan(
            model_name="toy",
            global_batch=8,
            total_gpus=4,
            amplification_limit=2.0,
            assignments=[
                LayerAssignment(0, "stem", "conv", 4, 1.0),
                LayerAssignment(1, "side", "conv", 4, 0.5, parallel_branch=True),
            ],
            iteration_time=1.0,
        )
        with pytest.raises(ValueError) as expected:
            ClusterCoordinator(num_gpus=4).place_plan(plan)
        with pytest.raises(ValueError) as actual:
            plan_occupancy(plan)
        assert str(actual.value) == str(expected.value)
        assert "'side'" in str(actual.value)

    def test_install_computes_occupancy_once_per_plan_and_never_in_prewarm(
        self, monkeypatch
    ):
        computed = []

        def counting_occupancy(plan):
            computed.append(plan)
            return plan_occupancy(plan)

        monkeypatch.setattr(scheduler_module, "plan_occupancy", counting_occupancy)
        sched = ClusterScheduler(_fleet())
        trace = mixed_trace(40, seed=5)
        sched.prewarm_plans(trace)
        assert computed == []
        sched.run(trace, "collocation")
        sched.run(trace, "collocation")  # a second run installs from the memo
        assert len(computed) == len(sched._occupancy_cache) > 0
        assert set(sched._occupancy_cache) <= set(sched._plan_cache)
        for key, occupancy in sched._occupancy_cache.items():
            assert occupancy == plan_occupancy(sched._plan_cache[key])


def _prefix_only_fractions(plan):
    """Busy fractions if every stage, branches too, grew from GPU 0."""
    flat = dataclasses.replace(
        plan,
        assignments=[
            dataclasses.replace(a, parallel_branch=False) for a in plan.assignments
        ],
    )
    return plan_occupancy(flat).busy_fractions


# ---------------------------------------------------------------------------
# Empty-slot memo against a naive scan
# ---------------------------------------------------------------------------


def _naive_pick_background_host(
    self, min_efficiency: float
) -> Optional[Tuple[object, int]]:
    """Every free slot of every running foreground job, every time."""
    profile = self.collocation
    candidates = []
    for fg in self._fg_running:
        for index, busy in enumerate(fg.busy_fractions):
            if index in fg.hosted:
                continue
            efficiency = (
                (1.0 - busy) * profile.bg_idle_efficiency
                + busy * profile.bg_busy_efficiency
            )
            if efficiency >= min_efficiency:
                candidates.append((busy, fg.order, index, fg))
    if not candidates:
        return None
    busy, order, index, fg = min(candidates, key=lambda c: c[:3])
    return fg, index


_MEMO_PROFILES = {
    # Efficiency falls as the slot gets busier (the default profile).
    "idle-favoured": CollocationProfile(),
    # Efficiency rises with busy: a busy-keyed heap would pick wrong here.
    "busy-favoured": CollocationProfile(
        fg_slowdown=1.05, bg_busy_efficiency=0.9, bg_idle_efficiency=0.4
    ),
}


def _memo_run(profile: CollocationProfile) -> Dict[str, object]:
    """A backlogged hetero run with failures, cancels and a restore cut.

    Every background-slot search is also answered by the naive scan; the
    run reports its result fingerprint, the searches made, how many of them
    the memo answered without scanning, and how many disagreed with the
    naive answer.  The run is finished once, then resumed from the cut on
    the same scheduler, so the memo the finished run left behind is in
    place when the restored state resumes.
    """
    fleet = _fleet()
    calls = {"searches": 0, "memo_hits": 0, "disagreements": 0}
    pick = ClusterScheduler._pick_background_host

    def checked_pick(self, min_efficiency):
        calls["searches"] += 1
        if self._slot_memo[0] == (self._slot_version, min_efficiency):
            calls["memo_hits"] += 1
        found = pick(self, min_efficiency)
        if found != _naive_pick_background_host(self, min_efficiency):
            calls["disagreements"] += 1
        return found

    sched = ClusterScheduler(fleet, collocation=profile)
    sched._pick_background_host = checked_pick.__get__(sched)
    source = SchedulerEngine(sched, "collocation")
    for job in mixed_trace(160, seed=3, arrival_rate=3.2):
        source.add_job(job)
    source.add_failures(inject_failures(fleet, 4, seed=3, window=(10.0, 200.0)))
    cancelled = 0
    for step in range(1, 400):
        source.step()
        if step % 60 == 0:
            running = sorted(
                s.name for s in source.states.values() if s.status == "running"
            )
            if running:
                source.cancel(running[len(running) // 2], source.clock)
                cancelled += 1
    assert cancelled >= 3
    snapshot = EngineSnapshot.from_json(source.snapshot().to_json())
    source.drain()
    # Resume from the cut on the scheduler that has just finished the run.
    target = SchedulerEngine(sched, "collocation")
    target.restore(snapshot)
    target.drain()
    fingerprint = result_fingerprint(source.result())
    assert result_fingerprint(target.result()) == fingerprint
    return dict(calls, fingerprint=fingerprint)


class TestEmptySlotMemo:
    @pytest.mark.parametrize("profile", sorted(_MEMO_PROFILES))
    def test_naive_scan_gives_the_same_fingerprint(self, profile, monkeypatch):
        optimized = _memo_run(_MEMO_PROFILES[profile])
        assert optimized["disagreements"] == 0
        # The scenario exercises the memo, not just the scan.
        assert optimized["memo_hits"] > optimized["searches"] // 4 > 0
        monkeypatch.setattr(
            ClusterScheduler, "_pick_background_host", _naive_pick_background_host
        )
        naive = _memo_run(_MEMO_PROFILES[profile])
        assert naive["memo_hits"] == 0
        assert naive["fingerprint"] == optimized["fingerprint"]
        assert naive["searches"] == optimized["searches"]

    def test_restore_forgets_the_memo_of_the_run_it_replaces(self):
        sched = ClusterScheduler(_fleet())
        engine = SchedulerEngine(sched, "collocation")
        for job in mixed_trace(160, seed=3, arrival_rate=3.2):
            engine.add_job(job)
        efficiency = engine.policy.min_collocation_efficiency
        snapshot = None
        while engine.queue:
            engine.step()
            if snapshot is None:
                if _naive_pick_background_host(sched, efficiency) is not None:
                    snapshot = engine.snapshot()  # a state with a free slot
            elif sched._slot_memo == ((sched._slot_version, efficiency), None):
                break  # a later state whose empty search is memoized
        else:
            pytest.fail("the run never memoized an empty search after the cut")
        SchedulerEngine(sched, "collocation").restore(snapshot)
        expected = _naive_pick_background_host(sched, efficiency)
        assert expected is not None
        assert sched._pick_background_host(efficiency) == expected


# ---------------------------------------------------------------------------
# FleetPool.release batching
# ---------------------------------------------------------------------------


class TestReleaseCounter:
    def test_releasing_an_eight_gpu_job_counts_one_release(self):
        pool = FleetPool(_fleet(a100=16, v100=16, gpus_per_host=8))
        taken = pool.take("a100", 8)
        releases = global_registry().counter("sched.gpu_pool.releases")
        before = releases.value
        pool.release(taken)
        assert releases.value - before == 1
        assert pool.free_of("a100") == 16

    def test_down_gpus_are_absorbed_and_pools_batched_separately(self):
        pool = FleetPool(_fleet(a100=8, v100=8, gpus_per_host=4))
        a100 = pool.take("a100", 4)
        v100 = pool.take("v100", 4)
        pool.fail_host(0)  # a100 ids 0..3, all busy
        releases = global_registry().counter("sched.gpu_pool.releases")
        before = releases.value
        pool.release(a100 + v100)
        assert releases.value - before == 1  # only v100 had GPUs to return
        assert pool.free_of("a100") == 4
        assert pool.free_of("v100") == 8
