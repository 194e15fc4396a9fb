"""Tests for the trace-driven multi-tenant cluster scheduler (repro.sched)."""

import pytest

from repro.cluster.job import JobKind
from repro.sched import (
    POLICIES,
    ClusterScheduler,
    SchedulerEngine,
    CollocationAwarePolicy,
    EventKind,
    EventQueue,
    FIFOPolicy,
    FleetMetrics,
    JobRecord,
    ShortestRemainingGPUSecondsPolicy,
    TraceJob,
    alibaba_trace,
    floor_pow2,
    get_policy,
    percentile,
    synthetic_trace,
)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------

class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.JOB_FINISH, "c")
        queue.push(1.0, EventKind.JOB_ARRIVAL, "a")
        queue.push(2.0, EventKind.JOB_ARRIVAL, "b")
        names = [queue.pop().job_name for _ in range(3)]
        assert names == ["a", "b", "c"]

    def test_simultaneous_events_keep_push_order(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(5.0, EventKind.JOB_ARRIVAL, name)
        names = [queue.pop().job_name for _ in range(3)]
        assert names == ["first", "second", "third"]

    def test_versions_travel_with_events(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.JOB_FINISH, "a", version=4)
        assert queue.pop().version == 4

    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None
        with pytest.raises(IndexError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.JOB_ARRIVAL, "a")

    def test_push_pop_counters(self):
        """The counters feed the bench harness's scheduler op counts."""
        queue = EventQueue()
        for t in (2.0, 1.0, 3.0):
            queue.push(t, EventKind.JOB_ARRIVAL, "a")
        queue.pop()
        assert queue.pushed == 3
        assert queue.popped == 1


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TestTraces:
    def test_synthetic_trace_deterministic(self):
        assert synthetic_trace(12, seed=5) == synthetic_trace(12, seed=5)
        assert synthetic_trace(12, seed=5) != synthetic_trace(12, seed=6)

    def test_synthetic_trace_sorted_and_mixed(self):
        trace = synthetic_trace(30, seed=1)
        arrivals = [j.arrival_time for j in trace]
        assert arrivals == sorted(arrivals)
        kinds = {j.kind for j in trace}
        assert kinds == {JobKind.FOREGROUND, JobKind.BACKGROUND}

    def test_alibaba_trace_deterministic_and_heavy_tailed(self):
        trace = alibaba_trace(60, seed=2)
        assert trace == alibaba_trace(60, seed=2)
        iterations = sorted(j.iterations for j in trace)
        # Log-normal sizes: the largest job dwarfs the median.
        assert iterations[-1] > 4 * iterations[len(iterations) // 2]
        # Most jobs are small best-effort jobs, as in the PAI trace.
        small = sum(1 for j in trace if not j.is_foreground)
        assert small > len(trace) / 2

    def test_trace_job_validation(self):
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 32, arrival_time=-1.0, iterations=10)
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=0)
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 0, arrival_time=0.0, iterations=10)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["arrival_time", "amplification_limit"])
    def test_trace_job_rejects_non_finite_field(self, field, value):
        kwargs = {"arrival_time": 0.0, "iterations": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TraceJob("x", "vgg16", 32, **kwargs)

    def test_trace_job_conversions(self):
        from repro.models import build_model

        job = TraceJob("x", "vgg16", 32, arrival_time=1.0, iterations=10)
        training = job.to_training_job(build_model("vgg16"))
        assert training.is_foreground
        assert training.amplification_limit == job.amplification_limit
        moved = job.with_arrival(9.0)
        assert moved.arrival_time == 9.0 and moved.name == job.name


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_floor_pow2(self):
        assert [floor_pow2(v) for v in (0, 1, 2, 3, 4, 7, 8, 31, 32)] == [
            0, 1, 2, 2, 4, 4, 8, 16, 32,
        ]

    def test_registry(self):
        assert set(POLICIES) == {"fifo", "srgs", "collocation"}
        assert isinstance(get_policy("fifo"), FIFOPolicy)
        assert isinstance(get_policy(CollocationAwarePolicy), CollocationAwarePolicy)
        policy = ShortestRemainingGPUSecondsPolicy()
        assert get_policy(policy) is policy
        with pytest.raises(KeyError):
            get_policy("round-robin")

    def test_fifo_demands_full_width(self):
        policy = FIFOPolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, free_gpus=32, num_gpus=32) == 32
        assert policy.width_for(job, free_gpus=31, num_gpus=32) is None

    def test_backfill_shrinks_to_free_pool(self):
        policy = ShortestRemainingGPUSecondsPolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, free_gpus=5, num_gpus=32) == 4
        assert policy.width_for(job, free_gpus=0, num_gpus=32) is None

    def test_collocation_divides_cluster_among_waiting_jobs(self):
        policy = CollocationAwarePolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, 32, 32, pending_foreground=1) == 32
        assert policy.width_for(job, 32, 32, pending_foreground=4) == 8
        # Even a tiny share lets a job start (narrow beats waiting).
        assert policy.width_for(job, 2, 32, pending_foreground=8) == 1

    def test_width_respects_batch_and_cap(self):
        policy = ShortestRemainingGPUSecondsPolicy()
        small_batch = TraceJob("x", "vgg16", 4, arrival_time=0.0, iterations=10)
        assert policy.width_for(small_batch, 32, 32) == 4
        capped = TraceJob(
            "y", "vgg16", 32, arrival_time=0.0, iterations=10, max_gpus=8
        )
        assert policy.width_for(capped, 32, 32) == 8


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile(values, -1)

    def test_percentile_edges(self):
        # Singletons answer every quantile with the one value.
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0
        # Two elements: linear interpolation between them.
        assert percentile([1.0, 3.0], 25) == pytest.approx(1.5)
        assert percentile([1.0, 3.0], 75) == pytest.approx(2.5)
        # Input order must not matter.
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
        assert percentile([9.0, 1.0], 100) == 9.0

    def test_fleet_metrics_compute(self):
        records = [
            JobRecord(
                name="a", model="vgg16", kind=JobKind.FOREGROUND,
                arrival_time=0.0, start_time=1.0, finish_time=5.0,
                iterations=100, global_batch=32, width=4,
                busy_gpu_seconds=10.0, allocated_gpu_seconds=16.0,
            ),
            JobRecord(
                name="b", model="vgg16", kind=JobKind.BACKGROUND,
                arrival_time=2.0, start_time=2.0, finish_time=10.0,
                iterations=50, global_batch=4, width=1,
                busy_gpu_seconds=8.0, allocated_gpu_seconds=8.0,
            ),
        ]
        metrics = FleetMetrics.compute(records, num_gpus=4, makespan=10.0)
        assert metrics.num_jobs == 2
        assert metrics.mean_jct == pytest.approx((5.0 + 8.0) / 2)
        assert metrics.max_jct == 8.0
        assert metrics.utilization == pytest.approx(18.0 / 40.0)
        assert metrics.fg_goodput == pytest.approx(3200 / 10.0)
        assert metrics.bg_goodput == pytest.approx(200 / 10.0)
        assert records[0].queue_delay == 1.0

    def test_fleet_metrics_zero_jobs(self):
        """An idle cluster is a valid measurement, not an error."""
        metrics = FleetMetrics.compute([], num_gpus=4, makespan=1.0)
        assert metrics.num_jobs == 0
        assert metrics.mean_jct == 0.0
        assert metrics.median_jct == 0.0
        assert metrics.p95_jct == 0.0
        assert metrics.max_jct == 0.0
        assert metrics.mean_queue_delay == 0.0
        assert metrics.utilization == 0.0
        assert metrics.fg_goodput == 0.0
        assert metrics.bg_goodput == 0.0
        assert metrics.preemptions == 0
        assert metrics.lost_gpu_seconds == 0.0
        with pytest.raises(ValueError, match="num_gpus"):
            FleetMetrics.compute([], num_gpus=0, makespan=1.0)


# ---------------------------------------------------------------------------
# Scheduler end-to-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(8, seed=3, models=("vgg16",))


@pytest.fixture(scope="module")
def scheduler():
    return ClusterScheduler(num_gpus=8)


class TestClusterScheduler:
    def test_all_jobs_complete_under_every_policy(self, scheduler, small_trace):
        for policy in POLICIES:
            result = scheduler.run(small_trace, policy)
            assert result.metrics.num_jobs == len(small_trace)
            for record in result.records:
                assert record.finish_time >= record.start_time >= record.arrival_time
                assert record.busy_gpu_seconds > 0

    def test_deterministic_under_fixed_seed(self, scheduler, small_trace):
        first = scheduler.run(small_trace, "collocation")
        second = scheduler.run(small_trace, "collocation")
        assert first.metrics == second.metrics
        assert first.records == second.records

    def test_event_ordering_simultaneous_arrivals(self, scheduler):
        # Two jobs arriving at the same instant are admitted in trace order:
        # the first takes the whole cluster, the second waits.
        trace = [
            TraceJob("first", "vgg16", 32, arrival_time=0.0, iterations=50),
            TraceJob("second", "vgg16", 32, arrival_time=0.0, iterations=50),
        ]
        result = scheduler.run(trace, "fifo")
        first, second = result.record("first"), result.record("second")
        assert first.start_time == 0.0
        assert second.start_time == pytest.approx(first.finish_time)

    def test_utilization_and_makespan_are_consistent(self, scheduler, small_trace):
        result = scheduler.run(small_trace, "srgs")
        metrics = result.metrics
        assert 0.0 < metrics.utilization <= 1.0
        span = max(r.finish_time for r in result.records) - min(
            r.arrival_time for r in result.records
        )
        assert metrics.makespan == pytest.approx(span)
        assert metrics.mean_queue_delay >= 0.0

    def test_makespan_ignores_idle_prefix_before_first_arrival(self, scheduler):
        # A trace submitted late must not dilute utilization with the idle
        # time before its first arrival.
        late = [TraceJob("solo", "vgg16", 32, 1000.0, 100)]
        early = [TraceJob("solo", "vgg16", 32, 0.0, 100)]
        late_metrics = scheduler.run(late, "srgs").metrics
        early_metrics = scheduler.run(early, "srgs").metrics
        assert late_metrics.makespan == pytest.approx(early_metrics.makespan)
        assert late_metrics.utilization == pytest.approx(early_metrics.utilization)

    def test_preemption_is_minimal(self):
        # A foreground job holds half of the 8-GPU cluster and four
        # background jobs hold the rest.  The arriving fg-b is capped at
        # width 2, so exactly two evictions lift floor_pow2(free) from 0 to
        # 2; evicting the remaining two victims would not change fg-b's
        # placement and must not happen.
        trace = [
            TraceJob("fg-a", "vgg16", 32, 0.0, 2000, max_gpus=4),
            TraceJob("bg-a", "vgg16", 4, 0.1, 4000, JobKind.BACKGROUND),
            TraceJob("bg-b", "vgg16", 4, 0.2, 4000, JobKind.BACKGROUND),
            TraceJob("bg-c", "vgg16", 4, 0.3, 4000, JobKind.BACKGROUND),
            TraceJob("bg-d", "vgg16", 4, 0.4, 4000, JobKind.BACKGROUND),
            TraceJob("fg-b", "vgg16", 32, 1.0, 100, max_gpus=2),
        ]
        result = ClusterScheduler(num_gpus=8).run(trace, "collocation")
        # fg-b wants width 2; two evictions make floor_pow2(free) jump from
        # 0 to 2, and evicting the other two would change nothing.
        assert result.metrics.preemptions == 2

    def test_background_preemption_keeps_progress(self):
        # Background jobs hold both GPUs; a foreground arrival evicts one
        # (collocation policy), and the victims still finish all iterations.
        trace = [
            TraceJob("bg-a", "vgg16", 4, 0.0, 2000, JobKind.BACKGROUND),
            TraceJob("bg-b", "vgg16", 4, 0.0, 2000, JobKind.BACKGROUND),
            TraceJob("fg-a", "vgg16", 32, 1.0, 200, JobKind.FOREGROUND),
        ]
        result = ClusterScheduler(num_gpus=2).run(trace, "collocation")
        assert result.metrics.preemptions >= 1
        assert result.record("fg-a").start_time == pytest.approx(1.0)
        preempted = [r for r in result.records if r.preemptions > 0]
        assert preempted and all(not r.is_foreground for r in preempted)

    def test_replanning_expands_onto_freed_gpus(self):
        # On a 12-GPU cluster the first job takes 8 GPUs and the second
        # starts narrow on the remaining 4; when the short job finishes, the
        # long job is re-planned onto the freed capacity.
        trace = [
            TraceJob("fg-short", "vgg16", 32, 0.0, 100, JobKind.FOREGROUND),
            TraceJob("fg-long", "vgg16", 32, 0.5, 3000, JobKind.FOREGROUND),
        ]
        result = ClusterScheduler(num_gpus=12).run(trace, "collocation")
        long_record = result.record("fg-long")
        assert long_record.replans >= 1
        assert long_record.width == 8

    def test_collocation_soaks_idle_gpu_time(self):
        # With the cluster fully owned by a foreground job, a background
        # arrival can only make progress by collocating.
        trace = [
            TraceJob("fg", "vgg16", 32, 0.0, 2000, JobKind.FOREGROUND),
            TraceJob("bg", "vgg16", 4, 1.0, 50, JobKind.BACKGROUND),
        ]
        sched = ClusterScheduler(num_gpus=4)
        col = sched.run(trace, "collocation")
        srgs = sched.run(trace, "srgs")
        # The backfilling policy must wait for the foreground job to finish;
        # the collocation-aware policy finishes the background job earlier.
        assert col.record("bg").finish_time < srgs.record("bg").finish_time
        assert col.metrics.utilization > srgs.metrics.utilization

    def test_invalid_inputs_rejected(self, scheduler):
        with pytest.raises(ValueError):
            ClusterScheduler(num_gpus=0)
        with pytest.raises(ValueError):
            scheduler.run([], "fifo")
        duplicate = [
            TraceJob("same", "vgg16", 32, 0.0, 10),
            TraceJob("same", "vgg16", 32, 1.0, 10),
        ]
        with pytest.raises(ValueError):
            scheduler.run(duplicate, "fifo")
        trace = [TraceJob("a", "vgg16", 32, 0.0, 10)]
        with pytest.raises(KeyError):
            scheduler.run(trace, "no-such-policy")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_advance_to_rejects_non_finite_time(self, bad):
        # Unchecked, nan would drain every event without moving the clock,
        # and inf would drain them and leave the clock at inf.
        engine = SchedulerEngine(ClusterScheduler(num_gpus=8), "collocation")
        for job in synthetic_trace(6, seed=3, models=("vgg16",)):
            engine.add_job(job)
        assert engine.advance_to(1.0) > 0
        queued, clock = len(engine.queue), engine.clock
        with pytest.raises(ValueError, match="time"):
            engine.advance_to(bad)
        assert len(engine.queue) == queued and engine.clock == clock
        engine.drain()
        assert engine.result().metrics.num_jobs == 6

    def test_result_record_lookup(self, scheduler, small_trace):
        result = scheduler.run(small_trace, "fifo")
        name = small_trace[0].name
        assert result.record(name).name == name
        with pytest.raises(KeyError):
            result.record("missing")
