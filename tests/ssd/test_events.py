"""Tests for the timeline simulator (repro.ssd.events)."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_arbitrated import simulate_arbitrated
from repro.ssd.events import (
    StageJob,
    StageReport,
    StageSweep,
    simulate_stages,
)


class TestStageJob:
    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            StageJob(0.0, (1.0,), ("a", "b"))
        with pytest.raises(ValueError, match="at least one"):
            StageJob(0.0, (), ())
        with pytest.raises(ValueError, match="duration must be >= 0"):
            StageJob(0.0, (1.0, -1.0), ("a", "b"))


class TestSimulateStages:
    def test_empty_stream_is_idle(self):
        """An empty job stream (e.g. an admission window that admitted
        nothing) simulates to a zero-makespan idle report."""
        report = simulate_stages([])
        assert report.makespan == 0.0
        assert report.completion_times == []
        assert report.bottleneck == "idle"
        assert report.utilization("anything") == 0.0

    def test_single_job(self):
        report = simulate_stages(
            [StageJob(0.0, (2.0, 3.0), ("a", "b"))]
        )
        assert report.makespan == 5.0
        assert report.resource_busy == {"a": 2.0, "b": 3.0}
        assert report.bottleneck == "b"

    def test_two_stage_pipeline_overlaps(self):
        """Three jobs through stage a (1 s) then stage b (2 s):
        b is the bottleneck, makespan = 1 + 3 x 2."""
        jobs = [StageJob(0.0, (1.0, 2.0), ("a", "b")) for _ in range(3)]
        report = simulate_stages(jobs)
        assert report.makespan == pytest.approx(7.0)

    def test_parallel_resources(self):
        """Jobs on independent resources do not serialize."""
        jobs = [
            StageJob(0.0, (5.0,), ("a",)),
            StageJob(0.0, (5.0,), ("b",)),
        ]
        assert simulate_stages(jobs).makespan == 5.0

    def test_fan_in_to_shared_stage(self):
        """Two producers feeding one consumer serialize on it."""
        jobs = [
            StageJob(0.0, (1.0, 4.0), ("a", "shared")),
            StageJob(0.0, (1.0, 4.0), ("b", "shared")),
        ]
        assert simulate_stages(jobs).makespan == pytest.approx(9.0)

    def test_negative_duration_rejected(self):
        """FCFS twin of the arbitrated test: the job validates its own
        durations, so neither simulator re-checks per event."""
        with pytest.raises(ValueError, match="duration must be >= 0"):
            simulate_stages([StageJob(0.0, (1.0, -1.0), ("r", "s"))])

    def test_ready_times_respected(self):
        jobs = [StageJob(10.0, (1.0,), ("a",))]
        assert simulate_stages(jobs).makespan == 11.0

    def test_fcfs_order_by_ready_time(self):
        """A later-ready job must not overtake an earlier-ready one on
        the same resource."""
        jobs = [
            StageJob(5.0, (10.0,), ("r",)),
            StageJob(0.0, (1.0,), ("r",)),
        ]
        report = simulate_stages(jobs)
        # Early job runs [0,1]; late job [5,15].
        assert report.completion_times == [15.0, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(
        durations=st.lists(
            st.tuples(
                st.floats(0.0, 10.0), st.floats(0.0, 10.0)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_makespan_bounds(self, durations):
        """Makespan is at least the busiest resource's work and at
        most the fully serial sum."""
        jobs = [
            StageJob(0.0, (a, b), ("s1", "s2")) for a, b in durations
        ]
        report = simulate_stages(jobs)
        total_a = sum(a for a, _ in durations)
        total_b = sum(b for _, b in durations)
        assert report.makespan >= max(total_a, total_b) - 1e-9
        assert report.makespan <= total_a + total_b + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 20),
        t1=st.floats(0.1, 5.0),
        t2=st.floats(0.1, 5.0),
    )
    def test_steady_state_pipeline_formula(self, n, t1, t2):
        """For a uniform 2-stage pipeline the makespan equals
        fill + n x bottleneck."""
        jobs = [StageJob(0.0, (t1, t2), ("a", "b")) for _ in range(n)]
        report = simulate_stages(jobs)
        expected = min(t1, t2) + n * max(t1, t2)
        assert report.makespan == pytest.approx(expected, rel=1e-9)


class TestStageReportRobustness:
    """bottleneck/utilization must accept arbitrary resource name sets,
    not just the fixed die/channel/link trio."""

    def test_unknown_resource_reports_zero(self):
        report = simulate_stages([StageJob(0.0, (2.0,), ("weird-name",))])
        assert report.utilization("weird-name") == 1.0
        assert report.utilization("chan7") == 0.0
        assert report.utilization("") == 0.0

    def test_bottleneck_deterministic_under_ties(self):
        report = simulate_stages(
            [
                StageJob(0.0, (2.0,), ("zeta",)),
                StageJob(0.0, (2.0,), ("alpha",)),
            ]
        )
        assert report.bottleneck == "alpha"

    def test_empty_report_is_idle_not_keyerror(self):
        report = StageReport(makespan=0.0, completion_times=[])
        assert report.bottleneck == "idle"
        assert report.utilizations() == {}
        assert report.class_utilization() == {}

    def test_class_utilization_groups_by_prefix(self):
        jobs = [
            StageJob(0.0, (4.0, 1.0), ("chip0", "chan0")),
            StageJob(0.0, (2.0, 1.0), ("chip1", "chan0")),
            StageJob(0.0, (1.0,), ("ext",)),
        ]
        report = simulate_stages(jobs)
        classes = report.class_utilization()
        assert set(classes) == {"chip", "chan", "ext"}
        assert classes["chip"] == pytest.approx(
            (report.utilization("chip0") + report.utilization("chip1")) / 2
        )

    def test_digit_only_name_forms_own_class(self):
        report = simulate_stages([StageJob(0.0, (1.0,), ("7",))])
        assert report.class_utilization() == {"7": 1.0}


class TestArbitrationConfig:
    """What configures the die's arbitration: each job's urgency, and
    nothing else."""

    def test_no_suspension_budget_to_set(self):
        """No budget and no cost: how often a unit yields follows from
        the forward-progress rule, and suspending costs nothing."""
        assert not inspect.signature(StageSweep).parameters
        assert list(inspect.signature(simulate_stages).parameters) == [
            "jobs",
            "sweep",
            "tags",
        ]

    def test_urgency_ordering(self):
        urgent = StageJob(0.0, (1.0,), ("r",), deadline=10.0)
        later = StageJob(0.0, (1.0,), ("r",), deadline=20.0)
        bulk = StageJob(0.0, (1.0,), ("r",))
        vip_bulk = StageJob(0.0, (1.0,), ("r",), priority=3.0)
        assert urgent.urgency < later.urgency < vip_bulk.urgency
        assert vip_bulk.urgency < bulk.urgency


def _job_lists():
    """Random multi-stage job streams over a small shared resource set
    -- deliberately urgency-free, so ordering by urgency at every
    resource has nothing to order by."""
    stage = st.tuples(
        st.floats(0.0, 10.0), st.sampled_from(["a", "b", "c"])
    )
    def build(items):
        return [
            StageJob(
                ready_at=ready,
                durations=tuple(d for d, _ in stages),
                resources=tuple(r for _, r in stages),
            )
            for ready, stages in items
        ]
    return st.lists(
        st.tuples(
            st.floats(0.0, 20.0),
            st.lists(stage, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=12,
    ).map(build)


def _service_lists():
    """Urgency-free job lists of the service's shape: chip -> channel ->
    external link, a chip only ever at stage 0, one transfer time per
    channel and link.  Few distinct times, so ties are common."""
    times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])

    def build(dma, ext, items):
        return [
            StageJob(
                ready,
                (sense, dma, ext),
                (f"chip{chip}", f"chan{chip % 2}", "ext"),
            )
            for ready, sense, chip in items
        ]

    return st.builds(
        build,
        times,
        times,
        st.lists(
            st.tuples(times, times, st.integers(0, 3)),
            min_size=1,
            max_size=12,
        ),
    )


class TestArbitratedEquivalence:
    """The sweep and the arbitrated oracle
    (``tests/reference_arbitrated.py``), which orders every resource by
    urgency, on lists without urgency differences.  That the sweep then
    serves every die first-come-first-served is
    ``test_events_equivalence.py::test_uniform_urgency_equals_reference``."""

    @settings(max_examples=60, deadline=None)
    @given(jobs=_service_lists())
    def test_urgency_free_schedule_identical(self, jobs):
        """On the service's shape the oracle serves an urgency-free list
        as the sweep does: every die end, every resource total and the
        makespan ``==``, the completion times as a multiset.  Only which
        of two jobs tied at a channel goes first may differ."""
        base = simulate_stages(jobs)
        arb = simulate_arbitrated(jobs)
        dies = [
            dataclasses.replace(
                j, durations=j.durations[:1], resources=j.resources[:1]
            )
            for j in jobs
        ]
        assert (
            simulate_arbitrated(dies).completion_times
            == simulate_stages(dies).completion_times
        )
        assert sorted(arb.completion_times) == sorted(base.completion_times)
        assert arb.resource_busy == base.resource_busy
        assert arb.resource_jobs == base.resource_jobs
        assert arb.makespan == base.makespan
        assert arb.preemptions == 0

    @settings(max_examples=40, deadline=None)
    @given(jobs=_job_lists())
    def test_equal_deadlines_never_preempt(self, jobs):
        """Equal urgency keeps strict FIFO: the same deadline on every
        job changes nothing, in either simulator."""
        dl = [dataclasses.replace(j, deadline=100.0) for j in jobs]
        base = simulate_stages(jobs)
        assert simulate_stages(dl).completion_times == base.completion_times
        arb, arb_base = simulate_arbitrated(dl), simulate_arbitrated(jobs)
        assert arb.completion_times == arb_base.completion_times
        assert arb.preemptions == 0

    def test_empty_stream(self):
        report = simulate_stages([])
        assert report.makespan == 0.0
        assert report.bottleneck == "idle"
        assert simulate_arbitrated([]).makespan == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_stages([StageJob(0.0, (-1.0,), ("r",))])


def _bulk(ready_at, seconds, **kwargs):
    """A background job on the die: the one class a foreground arrival
    suspends."""
    return StageJob(ready_at, (seconds,), ("die",), background=True, **kwargs)


def _suspended(jobs):
    """The sweep's report, after checking that the arbitrated oracle
    schedules the same jobs float for float."""
    report = simulate_stages(jobs)
    oracle = simulate_arbitrated(jobs)
    assert report.completion_times == oracle.completion_times
    assert report.resource_busy == oracle.resource_busy
    assert report.resource_preemptions == oracle.resource_preemptions
    assert report.resource_guard_waits == oracle.resource_guard_waits
    return report


class TestPreemption:
    """Exact deterministic arithmetic of the suspend/resume model: a
    foreground arrival suspends the background job on its die, at no
    cost, never a foreground one.  Each scenario runs through the sweep
    and the arbitrated oracle, which must agree."""

    def test_urgent_suspends_bulk(self):
        """Bulk sense of 100 s starts at t=0; an urgent 5 s deadline
        job arrives at t=10: bulk is parked at t=10, urgent runs
        [10, 15], bulk's remaining 90 s runs [15, 105]."""
        jobs = [
            _bulk(0.0, 100.0),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = _suspended(jobs)
        assert report.completion_times == [105.0, 15.0]
        assert report.preemptions == 1
        assert report.resource_preemptions == {"die": 1}
        # 10 (first segment) + 5 (urgent) + 90 (rest).
        assert report.resource_busy["die"] == pytest.approx(105.0)

    def test_without_arbitration_urgent_waits(self):
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = simulate_stages(jobs)
        assert report.completion_times == [100.0, 105.0]
        assert report.preemptions == 0

    def test_non_preemptible_victim_runs_through(self):
        """A foreground victim is never suspended, whatever the
        arrival's urgency."""
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = _suspended(jobs)
        assert report.completion_times == [100.0, 105.0]
        assert report.preemptions == 0

    def test_starvation_bound(self):
        """The forward-progress rule in place of a suspension budget.
        Bulk is parked [10, 15) by the first urgent job, so once back
        on the die it is protected until 15 + 5 = 20: the urgent
        arrival at 17 waits those 3 s -- never for the bulk's 100 --
        and suspends it at 20.  Parked [20, 25), it is protected
        until 30; the arrival at 40 finds it unprotected and suspends
        it at once, however often that happened before."""
        jobs = [_bulk(0.0, 100.0)] + [
            StageJob(at, (5.0,), ("die",), deadline=200.0 + at)
            for at in (10.0, 17.0, 40.0)
        ]
        report = _suspended(jobs)
        # Bulk runs [0,10) [15,20) [25,40) and the other 70 s from 45.
        assert report.completion_times == [115.0, 15.0, 25.0, 45.0]
        assert report.preemptions == 3
        assert report.resource_guard_waits == {"die": 1}
        assert report.resource_busy["die"] == pytest.approx(115.0)

    def test_deadline_outranks_priority_bulk(self):
        """A deadline job suspends background work whatever priority
        that carries, and a best-effort arrival waits its turn behind
        the deadline job instead of suspending anything."""
        jobs = [
            _bulk(0.0, 50.0, priority=100.0),
            StageJob(5.0, (2.0,), ("die",), deadline=10.0),
            StageJob(6.0, (2.0,), ("die",), priority=200.0),
        ]
        report = _suspended(jobs)
        assert report.completion_times[1] == pytest.approx(7.0)
        assert report.completion_times[2] == pytest.approx(9.0)
        assert report.preemptions == 1

    def test_edf_meets_deadline_fcfs_misses(self):
        """The acceptance scenario: a deadline the sweep provably meets
        by suspending the background job and the frozen
        first-come-first-served sweep, which suspends nothing, provably
        misses."""
        import reference_control_path as reference

        jobs = [
            _bulk(0.0, 100.0),
            StageJob(10.0, (5.0,), ("die",), deadline=30.0),
        ]
        fcfs = reference.simulate_stages_fcfs(jobs)
        edf = _suspended(jobs)
        assert fcfs.completion_times[1] > 30.0  # missed
        assert edf.completion_times[1] <= 30.0  # met
