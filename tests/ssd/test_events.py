"""Tests for the timeline simulator (repro.ssd.events)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.events import (
    ArbitrationConfig,
    SerialResource,
    StageJob,
    StageReport,
    simulate_stages,
)


class TestSerialResource:
    def test_fcfs_serialization(self):
        r = SerialResource("r")
        assert r.execute(0.0, 10.0) == (0.0, 10.0)
        assert r.execute(0.0, 5.0) == (10.0, 15.0)
        assert r.execute(20.0, 5.0) == (20.0, 25.0)
        assert r.busy_time == 20.0
        assert r.jobs_served == 3

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SerialResource("r").execute(0.0, -1.0)

    def test_reset(self):
        r = SerialResource("r")
        r.execute(0.0, 5.0)
        r.reset()
        assert r.available_at == 0.0
        assert r.busy_time == 0.0


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
    def test_no_suspension_budget_to_set(self):
        """Two costs and the nearly-done threshold; how often a unit
        yields follows from the forward-progress rule."""
        assert [f.name for f in dataclasses.fields(ArbitrationConfig)] == [
            "suspend_cost_s",
            "resume_cost_s",
            "min_remaining_s",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ArbitrationConfig(suspend_cost_s=-1.0)
        with pytest.raises(ValueError):
            ArbitrationConfig(resume_cost_s=-1.0)
        with pytest.raises(ValueError):
            ArbitrationConfig(min_remaining_s=-1.0)

    def test_urgency_ordering(self):
        urgent = StageJob(0.0, (1.0,), ("r",), deadline=10.0)
        later = StageJob(0.0, (1.0,), ("r",), deadline=20.0)
        bulk = StageJob(0.0, (1.0,), ("r",))
        vip_bulk = StageJob(0.0, (1.0,), ("r",), priority=3.0)
        assert urgent.urgency < later.urgency < vip_bulk.urgency
        assert vip_bulk.urgency < bulk.urgency


def _job_lists():
    """Random multi-stage job streams over a small shared resource set
    -- deliberately urgency-free, so arbitration must not change a
    thing."""
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


class TestArbitratedEquivalence:
    """With no urgency differences the arbitrated simulation must be
    float-identical to the FCFS sweep -- every existing benchmark and
    oracle replays unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(jobs=_job_lists())
    def test_urgency_free_schedule_identical(self, jobs):
        base = simulate_stages(jobs)
        arb = simulate_stages(
            jobs,
            arbitration=ArbitrationConfig(
                suspend_cost_s=1.0, resume_cost_s=2.0
            ),
        )
        assert arb.completion_times == base.completion_times
        assert arb.resource_busy == base.resource_busy
        assert arb.resource_jobs == base.resource_jobs
        assert arb.makespan == base.makespan
        assert arb.preemptions == 0
        assert arb.preemption_overhead == 0.0

    @settings(max_examples=40, deadline=None)
    @given(jobs=_job_lists())
    def test_equal_deadlines_never_preempt(self, jobs):
        """Equal urgency keeps strict FIFO: same deadline on every job
        changes nothing vs. the sweep."""
        from dataclasses import replace

        dl = [replace(j, deadline=100.0) for j in jobs]
        base = simulate_stages(jobs)
        arb = simulate_stages(dl, arbitration=ArbitrationConfig())
        assert arb.completion_times == base.completion_times
        assert arb.preemptions == 0

    def test_empty_stream(self):
        report = simulate_stages([], arbitration=ArbitrationConfig())
        assert report.makespan == 0.0
        assert report.bottleneck == "idle"

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_stages(
                [StageJob(0.0, (-1.0,), ("r",))],
                arbitration=ArbitrationConfig(),
            )


class TestPreemption:
    """Exact deterministic arithmetic of the suspend/resume model."""

    def test_urgent_suspends_bulk(self):
        """Bulk sense of 100 s starts at t=0; an urgent 5 s deadline
        job arrives at t=10.  With suspend=1 / resume=2: bulk is
        parked at t=10 (+1 s suspend), urgent runs [11, 16], bulk's
        remaining 90 s + 2 s resume runs [16, 108]."""
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = simulate_stages(
            jobs,
            arbitration=ArbitrationConfig(
                suspend_cost_s=1.0, resume_cost_s=2.0
            ),
        )
        assert report.completion_times == [108.0, 16.0]
        assert report.preemptions == 1
        assert report.resource_preemptions == {"die": 1}
        assert report.preemption_overhead == 3.0
        # 10 (first segment) + 1 (suspend) + 5 (urgent) + 92 (rest).
        assert report.resource_busy["die"] == pytest.approx(108.0)

    def test_without_arbitration_urgent_waits(self):
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = simulate_stages(jobs)
        assert report.completion_times == [100.0, 105.0]

    def test_non_preemptible_victim_runs_through(self):
        jobs = [
            StageJob(0.0, (100.0,), ("die",), preemptible=False),
            StageJob(10.0, (5.0,), ("die",), deadline=20.0),
        ]
        report = simulate_stages(jobs, arbitration=ArbitrationConfig())
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
        jobs = [StageJob(0.0, (100.0,), ("die",))] + [
            StageJob(at, (5.0,), ("die",), deadline=200.0 + at)
            for at in (10.0, 17.0, 40.0)
        ]
        report = simulate_stages(jobs, arbitration=ArbitrationConfig())
        # Bulk runs [0,10) [15,20) [25,40) and the other 70 s from 45.
        assert report.completion_times == [115.0, 15.0, 25.0, 45.0]
        assert report.preemptions == 3
        assert report.resource_guard_waits == {"die": 1}
        assert report.resource_busy["die"] == pytest.approx(115.0)

    def test_suspension_costs_lengthen_the_protection(self):
        """Parked at 10 and back at 16 (1 s to park, 5 s of urgent
        work), bulk is protected for those 6 s plus the 1 + 2 s its
        suspension cost: until 25.  The arrival at 24 waits for that,
        the bulk is parked at 25 and the urgent job runs [26, 31)."""
        jobs = [StageJob(0.0, (100.0,), ("die",))] + [
            StageJob(at, (5.0,), ("die",), deadline=200.0 + at)
            for at in (10.0, 24.0)
        ]
        report = simulate_stages(
            jobs,
            arbitration=ArbitrationConfig(
                suspend_cost_s=1.0, resume_cost_s=2.0
            ),
        )
        # Bulk: [0,10), 92 left; [16,25), 83 + 2 left from 31.
        assert report.completion_times == [116.0, 16.0, 31.0]
        assert report.preemptions == 2
        assert report.resource_guard_waits == {"die": 1}
        assert report.preemption_overhead == 6.0

    def test_min_remaining_refuses_near_done_victim(self):
        jobs = [
            StageJob(0.0, (10.0,), ("die",)),
            StageJob(9.5, (1.0,), ("die",), deadline=12.0),
        ]
        report = simulate_stages(
            jobs,
            arbitration=ArbitrationConfig(min_remaining_s=1.0),
        )
        assert report.preemptions == 0
        assert report.completion_times == [10.0, 11.0]

    def test_deadline_outranks_priority_bulk(self):
        """A deadline job preempts even a high-priority bulk job, but
        bulk priority alone never preempts equal-class work."""
        jobs = [
            StageJob(0.0, (50.0,), ("die",), priority=100.0),
            StageJob(5.0, (2.0,), ("die",), deadline=10.0),
            StageJob(6.0, (2.0,), ("die",), priority=200.0),
        ]
        report = simulate_stages(jobs, arbitration=ArbitrationConfig())
        assert report.completion_times[1] == pytest.approx(7.0)
        assert report.preemptions == 1

    def test_suspend_cost_delays_preemptor(self):
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=50.0),
        ]
        report = simulate_stages(
            jobs,
            arbitration=ArbitrationConfig(suspend_cost_s=3.0),
        )
        # Urgent starts only after the 3 s park completes.
        assert report.completion_times[1] == pytest.approx(18.0)
        assert report.completion_times[0] == pytest.approx(108.0)

    def test_edf_meets_deadline_fcfs_misses(self):
        """The acceptance scenario: a deadline the arbitrated EDF plane
        provably meets and the plain sweep provably misses."""
        jobs = [
            StageJob(0.0, (100.0,), ("die",)),
            StageJob(10.0, (5.0,), ("die",), deadline=30.0),
        ]
        fcfs = simulate_stages(jobs)
        edf = simulate_stages(jobs, arbitration=ArbitrationConfig())
        assert fcfs.completion_times[1] > 30.0  # missed
        assert edf.completion_times[1] <= 30.0  # met
