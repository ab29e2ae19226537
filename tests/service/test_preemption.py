"""Suspension of background work at the service level.

The acceptance scenario: garbage collection has just started erasing
blocks on the single chip when an urgent point query with a deadline
arrives.  The exact event replay suspends the erase in flight and meets
the deadline that the frozen first-come-first-served sweep
(``tests/reference_control_path.py``) -- which suspends nothing and so
waits out the 3.5 ms erase -- provably misses: same queries, same
chips, same measured sense durations, only the replay differs.
Foreground queries are never suspended, and the sweep's suspensions
cost no time.  Everything here is deterministic: timing comes from the
physically derived tMWS model and the discrete-event replay, not wall
clocks.
"""

import inspect
from dataclasses import fields

import numpy as np
import pytest

import reference_control_path as reference
from repro.core.expressions import And, Operand, and_all, evaluate
from repro.flash.geometry import ChipGeometry
from repro.service import ServiceStats
from repro.service import service as service_module
from repro.service.scheduler import QueryInfo, job_directives
from repro.service.service import QueryService
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)

#: Vectors written and deleted before the run: the chip is left with
#: too few free sub-blocks, so the first window's close starts GC.
N_CHURN = 28

#: Splits the urgent query's two completion times: ~155 us with the
#: erase suspended (the window closes at 110 us, then one sense) vs
#: ~14.1 ms when it waits out the four erases GC has queued.
DEADLINE_US = 300.0


def make_ssd(seed=0):
    ssd = SmallSsd(n_chips=1, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed + 100)
    env = {}
    for name in "abcdef":
        env[name] = rng.integers(
            0, 2, 2 * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    for i in range(N_CHURN):
        bits = rng.integers(0, 2, 2 * GEOMETRY.page_size_bits, dtype=np.uint8)
        ssd.write_vector(f"x{i}", bits, group=f"x{i // 4}")
    for i in range(N_CHURN):
        ssd.delete_vector(f"x{i}")
    return ssd, env


def _submit_collision(svc):
    """Window 1 (closes at 10 us): one bulk scan, after which GC erases
    in the die's idle time.  Window 2 (closes at 110 us): a bulk scan
    and an urgent deadline point query, both arriving while the first
    erase is in flight."""
    bulk = [
        svc.submit(
            and_all([Operand(n) for n in "abcdef"]),
            at_us=1.0,
            client="bulk",
        ),
        svc.submit(
            and_all([Operand(n) for n in "abcd"]),
            at_us=100.0,
            client="bulk",
        ),
    ]
    urgent = svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=101.0,
        client="pt",
        deadline_us=DEADLINE_US,
    )
    return bulk, urgent


def _run(monkeypatch, *, suspension=True, maintenance=True):
    """One run of the collision; ``suspension=False`` replays it
    through the frozen first-come-first-served sweep instead."""
    with monkeypatch.context() as patch:
        if not suspension:
            patch.setattr(
                service_module,
                "StageSweep",
                lambda: reference.BufferedSweep(
                    reference.simulate_stages_fcfs
                ),
            )
        ssd, env = make_ssd()
        svc = ssd.service(
            policy="edf", window_us=10.0, maintenance=maintenance
        )
        bulk, urgent = _submit_collision(svc)
        report = svc.run()
    by_id = {q.query_id: q for q in report.queries}
    return report, by_id, bulk, urgent, env


class TestPreemptionBenefit:
    def test_edf_with_preemption_meets_deadline_without_misses(
        self, monkeypatch
    ):
        base_report, base, _, urgent_id, _ = _run(
            monkeypatch, suspension=False
        )
        pre_report, pre, _, _, _ = _run(monkeypatch)

        # Without suspension the urgent query provably misses: it
        # waits out the erase in flight when it arrives.
        assert base[urgent_id].completed_us > DEADLINE_US
        assert base[urgent_id].deadline_met is False
        assert base_report.stats.preemptions == 0
        assert base_report.stats.deadlines_met == 0

        # The replay suspends the erase and the same deadline is met
        # in the same exact simulation, at no suspension cost.
        assert pre[urgent_id].completed_us <= DEADLINE_US
        assert pre[urgent_id].deadline_met is True
        assert pre_report.stats.preemptions >= 1
        assert pre_report.stats.deadlines_met == 1
        assert (
            pre[urgent_id].completed_us < base[urgent_id].completed_us
        )

    def test_bulk_still_completes_and_results_exact(self, monkeypatch):
        """Suspension reorders time, never bits: every query's result
        still matches the NumPy oracle, and the suspended background
        work finishes inside the run (starvation-safe)."""
        report, by_id, _, _, env = _run(monkeypatch)
        for served in by_id.values():
            np.testing.assert_array_equal(
                served.result.bits, evaluate(served.expr, env)
            )
            assert served.completed_us > 0.0
        # The erases yielded and resumed: the same background work as
        # the replay that never suspends, all of it inside the run.
        base_report, *_ = _run(monkeypatch, suspension=False)
        stats = report.stats
        assert stats.maintenance_overhead_us == (
            base_report.stats.maintenance_overhead_us
        )
        assert stats.maintenance_overhead_us > 0.0
        assert 0.0 < stats.maintenance_lag_us <= stats.makespan_us

    def test_stats_surface_utilization_and_preemptions(self, monkeypatch):
        report, *_ = _run(monkeypatch)
        stats = report.stats
        assert stats.preemptions >= 1
        assert "chip0" in stats.resource_utilization
        assert "chan0" in stats.resource_utilization
        assert "ext" in stats.resource_utilization
        assert stats.chip_utilization["chip0"] > 0.0
        assert 0.0 <= stats.channel_utilization["chan0"] <= 1.0
        assert "preemptions" in stats.describe()

    def test_preemption_off_is_exact_fcfs_baseline(self, monkeypatch):
        """With no background work there is nothing to suspend: the
        replay reproduces the frozen first-come-first-served sweep
        float for float -- completion times and utilizations."""
        report, by_id, *_ = _run(monkeypatch, maintenance=False)
        assert report.stats.preemptions == 0
        twin_report, twin, *_ = _run(
            monkeypatch, suspension=False, maintenance=False
        )
        for qid, served in by_id.items():
            assert served.completed_us == twin[qid].completed_us
        assert (
            report.stats.resource_utilization
            == twin_report.stats.resource_utilization
        )


def test_the_service_has_no_suspension_budget_to_set():
    """How often background work yields follows from the
    forward-progress rule, and suspending costs nothing: 9 keywords,
    none of them a budget or a cost, and no overhead to report."""
    parameters = inspect.signature(QueryService.__init__).parameters
    assert sum(p.kind is p.KEYWORD_ONLY for p in parameters.values()) == 9
    assert not {
        "max_suspends", "suspend_cost_us", "resume_cost_us"
    } & set(parameters)
    assert "preemption_overhead_us" not in {
        f.name for f in fields(ServiceStats)
    }


class TestJobDirectives:
    def test_deadline_query_is_urgent_and_non_preemptible(self):
        priority, deadline_s = job_directives(
            QueryInfo(priority=2, deadline_us=500.0)
        )
        assert priority == 2.0
        assert deadline_s == pytest.approx(500e-6)
        # Its pipeline jobs are foreground, a class nothing suspends.
        ssd, _ = make_ssd()
        job = ssd.engine.stage_job(
            0, 40.0, priority=priority, deadline_s=deadline_s
        )
        assert job.background is False

    def test_bulk_query_is_best_effort(self):
        assert job_directives(QueryInfo()) == (0.0, None)
