"""The die queue at the service level: who carries which urgency into
the event replay, and who waits for whom.

Under ``edf`` a window's jobs carry the scheduler's intent and the
replay's dies serve their waiters by it; ``fifo`` and ``balanced``
record a deadline but ignore it, so their reports are those of the
frozen first-come-first-served sweep
(``tests/reference_control_path.py``), field for field.  A job waits
for the data it shares: a share group's jobs inherit the group's most
urgent subscriber, a reconstructed follower and a plan that reuses a
lost page another plan rebuilt queue markers behind the survivor reads,
and no query completes before the last of its jobs.

Every test reads the replay itself: the service builds its event sweep
from ``StageSweep``, a global of ``repro.service.service``, so a
``BufferedSweep`` (``tests/reference_control_path.py``) in its place
holds the run's listed jobs and replays them at the run's end through a
one-shot sweep, whose ``StageReport`` it keeps; the window's outcomes
say which job is whose.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_control_path as reference
from reference_data_plane import Hit
from repro.core.expressions import (
    And,
    Operand,
    Or,
    Xor,
    and_all,
    evaluate,
    operand_names,
    or_all,
)
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import service as service_module
from repro.ssd.controller import SmallSsd
from repro.ssd.maintenance import MaintenanceConfig

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "service_fingerprint", REPO / "tools" / "service_fingerprint.py"
)
fingerprint = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = fingerprint  # dataclasses resolve their module
_SPEC.loader.exec_module(fingerprint)

#: The production one-shot sweep, whatever recorder currently stands in
#: for the per-window call.
SIMULATE = service_module.simulate_stages

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)
VICTIM = 2


def build(n_chips=4, n_chunks=6, parity=False, seed=5, injector=None):
    ssd = SmallSsd(
        n_chips=n_chips,
        geometry=GEOMETRY,
        seed=seed,
        parity=parity,
        fault_injector=injector,
    )
    rng = np.random.default_rng(seed + 1)
    env = {
        name: rng.integers(0, 2, ssd.page_bits * n_chunks, dtype=np.uint8)
        for name in "abcd"
    }
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    return ssd, env


class Replay:
    """Record what a service's ``run()`` calls hand the event replay,
    each run replayed at its end through the one-shot ``simulate``.

    ``listed`` holds, per ``run()``, one entry per chunk task in
    listing order: ``(outcome, (job, done_s), [(job, done_s), ...])``
    -- the task's ``ChunkOutcome`` (a :class:`Hit` if the result cache
    served it), its own pipeline job and the job of each of its
    ``recovery_work`` entries, each with its completion time."""

    def __init__(self, monkeypatch, service, simulate=SIMULATE):
        self.listed: list[list] = []
        self._outcomes: list = []
        execute = service.engine.execute_tasks
        replay = self

        def recording_execute(tasks, **kwargs):
            result = execute(tasks, **kwargs)
            self._outcomes.extend(
                outcome or Hit(tasks.task(position), words)
                for position, (words, outcome) in enumerate(
                    zip(result.cached, result.outcomes)
                )
            )
            return result

        class RecordingSweep(reference.BufferedSweep):
            def close(self):
                done, report = super().close()
                foreground = (
                    (job, done)
                    for job, done in zip(self.jobs, report.completion_times)
                    if not job.background
                )
                replay.listed.append(
                    [
                        (
                            outcome,
                            next(foreground),
                            [
                                next(foreground)
                                for _ in getattr(outcome, "recovery_work", ())
                            ],
                        )
                        for outcome in replay._outcomes
                    ]
                )
                assert next(foreground, None) is None
                replay._outcomes = []
                return done, report

        monkeypatch.setattr(service.engine, "execute_tasks", recording_execute)
        monkeypatch.setattr(
            service_module, "StageSweep", lambda: RecordingSweep(simulate)
        )


def assert_oracle_identical(report, env):
    for query in report.queries:
        assert query.error is None
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


# ----------------------------------------------------------------------
# A deadline sense passes the best-effort backlog -- under ``edf`` only
# ----------------------------------------------------------------------

SCANS = ("abcd", "abc", "bcd", "acd", "abd")


def _collide(policy, monkeypatch, simulate=SIMULATE):
    """Window 1 (closes at 10 us): five best-effort scans on the only
    chip.  Window 2 (closes at 20 us): one deadline point query."""
    ssd, env = build(n_chips=1, n_chunks=2)
    service = ssd.service(policy=policy, window_us=10.0)
    replay = Replay(monkeypatch, service, simulate)
    for i, names in enumerate(SCANS):
        service.submit(
            and_all([Operand(n) for n in names]), at_us=float(i), client="scan"
        )
    urgent = service.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="pt",
        deadline_us=140.0,
    )
    report = service.run()
    assert_oracle_identical(report, env)
    return report, urgent, replay


def test_deadline_query_passes_the_backlog_under_edf_only(monkeypatch):
    reports = {
        policy: _collide(policy, monkeypatch)
        for policy in ("fifo", "balanced", "edf")
    }
    for policy in ("fifo", "balanced"):
        report, urgent, _ = reports[policy]
        # Behind all five scans of the window before.
        assert report.queries[urgent].deadline_met is False
        assert report.stats.deadlines_met == 0
    report, urgent, _ = reports["edf"]
    assert report.queries[urgent].deadline_met is True
    assert report.stats.deadlines_met == 1
    # Non-preemptive and work-conserving: the die does the same work,
    # so the run ends when it ended first-come-first-served.
    assert report.stats.preemptions == 0
    assert report.stats.makespan_us == pytest.approx(
        reports["fifo"][0].stats.makespan_us, rel=1e-12
    )


@pytest.mark.parametrize("policy", ("fifo", "balanced"))
def test_other_policies_report_what_the_frozen_fcfs_sweep_reports(
    policy, monkeypatch
):
    """``repr``-identical ``ServiceStats`` and ``ServedQuery``s whether
    the replay is the sweep or the parent's frozen FCFS body: no
    urgency reaches a job the policy does not schedule by."""

    def frozen(jobs):
        return reference.simulate_stages_fcfs(jobs)

    report, _, replay = _collide(policy, monkeypatch)
    expected, _, _ = _collide(policy, monkeypatch, simulate=frozen)
    assert repr(fingerprint.canonical(report.stats)) == repr(
        fingerprint.canonical(expected.stats)
    )
    assert [repr(fingerprint.canonical(q)) for q in report.queries] == [
        repr(fingerprint.canonical(q)) for q in expected.queries
    ]
    for _, (job, _), _ in replay.listed[0]:
        assert (job.deadline, job.priority) == (None, 0.0)


# ----------------------------------------------------------------------
# Inheritance: a follower lends its leader its deadline
# ----------------------------------------------------------------------


def _share_group(monkeypatch, with_follower):
    """One window on one chip: a best-effort backlog, then a shape
    submitted best-effort first and -- ``with_follower`` -- again with
    a deadline, so the deadline query is the follower of a best-effort
    leader."""
    ssd, env = build(n_chips=1, n_chunks=1)
    service = ssd.service(policy="edf", window_us=10.0)
    replay = Replay(monkeypatch, service)
    for i, names in enumerate(SCANS):
        service.submit(
            and_all([Operand(n) for n in names]), at_us=float(i), client="scan"
        )
    shape = Xor(Operand("a"), Operand("d"))
    leader = service.submit(shape, at_us=6.0, client="scan")
    follower = None
    if with_follower:
        follower = service.submit(
            shape, at_us=7.0, client="pt", deadline_us=500.0
        )
    report = service.run()
    assert_oracle_identical(report, env)
    return report, replay.listed[0], leader, follower


def test_deadline_follower_lends_its_leader_the_deadline(monkeypatch):
    report, listed, leader, follower = _share_group(monkeypatch, True)
    by_query = {outcome.task.query: (outcome, job, done)
                for outcome, (job, done), _ in listed}
    lead_outcome, lead_job, lead_done = by_query[leader]
    follow_outcome, follow_job, follow_done = by_query[follower]
    assert not lead_outcome.shared and follow_outcome.shared
    assert listed[follow_outcome.leader][0] is lead_outcome
    assert report.queries[leader].deadline_us is None
    # Leader and follower carry the group's urgency: the follower's.
    assert lead_job.deadline == follow_job.deadline == 500.0 * 1e-6
    # The sense went ahead of the backlog listed before it ...
    scans_done = [
        done for outcome, (_, done), _ in listed
        if outcome.task.query not in (leader, follower)
    ]
    assert lead_done < min(scans_done)
    # ... and neither query leaves before it has ended.
    sense_end_us = 10.0 + lead_outcome.latency_us
    assert report.queries[leader].completed_us >= sense_end_us
    assert report.queries[follower].completed_us >= sense_end_us
    assert follow_done >= lead_done

    _, listed, leader, _ = _share_group(monkeypatch, False)
    (lead_job,) = [
        job for outcome, (job, _), _ in listed
        if outcome.task.query == leader
    ]
    assert lead_job.deadline is None


# ----------------------------------------------------------------------
# Degraded reads: followers and page sharers wait for the reads
# ----------------------------------------------------------------------


def test_reconstructed_follower_waits_for_its_leaders_reads(monkeypatch):
    """Two queries of one shape in one window, one chip dead: the
    follower's chunks on the dead chip are the leader's reconstruction,
    so the follower completes no earlier than the leader's last
    survivor read (on the parent it left at window close + DMA: its
    only job there sat on the dead chip's idle die)."""
    ssd, env = build(parity=True)
    service = ssd.service(window_us=100.0)
    replay = Replay(monkeypatch, service)
    ssd.kill_chip(VICTIM)
    shape = or_all([And(Operand("a"), Operand("b")), Operand("c")])
    leader = service.submit(shape, at_us=0.0)
    follower = service.submit(shape, at_us=40.0)
    report = service.run()
    assert_oracle_identical(report, env)

    reads_done = [
        done
        for outcome, _, recovery in replay.listed[0]
        if outcome.task.query == leader
        for (chip, busy_us), (_, done) in zip(outcome.recovery_work, recovery)
        if busy_us > 0.0
    ]
    assert reads_done
    assert report.queries[follower].completed_us >= max(reads_done) * 1e6
    assert report.queries[leader].reconstruction_us > 0.0
    assert report.queries[follower].reconstructed_chunks > 0
    assert report.queries[follower].reconstruction_us == 0.0
    # Marker for marker: zero-length, on the dies the leader read, and
    # done no earlier than the read there.
    leads = {
        outcome.task.chunk: (outcome, recovery)
        for outcome, _, recovery in replay.listed[0]
        if outcome.reconstructed and not outcome.shared
    }
    followers = [
        (outcome, recovery)
        for outcome, _, recovery in replay.listed[0]
        if outcome.reconstructed and outcome.shared
    ]
    assert followers
    for outcome, markers in followers:
        lead, reads = leads[outcome.task.chunk]
        assert replay.listed[0][outcome.leader][0] is lead
        assert outcome.recovery_work == tuple(
            (chip, 0.0) for chip, _ in lead.recovery_work
        )
        for (marker, marked), (read, read_done) in zip(markers, reads):
            assert marker.resources == read.resources
            assert marker.durations[0] == 0.0
            assert marked >= read_done


def test_a_lost_page_is_reconstructed_once_per_window():
    """Three different shapes over the same two vectors: between them
    they rebuild each lost page once (three survivor reads on a 4-chip
    stripe: two siblings and the parity page), not once per shape and
    operand -- and the next window rebuilds again: the memo does not
    outlive the call."""
    # Nine chunks: three full rotation groups of three data chunks.
    ssd, env = build(parity=True, n_chunks=9)
    service = ssd.service(window_us=100.0)
    ssd.kill_chip(VICTIM)
    a, b = Operand("a"), Operand("b")
    shapes = [And(a, b), Or(a, b), Xor(a, b)]
    lost_chunks = [
        chunk for chunk in range(9) if ssd.ftl.chip_of_chunk(chunk) == VICTIM
    ]
    assert len(lost_chunks) > 1
    distinct_pages = 2 * len(lost_chunks)
    for start_us in (0.0, 1000.0):
        for i, shape in enumerate(shapes):
            service.submit(shape, at_us=start_us + 10.0 * i)
        report = service.run()
        assert_oracle_identical(report, env)
        stats = report.stats
        assert stats.reconstructed_plans == 3 * len(lost_chunks)
        assert stats.reconstruction_senses == 3 * distinct_pages
        # First in the schedule, first charged: whoever came behind on
        # every lost page paid nothing, and says so.
        assert all(q.reconstructed_chunks for q in report.queries)
        paid = [q.reconstruction_us for q in report.queries]
        assert 0.0 in paid
        assert sum(paid) == pytest.approx(
            stats.reconstruction_overhead_us, rel=1e-9
        )


# ----------------------------------------------------------------------
# Causality under ordering, on the chaos soak's shape
# ----------------------------------------------------------------------


def _soak_traffic(start_us, n=8):
    """``tests/service/test_stats_fold.py``'s four shapes, each twice
    in one 100 us window, with the deadlines where ordering could
    break causality: the second ``a & b`` carries a tight one and the
    second ``b ^ d`` a loose one -- deadline followers of best-effort
    leaders, so best-effort queries issue the survivor reads deadline
    queries wait for, and the ``b ^ d`` group reuses the lost page of
    ``b`` the ``a & b`` group read."""
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), or_all([And(a, b), c]), Xor(b, d), And(And(a, c), d)]
    slack_us = {4: 150.0, 6: 5000.0}
    trace = []
    for i in range(n):
        at_us = start_us + 10.0 * i
        deadline_us = at_us + slack_us[i] if i in slack_us else None
        expr = pool[i % len(pool)]
        trace.append((at_us, "tenant", expr, i % 3, deadline_us))
    return trace


def test_nothing_completes_before_the_work_its_data_comes_from(monkeypatch):
    """Faults + stalls, overwrite churn driving GC, a chip killed
    mid-trace on a parity SSD, ``edf``, result cache on.  Re-derived
    from the listed jobs and their completion times alone: no shared
    follower's job completes before its leader's, no marker before the
    survivor read it waits for, no query before the last of its jobs.
    (Without inheritance the deadline followers of this trace overtake
    their best-effort leaders and the replay reads better than it
    is.)"""
    injector = FaultInjector(
        FaultConfig(seed=17, sense_fault_rate=0.02, stall_rate=0.02)
    )
    ssd, env = build(parity=True, seed=17, injector=injector)
    service = ssd.service(
        window_us=100.0,
        policy="edf",
        result_cache=True,
        maintenance=MaintenanceConfig(
            gc_low_watermark=31, gc_high_watermark=32
        ),
    )
    replay = Replay(monkeypatch, service)
    reports = []
    for round_index in range(8):
        if round_index == 3:
            ssd.kill_chip(VICTIM)
        elif round_index < 3:
            ssd.delete_vector("a")
            ssd.write_vector("a", env["a"], group="g")
        service.submit_traffic(_soak_traffic(1000.0 * round_index))
        reports.append(service.run())

    followers = markers = 0
    for report, listed in zip(reports, replay.listed):
        assert_oracle_identical(report, env)
        last_job_us: dict[int, float] = {}
        #: Per admission window (a ready time): who sensed a share
        #: key, and who read a lost page on which die.
        leaders: dict[tuple, float] = {}
        page_reads: dict[tuple, dict[str, float]] = {}
        for outcome, (job, done), recovery in listed:
            task = outcome.task
            for _, finished in [(job, done), *recovery]:
                last_job_us[task.query] = max(
                    last_job_us.get(task.query, 0.0), finished * 1e6
                )
            if isinstance(outcome, Hit):
                continue
            key = (job.ready_at, task.chip, task.plan)
            if outcome.shared:
                followers += 1
                assert done >= leaders[key]
            else:
                leaders[key] = done
            if not outcome.reconstructed:
                continue
            # Reads first: they say on which dies each lost page this
            # task names was read (now, or by an earlier task of the
            # window).  Then, page by page and die by die: the task has
            # a job of its own there -- a read or a marker -- that
            # completes no earlier than the read.
            pages = [
                (job.ready_at, name, task.chunk)
                for name in operand_names(task.expr)
            ]
            mine = {}
            for (_, busy_us), (listed_job, finished) in zip(
                outcome.recovery_work, recovery
            ):
                die = listed_job.resources[0]
                mine[die] = finished
                if busy_us > 0.0:
                    for page in pages:
                        page_reads.setdefault(page, {}).setdefault(
                            die, finished
                        )
                else:
                    markers += 1
                    assert listed_job.durations[0] == 0.0
            for page in pages:
                for die, read_done in page_reads[page].items():
                    assert die in mine
                    assert mine[die] >= read_done
        for query in report.queries:
            assert query.completed_us == last_job_us[query.query_id]
    # The trace exercised both kinds of waiting.
    assert followers and markers
    assert sum(r.stats.deadlines_met for r in reports)
