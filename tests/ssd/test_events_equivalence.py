"""The arrival-merge FCFS sweep of ``simulate_stages`` reproduces the
one-global-heap reference (``tests/reference_control_path.py``) float
for float: every comparison below is ``==``, never ``approx``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_control_path as reference
from repro.ssd.events import StageJob, background_job, simulate_stages

#: Few distinct values, several of them inexact in binary, so tied
#: ready times and tied stage-end times are the common case and every
#: sum rounds.
READY = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.3, 1.0, 2.5])
DURATION = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.7, 1.0, 1 / 3])
DELAY = st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.4])


@st.composite
def job_streams(draw):
    n_chips = draw(st.integers(1, 6))
    n_channels = draw(st.integers(1, 3))
    jobs = []
    for _ in range(draw(st.integers(1, 40))):
        chip = draw(st.integers(0, n_chips - 1))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            # Background copy/erase: die only.
            jobs.append(
                background_job(
                    f"chip{chip}", draw(DURATION), ready_at=draw(READY)
                )
            )
            continue
        if kind == 1:
            # One resource name at two stage indices: nothing in the
            # sweep may assume a layering of names.
            resources = (f"chip{chip}", "ext", f"chip{chip}")
        elif kind == 2:
            resources = ("ext", f"chan{chip % n_channels}")
        else:
            # Chips feeding one channel feeding the external link.
            resources = (f"chip{chip}", f"chan{chip % n_channels}", "ext")
        jobs.append(
            StageJob(
                draw(READY),
                tuple(draw(DURATION) for _ in resources),
                resources,
                fault_delay_s=draw(DELAY),
            )
        )
    return jobs


def assert_same_report(jobs):
    report = simulate_stages(jobs)
    expected = reference.simulate_stages_fcfs(jobs)
    assert report.completion_times == expected.completion_times
    assert report.makespan == expected.makespan
    assert report.resource_busy == expected.resource_busy
    assert report.resource_jobs == expected.resource_jobs
    assert report.fault_overhead == expected.fault_overhead
    # First-served order of the resources too: reports iterate it.
    assert list(report.resource_busy) == list(expected.resource_busy)
    assert list(report.resource_jobs) == list(expected.resource_jobs)


@settings(max_examples=300, deadline=None)
@given(jobs=job_streams())
def test_fcfs_sweep_equals_reference(jobs):
    assert_same_report(jobs)


def test_arrival_wins_a_tie_with_a_downstream_event():
    """Job 0's second stage becomes ready on ``r`` at t=1.0, exactly
    when job 1 arrives there: the arrival (smaller seq) is served
    first, so job 0 waits behind it."""
    jobs = [
        StageJob(0.0, (1.0, 1.0), ("a", "r")),
        StageJob(1.0, (5.0,), ("r",)),
    ]
    assert_same_report(jobs)
    assert simulate_stages(jobs).completion_times == [7.0, 6.0]


def test_tied_stage_ends_across_chips_keep_creation_order():
    """Two chips finish at the same instant and feed one channel: the
    downstream event created first (job 1's -- it arrived first on the
    clock) is served first."""
    jobs = [
        StageJob(0.5, (0.5, 1.0), ("chip0", "chan0")),
        StageJob(0.0, (1.0, 1.0), ("chip1", "chan0")),
    ]
    assert_same_report(jobs)
    assert simulate_stages(jobs).completion_times == [3.0, 2.0]


def test_window_stream_of_shared_zero_latency_jobs():
    """The service lists one ``StageJob`` instance once per
    cache-served chunk; the sweep must treat every listing as its own
    job."""
    shared = StageJob(0.4, (0.0, 0.1, 0.2), ("chip0", "chan0", "ext"))
    other = StageJob(0.4, (0.3, 0.1, 0.2), ("chip1", "chan0", "ext"))
    jobs = [shared, shared, other, shared, shared]
    assert_same_report(jobs)
