"""What the service lists for the event sweep: rows, checked as listed.

The service hands the sweep plain rows (``repro.ssd.events``, "Rows")
rather than ``StageJob`` objects, so no per-job constructor checks
them any more: each value is checked where it enters.  A die time that
is not a finite number of microseconds must still stop the run, naming
itself, before the sweep sees it; and a sweep fed rows must serve them
exactly as it serves the ``StageJob`` objects they stand for.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
from reference_control_path import job_of_row
from reference_data_plane import GEOMETRY
from repro.core.expressions import And, Operand
from repro.flash.timing import TimingModel, TimingParameters
from repro.ssd.controller import SmallSsd
from repro.ssd.events import StageJob, StageSweep, background_job


def _ssd(n_chips=2):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=3)
    rng = np.random.default_rng(3)
    for name in "ab":
        ssd.write_vector(
            name,
            rng.integers(0, 2, 3 * GEOMETRY.page_size_bits, dtype=np.uint8),
            group="g",
        )
    return ssd


@pytest.mark.parametrize("policy", ["fifo", "balanced", "edf"])
def test_a_nan_die_time_stops_the_run_before_the_sweep(monkeypatch, policy):
    ssd = _ssd()
    nan = math.nan
    ssd.chips[1].timing = TimingModel(
        TimingParameters(t_read_slc_us=nan, t_mws_fixed_us=nan)
    )
    fed = []
    monkeypatch.setattr(
        service_module, "simulate_stages", lambda *a, **k: fed.append(a)
    )
    service = ssd.service(policy=policy)
    service.submit(And(Operand("a"), Operand("b")), at_us=0.0)
    with pytest.raises(ValueError, match=r"chip 1: die time nan us"):
        service.run()
    assert fed == []
    # The queue is kept for a retry once the cause is fixed.
    assert len(service.admission.windows()) == 1


def test_a_stage_job_is_its_row():
    job = StageJob(
        1.0, (2.0, 3.0), ("chip0", "chan0"), priority=2.0, deadline=9.0,
        fault_delay_s=0.5,
    )
    assert job.row == (
        1.0, (2.0, 3.0), ("chip0", "chan0"), 0.5, False, job.urgency
    )
    assert job_of_row(job.row) == job
    erase = background_job("chip1", 4.0, ready_at=2.0)
    assert job_of_row(erase.row) == erase


jobs = st.lists(
    st.one_of(
        st.builds(
            lambda ready, die, dma, chip, priority, deadline, fault: StageJob(
                ready,
                (die, dma, 1e-6),
                (f"chip{chip}", f"chan{chip % 2}", "ext"),
                priority=priority,
                deadline=deadline,
                fault_delay_s=fault,
            ),
            st.sampled_from([0.0, 1e-5, 2e-5]),
            st.sampled_from([0.0, 2.5e-5, 5e-5]),
            st.sampled_from([1e-6, 3e-6]),
            st.integers(0, 2),
            st.sampled_from([0.0, 1.0, -1.0]),
            st.sampled_from([None, 4e-5, 9e-5]),
            st.sampled_from([0.0, 2e-6]),
        ),
        st.builds(
            lambda ready, chip, busy: background_job(
                f"chip{chip}", busy, ready_at=ready
            ),
            st.sampled_from([0.0, 1e-5, 2e-5]),
            st.integers(0, 2),
            st.sampled_from([1e-5, 3.5e-3]),
        ),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(jobs=jobs, as_rows=st.lists(st.booleans(), min_size=30, max_size=30))
def test_rows_are_served_as_their_jobs(jobs, as_rows):
    """One feed of the jobs, and one of the same list with any of them
    replaced by its row, complete every listing at the same instant
    and report the same totals."""
    jobs.sort(key=lambda job: job.ready_at)
    mixed = [job.row if row else job for job, row in zip(jobs, as_rows)]
    closed = []
    for listing in (jobs, mixed):
        sweep = StageSweep()
        done = sweep.feed(listing)
        more, report = sweep.close()
        closed.append((sorted(done + more), report))
    assert closed[0] == closed[1]
