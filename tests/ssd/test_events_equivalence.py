"""Equivalences of the ``simulate_stages`` sweep.

**Uniform urgency.**  A job list in which no two foreground jobs differ
in urgency never queues: the arrival-merge sweep reproduces the
one-global-heap FCFS reference (``tests/reference_control_path.py``)
float for float: every comparison is ``==``, never ``approx``.

**The die queue and the background class.**  With urgency differences
the stage-0 resource serves its waiters by urgency, and with background
jobs its idle gaps are filled; both agree with ``_simulate_arbitrated``
on the same jobs, the *real* urgencies kept, every foreground job
non-preemptible and -- the tie rule, foreground wins equal times --
listed ahead of the background jobs, so the oracle's index tie-break
says what the sweep says whichever way the caller listed them.
``completion_times``, ``makespan``, ``resource_jobs``,
``resource_preemptions`` and ``resource_guard_waits`` are compared with
``==``: both sides compute every start and end -- and the end of every
protected interval -- with the same additions in the same order.  One
shortcut is the sweep's own: a foreground job that needs *no* die time
(a cache-served chunk) and finds the die free at its ready time with
nobody waiting goes at once, also at the very instant the die frees,
where the oracle has it stand in the pick behind a more urgent job of
the same instant.  It holds the die for no time, so no other job moves:
such a job's completion is the oracle's or its own ready time, every
other is compared with ``==``.  The three totals are compared at 1e-12
relative, because the same terms are summed in a different order: ``resource_busy`` (the sweep charges a
stage when it is admitted, the oracle when it finishes),
``fault_overhead`` (arrival order against listing order) and
``preemption_overhead`` (the sweep multiplies the suspension count by
the per-suspension cost where the oracle adds it once per suspension).

The oracle orders *every* resource by urgency, the sweep only the one a
job enters first, so three strategies keep to where they must agree.
``die_streams`` is tie-heavy and single-stage: the die queue, whole.
``pipeline_streams(mixed=False)`` is multi-stage over continuous times
with one urgency for all foreground (the oracle is then FIFO
everywhere, however contended) and ``pipeline_streams(mixed=True)``
mixes urgencies over transfers too short to contend: that test
discards the examples in which any job waits downstream
(``downstream_wait``).  Both pipeline tests discard the examples in
which two foreground jobs leave a stage at the same instant
(``downstream_tie``: the two simulators order tied *downstream* events
differently -- the sweep by when the upstream stage was admitted, the
oracle by when it started -- so ties are left to the first strategy).
What mixed urgency does to a *contended* downstream stage is the
sweep's own rule, not the oracle's, and has its own property:
first-come-first-served in die-completion order
(``test_downstream_stays_fcfs_in_die_completion_order``).

**The forward-progress rule.**  Agreeing with the oracle says nothing
about what the two agree *on*, so the rule -- a resumed background job
runs as long as it was kept off the die, plus what its suspension
cost, before it yields again -- is also stated from the outside: on
``exact=True`` streams (dyadic times, so every sum below is exact)
``background_pieces`` rebuilds what each die's background jobs did
from nothing but the jobs and their completion times, and the
properties are read off the pieces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_control_path as reference
from repro.ssd.events import (
    ArbitrationConfig,
    StageJob,
    background_job,
    simulate_stages,
)

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
            # Die only, like a copy/erase -- but foreground.
            resources = (f"chip{chip}",)
        elif kind == 1:
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
    assert report.preemptions == 0
    assert report.preemption_overhead == 0.0
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


# ----------------------------------------------------------------------
# Background class: the gap-filler against ``_simulate_arbitrated``
# ----------------------------------------------------------------------

COST = st.sampled_from([0.0, 0.0, 0.05, 0.1])
CONFIGS = st.builds(
    ArbitrationConfig,
    suspend_cost_s=COST,
    resume_cost_s=COST,
    min_remaining_s=st.sampled_from([0.0, 0.0, 0.15]),
)
#: Background also becomes ready after the last foreground has.
LATE_READY = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 4.0, 9.0])
LONG = st.sampled_from([0.0, 0.1, 0.7, 1.0, 1 / 3, 3.5])

#: Both classes, ties inside each; every priority above the background
#: class's (``MAINTENANCE_PRIORITY``), which the sweep keeps below all
#: foreground whatever the numbers say.
URGENCY = st.fixed_dictionaries(
    {
        "priority": st.sampled_from([0.0, 0.0, 1.0, 2.0]),
        "deadline": st.sampled_from([None, None, 0.5, 0.5, 7.0]),
    }
)


#: The same shapes over dyadic values: every sum and difference of
#: these is exact, so a timeline can be rebuilt from completion times.
EXACT_COST = st.sampled_from([0.0, 0.0, 0.0625, 0.125])
EXACT_CONFIGS = st.builds(
    ArbitrationConfig,
    suspend_cost_s=EXACT_COST,
    resume_cost_s=EXACT_COST,
    min_remaining_s=st.sampled_from([0.0, 0.0, 0.1875]),
)
EXACT_READY = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.5])
EXACT_DURATION = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
EXACT_DELAY = st.sampled_from([0.0, 0.0, 0.0, 0.125, 0.5])
EXACT_LATE_READY = st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5, 4.0, 9.0])
EXACT_LONG = st.sampled_from([0.0, 0.25, 0.75, 1.0, 3.5, 3.5])
EXACT_POOLS = (
    EXACT_READY, EXACT_DURATION, EXACT_DELAY, EXACT_LATE_READY, EXACT_LONG
)


@st.composite
def die_streams(draw, background=True, exact=False):
    """Single-stage jobs on a few dies, tie-heavy, mixed urgency;
    background may sit on a die no foreground touches
    (``chip<n_chips>``), and is listed before, between and after
    same-ready foreground."""
    ready, duration, delay, late_ready, long = (
        EXACT_POOLS if exact else (READY, DURATION, DELAY, LATE_READY, LONG)
    )
    n_chips = draw(st.integers(1, 3))
    jobs = []
    for _ in range(draw(st.integers(1, 30))):
        if background and draw(st.integers(0, 2)) == 0:
            chip = draw(st.integers(0, n_chips))
            jobs.append(
                background_job(
                    f"chip{chip}", draw(long), ready_at=draw(late_ready)
                )
            )
        else:
            chip = draw(st.integers(0, n_chips - 1))
            jobs.append(
                StageJob(
                    draw(ready),
                    (draw(duration),),
                    (f"chip{chip}",),
                    fault_delay_s=draw(delay),
                    **draw(URGENCY),
                )
            )
    return jobs


def _times(low, high, exact):
    """Times in ``[low, high]``: any float, or multiples of 1/64."""
    if not exact:
        return st.floats(low, high)
    return st.integers(round(low * 64), round(high * 64)).map(
        lambda ticks: ticks / 64
    )


@st.composite
def pipeline_streams(draw, mixed, exact=False):
    """The service's shape over continuous times: chip -> channel ->
    external link foreground, background on the chips.  ``mixed``
    draws an urgency per job and keeps the transfers short (the
    service's are a percent of a sense); otherwise one urgency serves
    all and the transfers are as long as the senses."""
    n_chips = draw(st.integers(1, 4))
    time = _times(0.01, 10.0, exact)
    transfer = st.floats(0.001, 0.02) if mixed else time
    shared = draw(URGENCY)
    jobs = []
    for _ in range(draw(st.integers(1, 24))):
        chip = draw(st.integers(0, n_chips - 1))
        if draw(st.integers(0, 2)) == 0:
            jobs.append(
                background_job(
                    f"chip{chip}",
                    draw(_times(0.0, 8.0, exact)),
                    ready_at=draw(_times(0.0, 30.0, exact)),
                )
            )
        else:
            jobs.append(
                StageJob(
                    draw(_times(0.0, 20.0, exact)),
                    (draw(time), draw(transfer), draw(transfer)),
                    (f"chip{chip}", f"chan{chip % 2}", "ext"),
                    **(draw(URGENCY) if mixed else shared),
                )
            )
    return jobs


def oracle(jobs, cfg):
    """``_simulate_arbitrated`` on the flattened jobs (module
    docstring), completion times mapped back to ``jobs``' order."""
    order = sorted(range(len(jobs)), key=lambda i: jobs[i].background)
    flat = [
        jobs[i] if jobs[i].background else replace(jobs[i], preemptible=False)
        for i in order
    ]
    report = simulate_stages(flat, arbitration=cfg)
    completion = [0.0] * len(jobs)
    for position, i in enumerate(order):
        completion[i] = report.completion_times[position]
    return completion, report


def assert_agrees_with_oracle(jobs, cfg):
    report = simulate_stages(jobs, suspension=cfg)
    completion, expected = oracle(jobs, cfg)
    for job, done, oracle_done in zip(
        jobs, report.completion_times, completion
    ):
        if job.background or job.durations[0] or job.fault_delay_s:
            assert done == oracle_done
        else:
            # The one shortcut (module docstring): a foreground job
            # that needs no die time may go the instant it is ready
            # where the oracle has it stand in the pick.  (Whether
            # nobody waited when it did is
            # ``test_no_job_overtakes_a_waiter_that_ranks_ahead``.)
            assert done == oracle_done or done == job.ready_at
    assert report.makespan == expected.makespan
    assert report.resource_jobs == expected.resource_jobs
    assert report.resource_preemptions == expected.resource_preemptions
    assert report.resource_guard_waits == expected.resource_guard_waits
    assert report.resource_busy == pytest.approx(
        expected.resource_busy, rel=1e-12, abs=0.0
    )
    assert report.fault_overhead == pytest.approx(
        expected.fault_overhead, rel=1e-12, abs=0.0
    )
    assert report.preemption_overhead == pytest.approx(
        expected.preemption_overhead, rel=1e-12, abs=0.0
    )
    return report


def assert_background_properties(jobs, report):
    work = sum(sum(job.durations) + job.fault_delay_s for job in jobs)
    assert sum(report.resource_busy.values()) == pytest.approx(
        work + report.preemption_overhead, rel=1e-9
    )
    for job, done in zip(jobs, report.completion_times):
        # Nothing starts before it is ready.
        assert done >= (job.ready_at + sum(job.durations)) * (1 - 1e-12)


@settings(max_examples=600, deadline=None)
@given(jobs=die_streams(), cfg=CONFIGS)
def test_gap_filler_equals_arbitrated_oracle_on_tied_dies(jobs, cfg):
    report = assert_agrees_with_oracle(jobs, cfg)
    assert_background_properties(jobs, report)


def _cut(jobs, depth):
    """The jobs' first ``depth`` stages.  A feed-forward pipeline cut
    after stage k runs its first k stages exactly as the whole does,
    so the cut's completion times are the stage ends."""
    return [
        job
        if job.background
        else replace(
            job,
            durations=job.durations[:depth],
            resources=job.resources[:depth],
        )
        for job in jobs
    ]


def downstream_tie(jobs, cfg):
    """Whether two foreground jobs leave a stage at the same instant."""
    for depth in (1, 2):
        ends = [
            end
            for job, end in zip(
                jobs,
                simulate_stages(
                    _cut(jobs, depth), suspension=cfg
                ).completion_times,
            )
            if not job.background
        ]
        if len(set(ends)) != len(ends):
            return True
    return False


def downstream_tails(jobs, cfg):
    """The foreground jobs' later stages as jobs of their own, ready
    when the sweep's die stage lets them go, urgency dropped."""
    die_ends = simulate_stages(_cut(jobs, 1), suspension=cfg).completion_times
    return [
        StageJob(end, job.durations[1:], job.resources[1:])
        for job, end in zip(jobs, die_ends)
        if not job.background
    ]


def downstream_wait(jobs, cfg):
    """Whether any job waits for a channel or the link."""
    tails = downstream_tails(jobs, cfg)
    done = reference.simulate_stages_fcfs(tails).completion_times
    return any(
        end != (tail.ready_at + tail.durations[0]) + tail.durations[1]
        for tail, end in zip(tails, done)
    )


@settings(max_examples=200, deadline=None)
@given(jobs=pipeline_streams(mixed=False), cfg=CONFIGS)
def test_gap_filler_equals_arbitrated_oracle_on_pipelines(jobs, cfg):
    assume(not downstream_tie(jobs, cfg))
    report = assert_agrees_with_oracle(jobs, cfg)
    assert_background_properties(jobs, report)


@settings(max_examples=200, deadline=None)
@given(jobs=pipeline_streams(mixed=True), cfg=CONFIGS)
def test_die_queue_equals_arbitrated_oracle_on_uncontended_pipelines(
    jobs, cfg
):
    assume(not downstream_tie(jobs, cfg))
    assume(not downstream_wait(jobs, cfg))
    report = assert_agrees_with_oracle(jobs, cfg)
    assert_background_properties(jobs, report)


@settings(max_examples=200, deadline=None)
@given(
    jobs=st.one_of(
        pipeline_streams(mixed=True), pipeline_streams(mixed=False)
    ),
    cfg=CONFIGS,
)
def test_downstream_stays_fcfs_in_die_completion_order(jobs, cfg):
    """Urgency orders the die and nothing behind it: channels and the
    link serve first-come-first-served in die-completion order, so the
    whole pipeline is the frozen FCFS sweep fed the die stage's
    completions, whatever the urgencies."""
    assume(not downstream_tie(jobs, cfg))
    expected = reference.simulate_stages_fcfs(
        downstream_tails(jobs, cfg)
    ).completion_times
    done = simulate_stages(jobs, suspension=cfg).completion_times
    assert [
        end for job, end in zip(jobs, done) if not job.background
    ] == expected


@settings(max_examples=300, deadline=None)
@given(jobs=die_streams())
def test_free_suspension_never_delays_foreground(jobs):
    """At zero cost a die under the queue, the gap-filler and the
    forward-progress guard is as work-conserving as under the frozen
    FCFS sweep: it does the same work and is through with it at the
    same time -- parked, protected or neither, background work never
    leaves the die idle -- and, ordering moving who waits, never how
    long the die works, its last foreground job completes no later.
    (Per die; a pipeline's downstream FCFS stages are not monotone in
    their arrival times.)"""
    report = simulate_stages(jobs)
    parent = reference.simulate_stages_fcfs(jobs)
    last, last_fcfs = {}, {}
    for job, now, before in zip(
        jobs, report.completion_times, parent.completion_times
    ):
        for key in {job.resources[0], (job.resources[0], job.background)}:
            last[key] = max(last.get(key, 0.0), now)
            last_fcfs[key] = max(last_fcfs.get(key, 0.0), before)
    for key, end in last.items():
        if isinstance(key, str):
            assert end == pytest.approx(last_fcfs[key], rel=1e-12)
        elif not key[1]:
            assert end <= last_fcfs[key] * (1 + 1e-12)
    # The die did the same work either way.
    assert report.resource_busy == pytest.approx(
        parent.resource_busy, rel=1e-12, abs=0.0
    )
    assert report.resource_jobs == parent.resource_jobs


# ----------------------------------------------------------------------
# The forward-progress rule, from the outside
# ----------------------------------------------------------------------


def background_pieces(jobs, done, cfg):
    """What each die's background jobs did, rebuilt from single-stage
    ``jobs`` over dyadic times and their completion times ``done``:
    ``die -> [(job index, start, end, parked)]`` in time order,
    ``parked`` saying the piece ended in a suspension.

    The foreground intervals are ``[done - duration, done)``; between
    two of them the die's background queue is served in ``(ready,
    listing)`` order, a job that has not started no earlier than its
    ready time, one that has from the moment the die frees.  A job
    whose completion falls inside the gap ends its piece there; one
    that runs into the next foreground start was parked
    ``suspend_cost_s`` before it.
    """
    pieces = {}
    for die in {job.resources[0] for job in jobs if job.background}:
        edges = [0.0]
        for start, end in sorted(
            (end - (job.durations[0] + job.fault_delay_s), end)
            for job, end in zip(jobs, done)
            if not job.background and job.resources[0] == die
        ):
            edges += [start, end]
        edges.append(float("inf"))
        queue = sorted(
            (job.ready_at, index)
            for index, job in enumerate(jobs)
            if job.background and job.resources[0] == die
        )
        out = pieces[die] = []
        head, resumed = 0, False
        for cursor, gap_end in zip(edges[::2], edges[1::2]):
            while head < len(queue):
                ready_at, index = queue[head]
                start = cursor if resumed else max(cursor, ready_at)
                if done[index] <= gap_end:
                    out.append((index, start, done[index], False))
                    cursor = done[index]
                    head, resumed = head + 1, False
                    continue
                if start < gap_end - cfg.suspend_cost_s:
                    out.append(
                        (index, start, gap_end - cfg.suspend_cost_s, True)
                    )
                    resumed = True
                break
    return pieces


EXACT_STREAMS = st.one_of(
    die_streams(exact=True),
    pipeline_streams(mixed=True, exact=True).map(lambda jobs: _cut(jobs, 1)),
)


@settings(max_examples=600, deadline=None)
@given(jobs=EXACT_STREAMS, cfg=EXACT_CONFIGS)
def test_resumed_background_runs_as_long_as_it_was_parked(jobs, cfg):
    """The rule and its two consequences, on the rebuilt timeline: a
    resumed piece that ends in another suspension lasted at least as
    long as the job had been kept off the die plus what the suspension
    cost; so no foreground arrival waits behind background work for
    longer than that (and behind never-parked work not at all) -- give
    or take ``min_remaining_s``, under which a job is left to finish;
    and no piece starts while a foreground job waits."""
    report = assert_agrees_with_oracle(jobs, cfg)
    done = report.completion_times
    costs = cfg.suspend_cost_s + cfg.resume_cost_s
    for die, pieces in background_pieces(jobs, done, cfg).items():
        # The pieces are the die's story: they account for every
        # suspension and every second of background work.
        assert report.resource_preemptions.get(die, 0) == sum(
            parked for *_, parked in pieces
        )
        ran, parks = {}, {}
        for index, start, end, parked in pieces:
            ran[index] = ran.get(index, 0.0) + (end - start)
            parks[index] = parks.get(index, 0) + parked
        for index, seconds in ran.items():
            assert seconds == (
                jobs[index].durations[0] + parks[index] * cfg.resume_cost_s
            )
        foreground = [
            (job.ready_at, end - (job.durations[0] + job.fault_delay_s))
            for job, end in zip(jobs, done)
            if not job.background and job.resources[0] == die
        ]
        parked_at = {}
        for index, start, end, parked in pieces:
            protected = start
            if index in parked_at:
                protected += (start - parked_at[index]) + costs
            if parked:
                assert end >= protected
                parked_at[index] = end
            for ready_at, began in foreground:
                assert not ready_at <= start < began
                if start < ready_at < end:
                    assert end <= (
                        max(ready_at, protected) + cfg.min_remaining_s
                    )


@settings(max_examples=300, deadline=None)
@given(jobs=die_streams(background=False))
def test_ordering_conserves_each_dies_work(jobs):
    """Background-free: per die, the busy seconds and the last
    completion are the frozen FCFS sweep's (to rounding: the same
    durations added in another order)."""
    report = simulate_stages(jobs)
    parent = reference.simulate_stages_fcfs(jobs)
    assert report.resource_jobs == parent.resource_jobs
    assert report.resource_busy == pytest.approx(
        parent.resource_busy, rel=1e-12, abs=0.0
    )
    for die in parent.resource_busy:
        ends, ends_fcfs = (
            [
                end
                for job, end in zip(jobs, times)
                if job.resources[0] == die
            ]
            for times in (report.completion_times, parent.completion_times)
        )
        assert max(ends) == pytest.approx(max(ends_fcfs), rel=1e-12)


#: (Dyadic values, so ``completion - duration`` is the exact start.)
@settings(max_examples=400, deadline=None)
@given(
    specs=st.lists(
        st.tuples(EXACT_READY, EXACT_DURATION, URGENCY), max_size=24
    )
)
def test_no_job_overtakes_a_waiter_that_ranks_ahead(specs):
    """On one die, zero-length jobs included: no job starts while a
    job that ranks ahead of it -- more urgent, or as urgent and
    arrived first -- has arrived and is still waiting.  "Arrived"
    takes in the very instant the die frees: a job that had to wait
    does not start ahead of one arriving just then."""
    jobs = [
        StageJob(ready, (duration,), ("chip0",), **urgency)
        for ready, duration, urgency in specs
    ]
    done = simulate_stages(jobs).completion_times
    starts = [end - job.durations[0] for job, end in zip(jobs, done)]
    ranks = [
        (job.urgency, job.ready_at, index) for index, job in enumerate(jobs)
    ]
    for job, start, rank in zip(jobs, starts, ranks):
        waited = start > job.ready_at
        for other, other_start, other_rank in zip(jobs, starts, ranks):
            if other_rank < rank and other_start > start:
                assert not other.ready_at < start
                assert not (waited and other.ready_at == start)


@settings(max_examples=200, deadline=None)
@given(jobs=job_streams(), urgency=URGENCY)
def test_uniform_urgency_equals_reference(jobs, urgency):
    """Whatever the one urgency is, a list without urgency
    *differences* is served exactly first-come-first-served."""
    assert_same_report([replace(job, **urgency) for job in jobs])


@settings(max_examples=300, deadline=None)
@given(
    jobs=job_streams(),
    urgencies=st.lists(URGENCY, min_size=40, max_size=40),
)
def test_any_stage_layout_conserves_work_under_mixed_urgency(jobs, urgencies):
    """No layering of resource names is assumed, also not by the
    queue: a resource that is one job's first stage and another's
    later stage serves every job once, for its own duration, never two
    at a time -- whatever route brought them."""
    jobs = [replace(job, **urgency) for job, urgency in zip(jobs, urgencies)]
    report = simulate_stages(jobs)
    parent = reference.simulate_stages_fcfs(jobs)
    assert report.resource_jobs == parent.resource_jobs
    assert report.resource_busy == pytest.approx(
        parent.resource_busy, rel=1e-12, abs=0.0
    )
    assert report.fault_overhead == parent.fault_overhead
    for job, done in zip(jobs, report.completion_times):
        least = job.ready_at + job.fault_delay_s + sum(job.durations)
        assert done >= least * (1 - 1e-12)
    # One at a time: a resource is not busy for longer than the time
    # between its first job's arrival and the end of the run.
    first_ready = {}
    for job in jobs:
        for name in job.resources:
            first_ready[name] = min(
                first_ready.get(name, job.ready_at), job.ready_at
            )
    for name, busy in report.resource_busy.items():
        assert busy <= (report.makespan - first_ready[name]) * (1 + 1e-12)


def test_arrival_at_the_free_instant_joins_before_the_pick():
    """The die frees at t=1.0 with a best-effort job waiting since
    t=0.5; a deadline job arriving at exactly 1.0 is picked first."""
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",)),
        StageJob(0.5, (1.0,), ("chip0",)),
        StageJob(1.0, (1.0,), ("chip0",), deadline=9.0),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 3.0, 2.0]


def test_simultaneous_arrivals_at_an_idle_die_keep_listing_order():
    """Listing order is the scheduler's order: the first of three
    simultaneous arrivals takes the idle die whatever its urgency; the
    other two are waiters, and those go by urgency."""
    jobs = [
        StageJob(1.0, (1.0,), ("chip0",)),
        StageJob(1.0, (1.0,), ("chip0",)),
        StageJob(1.0, (1.0,), ("chip0",), deadline=9.0),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [2.0, 4.0, 3.0]


def test_zero_length_job_takes_a_free_die_at_once():
    """The die frees at t=1.0 with nobody waiting.  A cache-served
    chunk arriving then needs no die time and goes at once; the
    best-effort sense listed after it stands in the pick and lets the
    deadline sense of the same instant past.  (The oracle has the
    chunk stand too, and complete at 2.0.)"""
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",)),
        StageJob(1.0, (0.0,), ("chip0",)),
        StageJob(1.0, (1.0,), ("chip0",)),
        StageJob(1.0, (1.0,), ("chip0",), deadline=9.0),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 1.0, 3.0, 2.0]
    # Once somebody waits, a zero-length arrival queues like any
    # other: behind the earlier best-effort sense, as the oracle says.
    jobs.insert(1, StageJob(0.5, (1.0,), ("chip0",)))
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 3.0, 3.0, 4.0, 2.0]


def test_equal_urgency_is_strict_fifo():
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",), deadline=5.0),
        StageJob(0.2, (1.0,), ("chip0",), deadline=9.0, priority=1.0),
        StageJob(0.1, (1.0,), ("chip0",), deadline=9.0, priority=1.0),
        StageJob(0.3, (1.0,), ("chip0",), deadline=9.0, priority=2.0),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 4.0, 3.0, 2.0]


def test_waiters_behind_an_unsuspendable_erase_go_by_urgency():
    """The erase is parked [1, 3), so back on the die it is protected
    until 3 + 2 = 5: both arrivals wait, and at 5, the erase parked,
    the die picks the deadline job although it arrived second."""
    jobs = [
        background_job("chip0", 10.0),
        StageJob(1.0, (2.0,), ("chip0",)),
        StageJob(3.5, (1.0,), ("chip0",)),
        StageJob(4.0, (1.0,), ("chip0",), deadline=9.0),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    # Erase runs [0,1) [3,5) and its other 7 s from 7.
    assert report.completion_times == [14.0, 3.0, 7.0, 6.0]
    assert report.preemptions == 2
    assert report.resource_guard_waits == {"chip0": 1}


def test_background_never_starts_while_foreground_waits():
    """The erase is ready at t=0.5, the die frees at t=1.0 with a
    sense waiting: the sense goes, then the erase fills the gap."""
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",), deadline=9.0),
        background_job("chip0", 2.0, ready_at=0.5),
        StageJob(0.75, (1.0,), ("chip0",)),
        StageJob(6.0, (1.0,), ("chip0",)),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 4.0, 2.0, 7.0]
    assert report.preemptions == 0


def test_background_listed_first_still_yields_a_tied_arrival():
    """``drain_chip``'s jobs are listed ahead of their window's own
    senses with the same ready time: the sense goes first, nothing is
    suspended."""
    jobs = [
        background_job("chip0", 3.5, ready_at=1.0),
        StageJob(1.0, (0.25,), ("chip0",)),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [4.75, 1.25]
    assert report.preemptions == 0


def test_zero_length_gap_is_not_filled():
    """The die frees at t=1.0 exactly when the next sense arrives:
    waiting background does not slip in between."""
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",)),
        background_job("chip0", 2.0, ready_at=0.5),
        StageJob(1.0, (1.0,), ("chip0",)),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 4.0, 2.0]
    assert report.preemptions == 0


def test_suspend_and_resume_costs_land_on_the_die():
    """Erase [0, 10) is suspended at t=2 (0.5 to park, so the sense
    runs [2.5, 3.5)) and resumes with 8 + 0.25 left."""
    jobs = [
        background_job("chip0", 10.0),
        StageJob(2.0, (1.0,), ("chip0",)),
    ]
    cfg = ArbitrationConfig(suspend_cost_s=0.5, resume_cost_s=0.25)
    report = assert_agrees_with_oracle(jobs, cfg)
    assert report.completion_times == [11.75, 3.5]
    assert report.resource_preemptions == {"chip0": 1}
    assert report.preemption_overhead == 0.75
    assert report.resource_busy == {"chip0": 11.75}


def test_a_never_parked_erase_yields_at_once_whatever_it_costs():
    """Only a *resumed* job is protected: the sense that arrives a
    quarter second into a fresh erase suspends it there and then."""
    jobs = [
        background_job("chip0", 10.0),
        StageJob(0.25, (1.0,), ("chip0",)),
    ]
    cfg = ArbitrationConfig(suspend_cost_s=0.5, resume_cost_s=0.25)
    report = assert_agrees_with_oracle(jobs, cfg)
    assert report.completion_times == [11.75, 1.75]
    assert report.resource_guard_waits == {}


def test_starvation_guard_makes_the_foreground_wait():
    """A resumed erase runs as long as it was kept off the die before
    it yields again, so a sense waits behind it for at most the burst
    that displaced it -- here 1 s, then 2 s -- and never for the
    erase.  Parked [1, 2), the erase is protected until 3: the sense
    of t=2.5 waits for that.  Parked [3, 5) -- the sense of t=4 finds
    the die just freed and goes first -- it is protected until 7: the
    sense of t=5.5 waits for that."""
    jobs = [background_job("chip0", 10.0)] + [
        StageJob(1.0 + 1.5 * i, (1.0,), ("chip0",)) for i in range(4)
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    # Erase runs [0,1) [2,3) [5,7) and its other 6 s from 8.
    assert report.completion_times == [14.0, 2.0, 4.0, 5.0, 8.0]
    assert report.preemptions == 3
    assert report.resource_guard_waits == {"chip0": 2}


def test_an_unprotected_erase_yields_at_once_however_often():
    """No budget: senses that arrive no sooner than the erase has made
    up for its last park suspend it every time, and it keeps half the
    die."""
    jobs = [background_job("chip0", 10.0)] + [
        StageJob(1.0 + 2.0 * i, (1.0,), ("chip0",)) for i in range(8)
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [18.0] + [
        2.0 + 2.0 * i for i in range(8)
    ]
    assert report.preemptions == 8
    assert report.resource_guard_waits == {}


def test_protection_is_per_job():
    """The first erase, parked [1, 2), is protected until 3 -- where
    it ends, with the sense of t=2.5 waiting.  The second starts at 4
    never parked and yields to the sense of t=4.25 at once."""
    jobs = [
        background_job("chip0", 2.0),
        background_job("chip0", 2.0),
        StageJob(1.0, (1.0,), ("chip0",)),
        StageJob(2.5, (1.0,), ("chip0",)),
        StageJob(4.25, (1.0,), ("chip0",)),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [3.0, 7.0, 2.0, 4.0, 5.25]
    assert report.preemptions == 2
    assert report.resource_guard_waits == {"chip0": 1}


def test_suspension_costs_lengthen_the_protection():
    """Parked at 2 and back at 3.5 (0.5 to park, 1 s of sense), the
    erase is protected for those 1.5 s plus the 0.5 + 0.25 its
    suspension cost: until 5.75.  The sense of t=4 waits for that,
    and starts once the 0.5 s to park are paid."""
    jobs = [
        background_job("chip0", 10.0),
        StageJob(2.0, (1.0,), ("chip0",)),
        StageJob(4.0, (1.0,), ("chip0",)),
    ]
    cfg = ArbitrationConfig(suspend_cost_s=0.5, resume_cost_s=0.25)
    report = assert_agrees_with_oracle(jobs, cfg)
    # Erase: [0,2), 8.25 left; [3.5,5.75), 6.25 left from 7.25.
    assert report.completion_times == [13.5, 3.5, 7.25]
    assert report.resource_preemptions == {"chip0": 2}
    assert report.resource_guard_waits == {"chip0": 1}
    assert report.preemption_overhead == 1.5


def test_the_die_picks_once_the_park_at_a_guards_end_is_paid():
    """Parked at 1 and back at 3, the erase is protected until
    3 + 2 + 0.5 = 5.5 with a best-effort sense waiting since 4.
    Parking it then takes until 6, and the deadline sense of t=5.75
    is among the waiters the die picks from: it goes first."""
    jobs = [
        background_job("chip0", 10.0),
        StageJob(1.0, (1.5,), ("chip0",)),
        StageJob(4.0, (1.0,), ("chip0",)),
        StageJob(5.75, (1.0,), ("chip0",), deadline=9.0),
    ]
    cfg = ArbitrationConfig(suspend_cost_s=0.5)
    report = assert_agrees_with_oracle(jobs, cfg)
    # Erase: [0,1) [3,5.5) and its other 6.5 s from 8.
    assert report.completion_times == [14.5, 3.0, 8.0, 7.0]
    assert report.resource_guard_waits == {"chip0": 1}


def test_a_thrashing_stream_cannot_livelock_the_erase():
    """10^3 senses, each arriving 1 us after the one before it has
    handed the die back, every suspension costing 20 + 20 us: an erase
    that yielded every time would gain 1 us and owe 20 per round, and
    finish only once the stream is over.  Under the rule each park
    buys it as long a run, so it is through in about twice its own
    3.5 ms after a handful of suspensions, and -- the other half of
    the bargain -- no sense waits anything like an erase time."""
    cfg = ArbitrationConfig(suspend_cost_s=0.02, resume_cost_s=0.02)
    sense = 0.025
    step = sense + cfg.suspend_cost_s + 0.001
    jobs = [background_job("chip0", 3.5)] + [
        StageJob(0.1 + step * i, (sense,), ("chip0",)) for i in range(1000)
    ]
    report = assert_agrees_with_oracle(jobs, cfg)
    erased, *sensed = report.completion_times
    assert erased < 2 * 3.5 + 0.1
    # Every round nets the erase at least a sense and a suspend cost.
    assert 0 < report.preemptions <= 3.5 / (sense + cfg.suspend_cost_s)
    # Every suspension but the first came at a guard's end.
    assert report.resource_guard_waits["chip0"] >= report.preemptions - 1
    waits = [end - job.ready_at for job, end in zip(jobs[1:], sensed)]
    assert max(waits) < 3.5 / 2
    assert report.resource_jobs == {"chip0": 1001}


def test_nearly_done_background_is_not_suspended():
    """``min_remaining_s``: with a quarter second left of the erase
    the sense waits for it; with more than the threshold left it
    suspends."""
    jobs = [
        background_job("chip0", 1.0),
        StageJob(0.75, (1.0,), ("chip0",)),
    ]
    waits = assert_agrees_with_oracle(
        jobs, ArbitrationConfig(min_remaining_s=0.25)
    )
    assert waits.completion_times == [1.0, 2.0]
    assert waits.preemptions == 0
    suspends = assert_agrees_with_oracle(
        jobs, ArbitrationConfig(min_remaining_s=0.125)
    )
    assert suspends.completion_times == [2.0, 1.75]
    assert suspends.preemptions == 1
    # The same at a guard's end: parked [1, 2), the erase is protected
    # until 3 and would end at 3.25.
    jobs = [
        background_job("chip0", 2.25),
        StageJob(1.0, (1.0,), ("chip0",)),
        StageJob(2.5, (1.0,), ("chip0",)),
    ]
    waits = assert_agrees_with_oracle(
        jobs, ArbitrationConfig(min_remaining_s=0.25)
    )
    assert waits.completion_times == [3.25, 2.0, 4.25]
    assert waits.preemptions == 1
    suspends = assert_agrees_with_oracle(
        jobs, ArbitrationConfig(min_remaining_s=0.125)
    )
    assert suspends.completion_times == [4.25, 2.0, 4.0]
    assert suspends.preemptions == 2
    assert waits.resource_guard_waits == suspends.resource_guard_waits
    assert waits.resource_guard_waits == {"chip0": 1}


def test_background_after_the_last_foreground_and_on_an_untouched_die():
    jobs = [
        StageJob(0.0, (1.0,), ("chip0",)),
        background_job("chip0", 1.0, ready_at=5.0),
        background_job("chip1", 2.0, ready_at=0.5),
        background_job("chip1", 1.0, ready_at=0.5),
    ]
    report = assert_agrees_with_oracle(jobs, ArbitrationConfig())
    assert report.completion_times == [1.0, 6.0, 2.5, 3.5]
    assert report.makespan == 6.0
    assert report.resource_jobs == {"chip0": 2, "chip1": 2}


def test_background_job_is_single_stage():
    with pytest.raises(ValueError):
        StageJob(0.0, (1.0, 1.0), ("chip0", "ext"), background=True)
