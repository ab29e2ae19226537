"""Reference oracle for the ``simulate_stages`` sweep: the general
preemptible resource model.

Each resource holds at most one running unit plus an urgency-ordered
wait heap, and *every* resource -- not only the die a job enters first
-- serves its waiters by urgency.  A waiter whose urgency is strictly
ahead of the running unit's suspends it (a real NAND suspend command),
at no cost: the waiter starts at once and the remainder goes back on
the wait heap.  A resumed unit is protected by the forward-progress
rule: it may not be suspended again before it has run as long as it
was parked.  Equal urgency never suspends (ties keep strict FIFO).

Here only background jobs are preemptible, and they rank below all
foreground by construction, whatever their priority says; at equal
ready times the foreground arrives first (the sweep's tie rule,
foreground wins equal times).  On those terms the model is the sweep's
die queue and background class, event by event, and
``tests/ssd/test_events_equivalence.py`` compares the two.  It is
deliberately a second, independent implementation: it imports nothing
private from ``repro.ssd.events`` and keeps its own copy of the rule.
"""

from __future__ import annotations

import heapq
import math

from repro.ssd.events import StageJob, StageReport

#: Urgency of every background job: behind any foreground job, whose
#: urgency starts with 0 (deadline) or 1 (best effort).
_BACKGROUND = (2, 0.0, 0.0)

_ARRIVE, _FINISH, _GUARD = 0, 1, 2


def _urgency(job: StageJob) -> tuple:
    return _BACKGROUND if job.background else job.urgency


def _protected_until(parked: float | None, resumed: float) -> float:
    """The forward-progress rule: never parked, a unit yields at once;
    resumed, not before it has run for as long as it was kept off its
    resource."""
    if parked is None:
        return resumed
    return resumed + (resumed - parked)


class _Unit:
    """One job-stage execution.  Mutable: a suspension rewrites
    ``remaining`` (the rest of the work) and stamps ``parked``."""

    __slots__ = ("idx", "stage", "remaining", "parked", "order")

    def __init__(self, idx: int, stage: int, remaining: float) -> None:
        self.idx = idx
        self.stage = stage
        self.remaining = remaining
        #: When it was last suspended; ``None`` until it has been.
        self.parked: float | None = None
        #: Arrival order at the resource (set on first arrival, kept
        #: across suspensions so a parked victim resumes ahead of
        #: equally urgent later arrivals).
        self.order = 0


def _start_unit(
    events: list,
    seq: int,
    name: str,
    state: list,
    unit: _Unit,
    t: float,
) -> int:
    """Put ``unit`` on resource ``name`` at ``t`` and schedule its
    finish; returns the next ``seq``."""
    state[0] = unit
    state[1] += 1
    state[3] = t
    state[4] = t + unit.remaining
    state[5] = _protected_until(unit.parked, t)
    heapq.heappush(events, (state[4], seq, _FINISH, (name, state[1])))
    return seq + 1


def simulate_arbitrated(jobs: list[StageJob]) -> StageReport:
    """Event-driven preemptive simulation of ``jobs``; completion times
    in ``jobs``' order.

    The global event heap interleaves arrivals and completions in time
    order with deterministic sequence tie-breaks, foreground arrivals
    numbered before background ones.  Suspension fires only when the
    arrival's urgency is *strictly* ahead of the running unit's, the
    victim is background and has work left.  A resumed victim is
    protected until :func:`_protected_until`: an arrival that would
    suspend it earlier waits, and a ``_GUARD`` event then re-runs the
    decision; a unit parked there leaves the resource to its most
    urgent waiter.
    """
    if not jobs:
        return StageReport(makespan=0.0, completion_times=[])

    push = heapq.heappush
    pop = heapq.heappop
    #: (time, seq, kind, payload): ARRIVE carries a _Unit, FINISH and
    #: GUARD a (resource name, token) pair -- the token invalidates
    #: events of units that were suspended, or finished, after the
    #: event was scheduled.
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    fault_overhead = 0.0
    for idx in sorted(range(len(jobs)), key=lambda i: jobs[i].background):
        job = jobs[idx]
        first = job.durations[0]
        if job.fault_delay_s:
            # Recovery extends the first stage.
            first += job.fault_delay_s
            fault_overhead += job.fault_delay_s
        push(events, (job.ready_at, seq, _ARRIVE, _Unit(idx, 0, first)))
        seq += 1

    #: name -> [running unit | None, token, wait heap, seg_start, end,
    #: protected until (inf once a waiter has a GUARD event out)]
    resources: dict[str, list] = {}
    busy: dict[str, float] = {}
    served: dict[str, int] = {}
    preempted: dict[str, int] = {}
    guard_waits: dict[str, int] = {}
    completion = [0.0] * len(jobs)
    arrival_order = 0

    def park(name: str, state: list, t: float) -> None:
        # Charge the work the running unit already performed, park the
        # remainder back on the wait heap.
        running = state[0]
        busy[name] = busy.get(name, 0.0) + (t - state[3])
        running.remaining = state[4] - t
        running.parked = t
        preempted[name] = preempted.get(name, 0) + 1
        push(state[2], (_urgency(jobs[running.idx]), running.order, running))

    while events:
        t, _, kind, payload = pop(events)
        if kind != _ARRIVE:
            name, token = payload
            state = resources[name]
            unit = state[0]
            if token != state[1]:
                pass  # stale: the unit was suspended, or finished
            elif kind == _FINISH:
                # Charge the segment's planned length, not (t -
                # seg_start): the latter is the same quantity but not
                # the same float ((s + d) - s may round).
                busy[name] = busy.get(name, 0.0) + unit.remaining
                served[name] = served.get(name, 0) + 1
                state[0] = None
                job = jobs[unit.idx]
                stage = unit.stage + 1
                if stage < len(job.durations):
                    nxt = _Unit(unit.idx, stage, job.durations[stage])
                    push(events, (t, seq, _ARRIVE, nxt))
                    seq += 1
                else:
                    completion[unit.idx] = t
                if state[2]:
                    nxt = pop(state[2])[2]
                    seq = _start_unit(events, seq, name, state, nxt, t)
            elif unit is None:
                # The park is done: the resource picks.
                nxt = pop(state[2])[2]
                seq = _start_unit(events, seq, name, state, nxt, t)
            elif state[4] > t:
                # The guard expired: the waiter that had to wait for it
                # still outranks the unit, so it is parked -- and the
                # resource picks among the waiters of this instant.
                park(name, state, t)
                state[0] = None
                state[1] += 1
                push(events, (t, seq, _GUARD, (name, state[1])))
                seq += 1
            continue

        unit = payload
        job = jobs[unit.idx]
        name = job.resources[unit.stage]
        state = resources.get(name)
        if state is None:
            state = resources[name] = [None, 0, [], 0.0, 0.0, 0.0]
        unit.order = arrival_order
        arrival_order += 1
        running = state[0]
        victim = None if running is None else jobs[running.idx]
        suspends = (
            victim is not None
            and victim.background
            and _urgency(job) < _urgency(victim)
            and state[4] > t
        )
        if running is None and not state[2]:
            seq = _start_unit(events, seq, name, state, unit, t)
        elif suspends and t >= state[5]:
            park(name, state, t)
            seq = _start_unit(events, seq, name, state, unit, t)
        else:
            push(state[2], (_urgency(job), unit.order, unit))
            if suspends and state[5] != math.inf:
                # The unit is protected: the first arrival it makes
                # wait has the decision re-run when the guard expires.
                push(events, (state[5], seq, _GUARD, (name, state[1])))
                seq += 1
                state[5] = math.inf
                guard_waits[name] = guard_waits.get(name, 0) + 1

    return StageReport(
        makespan=max(completion),
        completion_times=completion,
        resource_busy=busy,
        resource_jobs=served,
        resource_preemptions=preempted,
        resource_guard_waits=guard_waits,
        fault_overhead=fault_overhead,
    )
