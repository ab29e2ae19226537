"""Timeline simulation of pipelined SSD dataflows.

The paper's Figure 7 reasons about three serial resources: per-die
sensing, the per-channel bus, and the shared external link.  This
module models exactly that: a :class:`SerialResource` serves jobs
first-come-first-served, and :func:`simulate_stages` pushes batches of
work through a chain of stages, yielding per-stage busy intervals and
the end-to-end makespan.

The simulation is event-accurate for feed-forward pipelines (each
job's stage N+1 becomes ready when its stage N finishes) -- sufficient
to reproduce the 471/431/335-us timelines of Figure 7 exactly, which
the tests pin.

Jobs need not all be ready at t=0: the query service layer
(:mod:`repro.service`) emits *window-level job streams* whose
``ready_at`` times are the admission-window close times on its
virtual clock, and one simulation over the whole trace yields exact
cross-window contention (a window's jobs queue behind the previous
window's stragglers on shared chips, channels, and the external
link).  Within one ready time, ties break by submission order --
which is precisely the knob the multi-query scheduler turns.

**Three classes at the die.**  Sensing, not the channel or the link,
bounds an in-flash query, so what sits on a die ahead of an urgent
sense decides its latency.  The resource a job enters first -- stage
0, the die in every job the service lists -- therefore serves its
*waiting* jobs by :attr:`StageJob.urgency`: deadline-carrying
foreground (earliest deadline, then higher priority) before
best-effort foreground (higher priority first) before the background
class, arrival order within equal urgency.  The queue is
non-preemptive and work-conserving: it moves who waits, never how long
the die works.  Its tie rules are the arbitrated model's: an arrival
that finds the die idle starts at once (simultaneous arrivals in
listing order -- the first takes the die, the rest wait), and an
arrival at the very instant the die frees joins the waiters *before*
the most urgent of them is picked.  One shortcut is the sweep's own:
a job that needs *no* die time (a cache-served chunk) and finds the
die free at its ready time with nobody waiting goes at once, even at
the instant the die frees -- it holds the die for no time, so no other
job moves, and a cached workload's jobs never queue.  Downstream
stages stay first-come-first-served in die-completion order (they are
a percent utilised; reordering there buys nothing and costs every
event a heap).  A job list without urgency differences -- detected
once per call -- never queues and is float-identical to a plain FCFS
sweep.

**Background class.**  A GC erase is 3.5 ms against a 25-us sense.
Jobs built by :func:`background_job` (GC copyback + erase, drain,
rebuild) are the lowest class, the way real NAND orders erase/program
*suspend* ahead of reads ahead of program/erase: they run only in the
idle gaps of their die -- never while a foreground job waits -- and
are suspended by a foreground arrival (``suspend_cost_s`` on the die,
``resume_cost_s`` on the remainder).  Suspension goes by forward
progress, not by a budget (:func:`_protected_until`): a resumed job
first runs as long as it was kept off the die, an arrival meanwhile
waiting as behind any busy die -- for the burst that last displaced
the job at most, never for an erase, while a started erase keeps half
of the contended die time.  At equal times the foreground wins.  The
class is a gap-filler per die, consulted only when a foreground event
finds the die idle before its own ready time and once at the end, so
a stream without background jobs never reaches it.

**Its oracle.**  The sweep is checked against a general preemptible
resource model -- urgency order at every resource, suspension by the
same forward-progress rule -- that lives beside the tests
(``tests/reference_arbitrated.py``).  With only background jobs
preemptible and ranked below all foreground, that model is the die
queue and the background class above, event by event
(``tests/ssd/test_events_equivalence.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


class SerialResource:
    """A resource that serves one job at a time, FCFS."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.available_at = 0.0
        self.busy_time = 0.0
        self.jobs_served = 0

    def execute(self, ready_at: float, duration: float) -> tuple[float, float]:
        """Serve a job that becomes ready at ``ready_at``; returns
        (start, end)."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        start = max(ready_at, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_time += duration
        self.jobs_served += 1
        return start, end

    def reset(self) -> None:
        self.available_at = 0.0
        self.busy_time = 0.0
        self.jobs_served = 0


@dataclass(frozen=True)
class ArbitrationConfig:
    """Suspend/resume parameters of the sweep's background class
    (``simulate_stages(jobs, suspension=...)``).

    ``suspend_cost_s`` is charged on the die the moment a background
    job is parked (the foreground starts only after it);
    ``resume_cost_s`` is folded into the job's remaining work, paid
    when the remainder restarts; both lengthen the interval a resumed
    job is protected for (:func:`_protected_until`), so background
    work finishes under sustained foreground traffic.
    ``min_remaining_s`` refuses suspensions of a job that is nearly
    done anyway (suspending it costs more than it saves).
    """

    suspend_cost_s: float = 0.0
    resume_cost_s: float = 0.0
    min_remaining_s: float = 0.0

    def __post_init__(self) -> None:
        if self.suspend_cost_s < 0 or self.resume_cost_s < 0:
            raise ValueError("suspend/resume costs must be >= 0")
        if self.min_remaining_s < 0:
            raise ValueError("min_remaining_s must be >= 0")


@dataclass(slots=True)
class StageJob:
    """One unit of work flowing through the pipeline.

    ``durations`` holds the service time on each stage's resource;
    ``resources`` names which resource instance serves it per stage
    (e.g. jobs of different dies use different die resources but share
    one channel resource).

    ``deadline`` and ``priority`` are the job's :attr:`urgency`:
    ``deadline`` is an absolute time in simulation seconds --
    deadline-carrying jobs are served earliest-deadline-first ahead of
    deadline-free work -- and ``priority`` breaks urgency ties (higher
    first).  The sweep orders the jobs *waiting* for a stage-0
    resource by it.

    ``fault_delay_s`` is recovery time the fault plane charged to this
    job (retry backoff, injected stalls, failed-attempt re-senses that
    the engine did not fold into the stage durations): it extends the
    job's *first* stage -- the die is occupied retrying -- so the
    latency impact of every fault lands exactly in the simulated
    timeline, and :attr:`StageReport.fault_overhead` totals it.  The
    sweep skips the addition entirely at 0.0, keeping fault-free
    schedules float-identical.

    ``background`` marks the lower service class of the sweep (set by
    :func:`background_job`, never inferred from ``priority``): a
    single-stage job that runs only in its die's idle gaps and yields
    to foreground arrivals; its ``priority`` and ``deadline`` are
    never read.

    Construction validates everything the sweep relies on (alignment,
    at least one stage, no negative duration or delay), so the event
    loop never re-checks per event.  A value object by
    convention: slotted rather than frozen, because the service builds
    one per chunk task and a frozen dataclass pays an
    ``object.__setattr__`` per field -- never mutate one (the service
    lists one shared instance many times); derive with
    :func:`dataclasses.replace`.
    """

    ready_at: float
    durations: tuple[float, ...]
    resources: tuple[str, ...]
    priority: float = 0.0
    deadline: float | None = None
    fault_delay_s: float = 0.0
    background: bool = False

    def __post_init__(self) -> None:
        if len(self.durations) != len(self.resources):
            raise ValueError("durations and resources must align")
        if not self.durations:
            raise ValueError("job needs at least one stage")
        if self.background and len(self.durations) != 1:
            raise ValueError("a background job has exactly one stage")
        if min(self.durations) < 0:
            raise ValueError("duration must be >= 0")
        if self.fault_delay_s < 0:
            raise ValueError("fault_delay_s must be >= 0")

    @property
    def urgency(self) -> tuple[int, float, float]:
        """Die-queue urgency, smaller = more urgent: deadline-carrying
        jobs sort before deadline-free ones, then by earlier deadline,
        then by higher priority."""
        if self.deadline is not None:
            return (0, self.deadline, -self.priority)
        return (1, 0.0, -self.priority)


#: Suspension parameters of a sweep that was not given any.
_ZERO_COST_SUSPENSION = ArbitrationConfig()


def background_job(
    resource: str, busy_s: float, *, ready_at: float = 0.0
) -> StageJob:
    """Single-stage background job on one die resource.

    Background copy/erase work never crosses the channel or the
    external link (copyback moves pages inside the die), so it
    occupies only the chip resource.  It is the sweep's *background
    class*: it fills the die's idle gaps and is suspended by
    foreground arrivals (see :func:`simulate_stages`).
    """
    return StageJob(
        ready_at=ready_at,
        durations=(busy_s,),
        resources=(resource,),
        background=True,
    )


@dataclass
class StageReport:
    """Outcome of a pipeline simulation.

    ``resource_busy``/``resource_jobs`` are keyed by whatever resource
    names the jobs carried -- the fixed die/channel/link trio of the
    Figure 7 pipelines, or the ``chip*``/``chan*``/``ext`` sets of the
    service plane; every accessor below treats the name set as open
    (unknown names report zero rather than raising).
    ``resource_preemptions`` counts suspensions of background jobs per
    resource, ``resource_guard_waits`` the arrivals that waited out a
    resumed job's protection (:func:`_protected_until`) instead,
    and ``preemption_overhead`` totals the suspend/resume seconds
    charged on top of the useful work.  ``fault_overhead`` totals the
    jobs' ``fault_delay_s`` recovery seconds that extended their first
    stages -- the exact simulated cost of fault recovery.
    """

    makespan: float
    completion_times: list[float]
    resource_busy: dict[str, float] = field(default_factory=dict)
    resource_jobs: dict[str, int] = field(default_factory=dict)
    resource_preemptions: dict[str, int] = field(default_factory=dict)
    resource_guard_waits: dict[str, int] = field(default_factory=dict)
    preemption_overhead: float = 0.0
    fault_overhead: float = 0.0

    @property
    def preemptions(self) -> int:
        """Total suspensions across all resources."""
        return sum(self.resource_preemptions.values())

    @property
    def bottleneck(self) -> str:
        """Busiest resource; deterministic under ties (lexicographically
        first among the maxima), ``"idle"`` for an empty simulation --
        robust to arbitrary resource sets, not just the fixed
        three-stage names."""
        if not self.resource_busy:
            return "idle"
        peak = max(self.resource_busy.values())
        return min(
            name
            for name, busy in self.resource_busy.items()
            if busy == peak
        )

    def utilization(self, name: str) -> float:
        """Fraction of the makespan a resource spent busy.  Unknown
        resource names (a channel that served no job, a way the config
        does not have) report 0.0 instead of raising."""
        if self.makespan <= 0:
            return 0.0
        return self.resource_busy.get(name, 0.0) / self.makespan

    def utilizations(self) -> dict[str, float]:
        """Per-resource utilization over every resource that served
        work, whatever the names -- chips, channels, ways, the
        external link."""
        return {name: self.utilization(name) for name in self.resource_busy}

    def class_utilization(self) -> dict[str, float]:
        """Mean utilization per resource *class*, grouping instance
        names by their alphabetic prefix (``chan0``/``chan1`` ->
        ``chan``, ``chip3`` -> ``chip``, ``ext`` -> ``ext``).  Works
        for any naming scheme whose instances are ``<class><index>``;
        names without a digit suffix form their own class."""
        groups: dict[str, list[float]] = {}
        for name in self.resource_busy:
            cls = name.rstrip("0123456789") or name
            groups.setdefault(cls, []).append(self.utilization(name))
        return {
            cls: sum(values) / len(values)
            for cls, values in groups.items()
        }


def simulate_stages(
    jobs: list[StageJob],
    *,
    suspension: ArbitrationConfig | None = None,
) -> StageReport:
    """Run jobs through their stage chains.

    One sweep over all stage events in global ``(ready, seq)`` order,
    which stays exact when streams interleave; the order comes from
    merging the sorted stage-0 arrivals with a heap of downstream
    events (see the comment in the body for why the merge is exact and
    how ties break).

    The resource a job enters first serves its *waiting* jobs by
    :attr:`StageJob.urgency`, arrival order within equal urgency,
    non-preemptively (module docstring, "Three classes at the die");
    every later stage admits in ready-time order, ties by creation
    order, matching how a real controller arbitrates a shared bus.  An
    arrival that finds its die idle is served by plain arithmetic and
    touches no queue, and when no two foreground jobs differ in
    urgency nothing ever queues: the list is served exactly
    first-come-first-served, float for float.

    Background jobs (:attr:`StageJob.background`) are the lowest class
    inside the same sweep: each waits on its die's gap queue and runs
    only while the die would otherwise idle (see :func:`_fill_gap`),
    suspended by foreground arrivals under ``suspension``'s
    ``suspend_cost_s`` / ``resume_cost_s`` / ``min_remaining_s``
    (default: a zero-cost :class:`ArbitrationConfig`) and the
    forward-progress rule.  A job list without background jobs never
    reaches that code.
    """
    if not jobs:
        # An empty stream (e.g. an admission window that admitted no
        # queries) simulates to an idle, zero-makespan report.
        return StageReport(makespan=0.0, completion_times=[])
    if suspension is None:
        suspension = _ZERO_COST_SUSPENSION

    # Executing stage events in global (ready, seq) order is exact for
    # feed-forward pipelines: per resource, events are seen in ready
    # order, and a downstream event always carries ready >= the ready
    # of the event that produced it, so the sweep never goes back in
    # time.  ``seq`` numbers events in creation order: the N stage-0
    # arrivals first (seq == job index), every later event after them
    # (seq >= N).
    #
    # That order is produced by a merge instead of one heap of N
    # entries.  The arrivals are simply the job indices sorted by
    # ``ready_at`` (the sort is stable, which is the seq tie-break
    # among them); only later events live in a heap, whose size is the
    # number of jobs in flight.  The heap's head runs next only when
    # its time is *strictly* earlier than the next arrival's: at equal
    # times the arrival's smaller seq wins -- which is also why an
    # arrival at the instant its die frees is among the waiters when
    # the "die frees" entry (:func:`_serve_waiters`) picks one.
    # Nothing here assumes which resource names appear at which stage.
    #
    # A background arrival is not served: it joins its die's gap
    # queue, which the arrival order keeps sorted by ``(ready, seq)``.
    # The queue is looked at only when a foreground event finds the
    # die idle before its own ready time (and once at the end), so
    # foreground events see the same additions in the same order
    # whether or not anything is queued elsewhere.
    n_jobs = len(jobs)
    ready = [job.ready_at for job in jobs]
    arrivals = sorted(range(n_jobs), key=ready.__getitem__)
    arrived = 0
    next_ready = ready[arrivals[0]]
    heap: list[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = n_jobs
    queued = _urgency_differs(jobs)

    #: name -> state (see :data:`_IDLE`), inlined rather than a
    #: :class:`SerialResource`: the service layer replays one job per
    #: chunk per window through here.
    resources: dict[str, list] = {}
    completion = [0.0] * n_jobs
    fault_overhead = 0.0
    while True:
        if heap and (arrived == n_jobs or heap[0][0] < next_ready):
            ready_at, _, idx, stage = pop(heap)
            if idx < 0:
                # A die frees; ``stage`` is its state.
                seq = _serve_waiters(
                    stage, ready_at, jobs, heap, seq, completion
                )
                continue
            job = jobs[idx]
            durations = job.durations
            duration = durations[stage]
        elif arrived < n_jobs:
            idx = arrivals[arrived]
            arrived += 1
            ready_at = next_ready
            if arrived < n_jobs:
                next_ready = ready[arrivals[arrived]]
            stage = 0
            job = jobs[idx]
            durations = job.durations
            duration = durations[0]
            if job.fault_delay_s:
                # Recovery time occupies the die ahead of the useful
                # work; guarded so fault-free schedules stay
                # float-identical.
                duration += job.fault_delay_s
                fault_overhead += job.fault_delay_s
            if job.background:
                _queue_background(resources, job, (ready_at, duration, idx))
                continue
        else:
            break
        name = job.resources[stage]
        state = resources.get(name)
        if state is None:
            state = resources[name] = list(_IDLE)
        start = state[0]
        if ready_at > start:
            # The resource idles before this event is ready ...
            if state[3] is None:
                start = ready_at
            elif _fill_gap(state, ready_at, suspension, completion):
                # ... or its background work ended, or yielded, in time
                start = ready_at if ready_at > state[0] else state[0]
            elif queued and not stage:
                # ... or runs on, unable to yield: wait for the die.
                seq = _join_waiters(
                    state, heap, seq, job, arrived, idx, duration
                )
                continue
            else:
                start = state[0]
        elif (
            not stage
            and (duration or start > ready_at or state[5])
            and queued
            and state[2]
        ):
            # The die is busy, or frees this very instant: wait --
            # unless the job needs no die time and nobody waits ahead
            # of it: then it delays no one by going now.
            seq = _join_waiters(state, heap, seq, job, arrived, idx, duration)
            continue
        end = start + duration
        state[0] = end
        state[1] += duration
        state[2] += 1
        stage += 1
        if stage < len(durations):
            push(heap, (end, seq, idx, stage))
            seq += 1
        else:
            completion[idx] = end
    return _report(resources, completion, suspension, fault_overhead)


#: A resource of the sweep before its first job: ``[available at, busy
#: seconds, jobs served, gap queue or None, suspensions, wait heap or
#: None, guard waits]``; the first three with the semantics of
#: :class:`SerialResource`, which remains the single-resource API.
_IDLE = (0.0, 0.0, 0, None, 0, None, 0)


def _protected_until(
    parked: float | None, resumed: float, cfg: ArbitrationConfig
) -> float:
    """The forward-progress rule: a background job may not be suspended
    again before it has run for as long as it was kept off its die
    plus what the suspension cost; never parked, it yields at once."""
    if parked is None:
        return resumed
    return (
        resumed + (resumed - parked) + cfg.suspend_cost_s + cfg.resume_cost_s
    )


def _report(
    resources: dict[str, list],
    completion: list[float],
    suspension: ArbitrationConfig,
    fault_overhead: float,
) -> StageReport:
    """Flush the background work still queued behind the last
    foreground job of each die and total the sweep's report."""
    suspensions, guard_waits = {}, {}
    for name, state in resources.items():
        if state[3] is not None:
            _fill_gap(state, float("inf"), suspension, completion)
        if state[4]:
            suspensions[name] = state[4]
        if state[6]:
            guard_waits[name] = state[6]
    return StageReport(
        makespan=max(completion),
        completion_times=completion,
        resource_busy={name: s[1] for name, s in resources.items()},
        resource_jobs={name: s[2] for name, s in resources.items()},
        resource_preemptions=suspensions,
        resource_guard_waits=guard_waits,
        preemption_overhead=sum(suspensions.values())
        * (suspension.suspend_cost_s + suspension.resume_cost_s),
        fault_overhead=fault_overhead,
    )


def _urgency_differs(jobs: list[StageJob]) -> bool:
    """Whether any two foreground jobs differ in urgency -- only then
    can the order a die serves its waiters in differ from arrival
    order, and only then does the sweep queue at all."""
    first = None
    for job in jobs:
        if job.background:
            continue
        key = (job.deadline, job.priority)
        if first is None:
            first = key
        elif key != first:
            return True
    return False


def _queue_background(
    resources: dict[str, list], job: StageJob, waiter: tuple
) -> None:
    """A background arrival is not served: ``(ready, seconds, job
    index)`` joins its die's gap queue."""
    state = resources.get(job.resources[0])
    if state is None:
        state = resources[job.resources[0]] = list(_IDLE)
    if state[3] is None:
        state[3] = _GapQueue()
    state[3].waiting.append(waiter)


def _join_waiters(
    state: list,
    heap: list,
    seq: int,
    job: StageJob,
    rank: int,
    idx: int,
    duration: float,
) -> int:
    """Queue job ``idx`` -- ``(*urgency, arrival rank, job index,
    stage-0 seconds)`` -- on a die that is busy at its ready time;
    returns the next ``seq``.  The first waiter arms the die's "die
    frees" entry in the event heap -- ``(time, seq, -1, state)`` -- at
    the time the die's current work ends; :func:`_serve_waiters`
    re-arms it while waiters remain, so a die has one entry in flight
    exactly while somebody waits for it."""
    waiting = state[5]
    if waiting is None:
        waiting = state[5] = []
    if not waiting:
        heapq.heappush(heap, (state[0], seq, -1, state))
        seq += 1
    heapq.heappush(waiting, (*job.urgency, rank, idx, duration))
    return seq


def _serve_waiters(
    state: list,
    at: float,
    jobs: list[StageJob],
    heap: list,
    seq: int,
    completion: list[float],
) -> int:
    """A die frees at ``at``: start its most urgent waiter (earliest
    arrival among equals), non-preemptively; returns the next ``seq``.

    Every arrival with a ready time up to and including ``at`` has
    already joined (the event merge runs arrivals first at equal
    times).  A zero-length waiter frees the die again in the same
    instant, so the next is picked at once.  Should the die have
    taken work by another route since the entry was armed (a resource
    that is also some job's later stage), the pick moves to the end
    of that work.
    """
    waiting = state[5]
    end = state[0]
    while end <= at:
        idx, duration = heapq.heappop(waiting)[-2:]
        end = at + duration
        state[0] = end
        state[1] += duration
        state[2] += 1
        job = jobs[idx]
        if len(job.durations) > 1:
            heapq.heappush(heap, (end, seq, idx, 1))
            seq += 1
        else:
            completion[idx] = end
        if not waiting:
            return seq
    heapq.heappush(heap, (end, seq, -1, state))
    return seq + 1


class _GapQueue:
    """Background work waiting on one die of the sweep, served in
    arrival order one job at a time."""

    __slots__ = ("waiting", "head", "remainder", "parked")

    def __init__(self) -> None:
        #: ``(ready, duration, job index)`` in ``(ready, seq)`` order.
        self.waiting: list[tuple[float, float, int]] = []
        self.head = 0
        #: Seconds the head job still needs after a suspension (its
        #: resume cost included) and when it was parked; ``None``
        #: while it has not started.
        self.remainder: float | None = None
        self.parked: float | None = None


def _fill_gap(
    state: list,
    limit: float,
    cfg: ArbitrationConfig,
    completion: list[float],
) -> bool:
    """Serve one die's queued background work in the idle gap between
    ``state[0]`` (the die's last foreground completion) and ``limit``
    (the ready time of the foreground event that found the gap, or
    infinity for the final flush), leaving ``state[0]`` where the
    foreground may start.  Returns whether the die is that event's to
    take: it idles before ``limit``, or the job in flight yielded.

    A background job starts only *strictly* before ``limit`` -- at
    equal times the foreground wins -- and never before its own ready
    time.  One still in flight at ``limit`` is suspended: the die pays
    ``suspend_cost_s`` before the foreground starts and the remainder
    carries ``resume_cost_s``.  A resumed job yields no earlier than
    :func:`_protected_until` (the guard), one with at most
    ``min_remaining_s`` left not at all: the foreground waits --
    ``False``, ``state[0]`` where the job yields or ends -- and if
    others arrive meanwhile the die picks among them by urgency when
    it frees.  The arithmetic is that of the arbitrated oracle
    (module docstring) on the same jobs.
    """
    queue: _GapQueue = state[3]
    waiting = queue.waiting
    at = state[0]
    yielded = False
    while queue.head < len(waiting):
        ready_at, duration, idx = waiting[queue.head]
        if queue.remainder is None:
            start = ready_at if ready_at > at else at
        else:
            start = at
            duration = queue.remainder
        if start >= limit:
            break
        end = start + duration
        if end - limit > cfg.min_remaining_s:
            # In flight at ``limit`` with enough left to park: it
            # yields there, or where its protection ends.
            yields_at = _protected_until(queue.parked, start, cfg)
            if yields_at > limit:
                state[6] += 1
            else:
                yields_at = limit
            if end - yields_at > cfg.min_remaining_s:
                state[1] += yields_at - start
                state[1] += cfg.suspend_cost_s
                state[4] += 1
                queue.remainder = (end - yields_at) + cfg.resume_cost_s
                queue.parked = yields_at
                at = yields_at + cfg.suspend_cost_s
                yielded = yields_at == limit
                break
        state[1] += duration
        state[2] += 1
        completion[idx] = end
        queue.head += 1
        queue.remainder = queue.parked = None
        at = end
    else:
        state[3] = None
    state[0] = at
    return yielded or at < limit
