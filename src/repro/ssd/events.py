"""Timeline simulation of pipelined SSD dataflows.

The paper's Figure 7 reasons about three serial resources: per-die
sensing, the per-channel bus, and the shared external link.  This
module models exactly that: :func:`simulate_stages` pushes batches of
work through a chain of stages, each stage's resource serving one job
at a time, yielding per-stage busy intervals and the end-to-end
makespan.

The simulation is event-accurate for feed-forward pipelines (each
job's stage N+1 becomes ready when its stage N finishes) -- sufficient
to reproduce the 471/431/335-us timelines of Figure 7 exactly, which
the tests pin.

Jobs need not all be ready at t=0: the query service layer
(:mod:`repro.service`) feeds each admission window's jobs, ready at
its close, into one resumable :class:`StageSweep` per run, which runs
every event before that close and hands back the completions now
final: cross-window contention (a window's jobs queue behind the
previous window's stragglers on shared chips, channels, and the
external link) stays exact.  Within one ready time, ties break by
submission order -- which is precisely the knob the multi-query
scheduler turns.

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
event a heap).  A job list without urgency differences queues the same
way, in arrival order, so every die serves it first-come-first-served;
next to a plain FCFS sweep only the order of two jobs that reach a
downstream stage at the same instant can differ (a waiter's
downstream turn is drawn when its die starts it, not when it arrived).

**Background class.**  A GC erase is 3.5 ms against a 25-us sense.
Jobs built by :func:`background_job` (GC copyback + erase, drain,
rebuild) are the lowest class, the way real NAND orders erase/program
*suspend* ahead of reads ahead of program/erase: they run only in the
idle gaps of their die -- never while a foreground job waits -- and
are suspended by a foreground arrival, at no cost (the paper models no
suspend latency).  Suspension goes by forward progress, not by a
budget (:func:`_protected_until`): a resumed job first runs as long
as it was kept off the die, an arrival meanwhile waiting as behind any
busy die -- for the burst that last displaced the job at most, never
for an erase, while a started erase keeps half of the contended die
time.  At equal times the foreground wins.  The class is a gap-filler
per die, consulted only when a foreground event finds the die idle
before its own ready time and once at the end, so a stream without
background jobs never reaches it.

**Rows.**  The sweep carries a job as a plain tuple, its *row*
``(ready_at, durations, resources, fault_delay_s, background,
urgency)`` (:func:`sweep_row`).  :meth:`StageSweep.feed` takes rows or
:class:`StageJob` objects (the checked single-job form), turning each
into its row once.
The service lists rows directly and checks each value where it enters
(``docs/architecture.md`` §5); the sweep trusts a row.

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
from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Sequence


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
    at least one stage, no negative duration or delay, every time and
    urgency finite), so the event loop, which runs on the job's
    :attr:`row`, never re-checks per event.  A value object by
    convention, slotted rather than frozen: derive with
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
        # The sweep loses or mis-orders a job with a NaN or infinity.
        # One sum checks every field; the loop only names the culprit.
        if not isfinite(
            self.ready_at + sum(self.durations) + self.fault_delay_s
            + self.priority + (self.deadline or 0.0)
        ):
            for name in ("ready_at", "durations", "fault_delay_s",
                         "priority", "deadline"):
                value = getattr(self, name)
                total = sum(value) if name == "durations" else value or 0.0
                if not isfinite(total):
                    raise ValueError(f"{name} must be finite, not {value!r}")

    @property
    def urgency(self) -> tuple[int, float, float]:
        """Die-queue urgency: :func:`urgency_key`."""
        return urgency_key(self.priority, self.deadline)

    @property
    def row(self) -> tuple:
        """The job as the sweep carries it: :func:`sweep_row`."""
        return sweep_row(self.ready_at, self.durations, self.resources,
                         self.fault_delay_s, self.background, self.urgency)


def sweep_row(ready_at, durations, resources, fault_delay_s, background,
              urgency) -> tuple:
    """A job's row: the one order of its fields, which the sweep reads."""
    return (ready_at, durations, resources, fault_delay_s, background, urgency)


def urgency_key(priority: float, deadline: float | None) -> tuple:
    """Die-queue urgency, smaller = more urgent: deadline-carrying jobs
    sort before deadline-free ones, then by earlier deadline, then by
    higher priority."""
    if deadline is not None:
        return (0, deadline, -priority)
    return (1, 0.0, -priority)


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

    ``completion_times`` is in listing order (empty when a
    :class:`StageSweep` handed its completions back as they came).
    ``resource_busy``/``resource_jobs`` are keyed by whatever resource
    names the jobs carried -- the fixed die/channel/link trio of the
    Figure 7 pipelines, or the ``chip*``/``chan*``/``ext`` sets of the
    service plane; every accessor below treats the name set as open
    (unknown names report zero rather than raising).
    ``resource_preemptions`` counts suspensions of background jobs per
    resource and ``resource_guard_waits`` the arrivals that waited out
    a resumed job's protection (:func:`_protected_until`) instead.
    ``fault_overhead`` totals the jobs' ``fault_delay_s`` recovery
    seconds that extended their first stages -- the exact simulated
    cost of fault recovery.
    """

    makespan: float
    completion_times: list[float]
    resource_busy: dict[str, float] = field(default_factory=dict)
    resource_jobs: dict[str, int] = field(default_factory=dict)
    resource_preemptions: dict[str, int] = field(default_factory=dict)
    resource_guard_waits: dict[str, int] = field(default_factory=dict)
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
    jobs: Sequence[StageJob | tuple],
    *,
    sweep: StageSweep | None = None,
    tags: Sequence | None = None,
) -> StageReport | list[tuple]:
    """Run jobs through their stage chains.

    One sweep over all stage events in global time order, which stays
    exact when streams interleave; the order comes from merging the
    sorted stage-0 arrivals with a heap of downstream events (see
    :meth:`StageSweep._advance` for why the merge is exact and how ties
    break): one feed of a fresh :class:`StageSweep`, then its close.
    Given a ``sweep`` instead -- the service's call, once per window --
    it returns ``sweep.feed(jobs, tags)``.

    The resource a job enters first serves its *waiting* jobs by
    :attr:`StageJob.urgency`, arrival order within equal urgency,
    non-preemptively (module docstring, "Three classes at the die");
    every later stage admits in ready-time order, ties by creation
    order, matching how a real controller arbitrates a shared bus.  An
    arrival that finds its die idle is served by plain arithmetic and
    touches no queue; one that finds it busy waits, whatever the other
    jobs' urgencies, so a list without urgency differences is served
    first-come-first-served at every die.

    Background jobs (:attr:`StageJob.background`) are the lowest class
    inside the same sweep: each waits on its die's gap queue and runs
    only while the die would otherwise idle (see :func:`_fill_gap`),
    suspended at no cost by foreground arrivals under the
    forward-progress rule.  A job list without background jobs never
    reaches that code.
    """
    if sweep is not None:
        return sweep.feed(jobs, tags)
    whole = StageSweep()
    whole.feed(jobs)
    done, report = whole.close()
    completion = [0.0] * len(jobs)
    for index, end in done:
        completion[index] = end
    report.completion_times = completion
    return report


class StageSweep:
    """The sweep of :func:`simulate_stages`, resumable.

    :meth:`feed` runs every event strictly earlier than its jobs' ready
    time, queues them and returns the completions it finalised as
    ``(tag, end)`` -- a tag per *listing*, by default its index over
    every feed.  No job may be ready before the latest ready time fed
    so far.  :meth:`close` runs the rest, flushes the background gap
    queues and returns ``(completions, report)``.  Split into feeds
    however, a list is served exactly as one feed serves it: a feed
    runs only events that no later arrival can precede, and a die
    ranks its waiters the same whichever feed brought them.
    """

    def __init__(self) -> None:
        #: Arrivals in ``(ready, listing)`` order, as parallel lists of
        #: ready times, rows and tags; those before ``_head`` have run.
        self._ready: list[float] = []
        self._jobs: list[tuple] = []
        self._tags: list = []
        self._head = self._fed = self._seq = 0
        self._clock, self._fault_overhead = -inf, 0.0
        #: ``(time, seq, row, stage, tag)``; a "die frees" entry has
        #: ``None`` for row and tag and the die's state as stage.
        self._heap: list[tuple] = []
        #: name -> state (see :data:`_IDLE`).
        self._resources: dict[str, list] = {}

    def feed(
        self, jobs: Sequence[StageJob | tuple], tags: Sequence | None = None
    ) -> list[tuple]:
        """Queue ``jobs`` (rows or :class:`StageJob` objects) after
        running every event before them; returns the completions that
        finalised."""
        if not jobs:
            return []
        if tags is None:
            tags = range(self._fed, self._fed + len(jobs))
        elif len(tags) != len(jobs):
            raise ValueError("one tag per job")
        jobs = [job if job.__class__ is tuple else job.row for job in jobs]
        ready = [job[0] for job in jobs]
        if sorted(ready) != ready:
            # Stable: listing order breaks ties.
            order = sorted(range(len(ready)), key=ready.__getitem__)
            ready = [ready[i] for i in order]
            jobs = [jobs[i] for i in order]
            tags = [tags[i] for i in order]
        if ready[0] < self._clock:
            raise ValueError(f"job ready before the clock, {self._clock}")
        self._fed += len(jobs)
        self._clock = ready[-1]
        done = self._advance(ready[0])
        if self._head:
            head, self._head = self._head, 0
            del self._ready[:head], self._jobs[:head], self._tags[:head]
        self._ready += ready
        self._jobs += jobs
        self._tags += tags
        return done

    def close(self) -> tuple[list[tuple], StageReport]:
        """Run every event left, flush the background still queued
        behind the last foreground job of each die, and total the
        sweep's report."""
        done = self._advance(inf)
        resources = self._resources
        for state in resources.values():
            if state[3] is not None:
                _fill_gap(state, inf, done)
        return done, StageReport(
            # Available times only grow, and each is a stage's end.
            makespan=max((s[0] for s in resources.values()), default=0.0),
            completion_times=[],
            resource_busy={name: s[1] for name, s in resources.items()},
            resource_jobs={name: s[2] for name, s in resources.items()},
            resource_preemptions={
                name: s[4] for name, s in resources.items() if s[4]
            },
            resource_guard_waits={
                name: s[6] for name, s in resources.items() if s[6]
            },
            fault_overhead=self._fault_overhead,
        )

    def _advance(self, limit: float) -> list[tuple]:
        """Run every event strictly earlier than ``limit``; returns the
        completions that finalised."""
        # Executing stage events in global time order is exact for
        # feed-forward pipelines: per resource, events are seen in ready
        # order, and a downstream event's ready is >= that of the event
        # that produced it -- nor can a later feed, ready at ``limit``
        # or after, reach back before it.
        #
        # That order is produced by a merge instead of one heap of all
        # events.  The arrivals are sorted by ``ready_at`` (stable, so
        # listing order breaks ties); only later events live in a heap,
        # as many as jobs in flight, ``seq`` numbering them in creation
        # order.  The heap's head runs next only when its time is
        # *strictly* earlier than the next arrival's: at equal times the
        # arrival wins -- which is also why an arrival at the instant
        # its die frees is among the waiters when the "die frees" entry
        # (:func:`_serve_waiters`) picks one.  Nothing here assumes
        # which resource names appear at which stage.
        #
        # A background arrival is not served: it joins its die's gap
        # queue, which the arrival order keeps sorted.  The queue is
        # looked at only when a foreground event finds the die idle
        # before its own ready time (and once at the close), so
        # foreground events see the same additions in the same order
        # whether or not anything is queued elsewhere.
        ready, jobs, tags = self._ready, self._jobs, self._tags
        heap, resources = self._heap, self._resources
        push, pop = heapq.heappush, heapq.heappop
        arrived = self._head
        stop = bisect_left(ready, limit, arrived)
        next_ready = ready[arrived] if arrived < stop else limit
        seq, fault_overhead = self._seq, self._fault_overhead
        done: list[tuple] = []
        finish = done.append
        while True:
            if heap and heap[0][0] < next_ready:
                ready_at, _, job, stage, tag = pop(heap)
                if job is None:
                    # A die frees; ``stage`` is its state.
                    seq = _serve_waiters(stage, ready_at, heap, seq, done)
                    continue
                durations = job[1]
                duration = durations[stage]
            elif arrived < stop:
                job, tag = jobs[arrived], tags[arrived]
                arrived += 1
                ready_at = next_ready
                next_ready = ready[arrived] if arrived < stop else limit
                stage = 0
                durations = job[1]
                duration = durations[0]
                if job[3]:
                    # Recovery time occupies the die ahead of the useful
                    # work; guarded so fault-free schedules stay
                    # float-identical.
                    duration += job[3]
                    fault_overhead += job[3]
                if job[4]:  # background: it joins its die's gap queue
                    name = job[2][0]
                    state = resources.get(name)
                    if state is None:
                        state = resources[name] = list(_IDLE)
                    if state[3] is None:
                        state[3] = _GapQueue()
                    state[3].waiting.append((ready_at, duration, tag))
                    continue
            else:
                break
            name = job[2][stage]
            state = resources.get(name)
            if state is None:
                state = resources[name] = list(_IDLE)
            start = state[0]
            if ready_at > start:
                # The resource idles before this event is ready ...
                if state[3] is None:
                    start = ready_at
                elif _fill_gap(state, ready_at, done):
                    # ... or its background work ended, or yielded, in time
                    start = ready_at if ready_at > state[0] else state[0]
                elif not stage:
                    # ... or runs on, unable to yield: wait for the die.
                    seq = _join_waiters(state, heap, seq, job, tag, duration)
                    continue
                else:
                    start = state[0]
            elif (
                not stage
                and (duration or start > ready_at or state[5])
                and state[2]
            ):
                # The die is busy, or frees this very instant: wait --
                # unless the job needs no die time and nobody waits ahead
                # of it: then it delays no one by going now.
                seq = _join_waiters(state, heap, seq, job, tag, duration)
                continue
            end = start + duration
            state[0] = end
            state[1] += duration
            state[2] += 1
            stage += 1
            if stage < len(durations):
                push(heap, (end, seq, job, stage, tag))
                seq += 1
            else:
                finish((tag, end))
        self._head, self._seq = arrived, seq
        self._fault_overhead = fault_overhead
        return done


#: A resource of the sweep before its first job: ``[available at, busy
#: seconds, jobs served, gap queue or None, suspensions, wait heap or
#: None, guard waits]``; the last four are what only a die uses (the
#: background class and the die queue).
_IDLE = (0.0, 0.0, 0, None, 0, None, 0)


def _protected_until(parked: float | None, resumed: float) -> float:
    """The forward-progress rule: a background job may not be suspended
    again before it has run for as long as it was kept off its die;
    never parked, it yields at once."""
    if parked is None:
        return resumed
    return resumed + (resumed - parked)


def _join_waiters(
    state: list, heap: list, seq: int, job: tuple, tag, duration: float
) -> int:
    """Queue row ``job`` -- ``(urgency, seq, job, tag, stage-0 seconds)``,
    ``seq`` ranking it by arrival -- on a die busy at its ready time;
    returns the next ``seq``.  The first waiter arms the die's "die
    frees" entry in the event heap -- ``(time, seq, None, state,
    None)`` -- at the time the die's current work ends;
    :func:`_serve_waiters` re-arms it while waiters remain, so a die
    has one entry in flight exactly while somebody waits for it."""
    waiting = state[5]
    if waiting is None:
        waiting = state[5] = []
    if not waiting:
        heapq.heappush(heap, (state[0], seq, None, state, None))
        seq += 1
    heapq.heappush(waiting, (job[5], seq, job, tag, duration))
    return seq + 1


def _serve_waiters(
    state: list, at: float, heap: list, seq: int, done: list[tuple]
) -> int:
    """A die frees at ``at``: start its most urgent waiter (earliest
    arrival among equals), non-preemptively; returns the next ``seq``.

    Every arrival with a ready time up to and including ``at`` has
    already joined (the event merge runs arrivals first at equal
    times, and no later feed is ready by ``at``).  A zero-length waiter
    frees the die again in the same instant, so the next is picked at
    once.  Should the die have taken work by another route since the
    entry was armed (a resource that is also some job's later stage),
    the pick moves to the end of that work.
    """
    waiting = state[5]
    end = state[0]
    while end <= at:
        _, _, job, tag, duration = heapq.heappop(waiting)
        end = at + duration
        state[0] = end
        state[1] += duration
        state[2] += 1
        if len(job[1]) > 1:
            heapq.heappush(heap, (end, seq, job, 1, tag))
            seq += 1
        else:
            done.append((tag, end))
        if not waiting:
            return seq
    heapq.heappush(heap, (end, seq, None, state, None))
    return seq + 1


class _GapQueue:
    """Background work waiting on one die of the sweep, served in
    arrival order one job at a time."""

    __slots__ = ("waiting", "head", "remainder", "parked")

    def __init__(self) -> None:
        #: ``(ready, duration, tag)`` in arrival order.
        self.waiting: list[tuple] = []
        self.head = 0
        #: Seconds the head job still needs after a suspension and
        #: when it was parked; ``None`` while it has not started.
        self.remainder: float | None = None
        self.parked: float | None = None


def _fill_gap(state: list, limit: float, done: list[tuple]) -> bool:
    """Serve one die's queued background work in the idle gap between
    ``state[0]`` (the die's last foreground completion) and ``limit``
    (the ready time of the foreground event that found the gap, or
    infinity for the final flush), leaving ``state[0]`` where the
    foreground may start.  Returns whether the die is that event's to
    take: it idles before ``limit``, or the job in flight yielded.

    A background job starts only *strictly* before ``limit`` -- at
    equal times the foreground wins -- and never before its own ready
    time.  One still in flight at ``limit`` is suspended there, and
    the foreground starts at once.  A resumed job yields no earlier
    than :func:`_protected_until` (the guard): the foreground waits --
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
        ready_at, duration, tag = waiting[queue.head]
        if queue.remainder is None:
            start = ready_at if ready_at > at else at
        else:
            start = at
            duration = queue.remainder
        if start >= limit:
            break
        end = start + duration
        if end > limit:
            # In flight at ``limit``: it yields there, or where its
            # protection ends.
            yields_at = _protected_until(queue.parked, start)
            if yields_at > limit:
                state[6] += 1
            else:
                yields_at = limit
            if end > yields_at:
                state[1] += yields_at - start
                state[4] += 1
                queue.remainder = end - yields_at
                queue.parked = at = yields_at
                yielded = yields_at == limit
                break
        state[1] += duration
        state[2] += 1
        done.append((tag, end))
        queue.head += 1
        queue.remainder = queue.parked = None
        at = end
    else:
        state[3] = None
    state[0] = at
    return yielded or at < limit
