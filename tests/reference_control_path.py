"""Reference oracles for the per-window host control path.

The bodies below are the ``schedule_window`` (+ ``_chip_share_groups``,
``_Bucket``, ``_edf_schedule``) of ``repro.service.scheduler`` and the
FCFS sweep of ``repro.ssd.events.simulate_stages`` exactly as they stood
before the heap-driven scheduler and the arrival-merge sweep replaced
them -- kept verbatim, test-only, as what the equivalence suites
(``tests/service/test_scheduler_equivalence.py``,
``tests/ssd/test_events_equivalence.py``) compare the production code
against with ``==`` on every float.  They are deliberately slow and
obvious: repeated ``min``/``max`` scans over all chips and tenants, one
global event heap holding every job.  Do not optimise them.

:class:`BufferedSweep` is the service's event sweep as it stood before
it streamed: every window's jobs held until the run ends, then one
one-shot replay of them all.
"""

from __future__ import annotations

import heapq
import inspect
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.core.planner import Plan
from repro.service.scheduler import (
    POLICIES,
    LatencyEstimator,
    QueryInfo,
)
from repro.ssd.events import (
    StageJob,
    StageReport,
    simulate_stages,
    sweep_row,
)
from repro.ssd.query_engine import ChunkTask

_NO_DEADLINE = float("inf")


def schedule_window(
    tasks: Sequence[ChunkTask],
    estimate: LatencyEstimator,
    *,
    policy: str = "balanced",
    share: bool = True,
    info: Mapping[int, QueryInfo] | None = None,
    degraded: Iterable[int] = (),
    offline: Iterable[int] = (),
    degraded_slowdown: float = 3.0,
    gc_busy: Mapping[int, float] | None = None,
    reconstruct: bool = False,
) -> list[ChunkTask]:
    """Order one window's chunk tasks into the global emission order.

    ``share`` mirrors the engine's sense-sharing switch: with it on,
    duplicate tasks of a share group cost nothing, which changes the
    LPT weights and the cross-chip balance.  ``info`` carries the
    per-query deadlines/priorities/weights the ``edf`` policy orders
    by; the other policies ignore it.

    ``degraded`` and ``offline`` are the health tracker's routing
    directives (see :mod:`repro.service.health`).  Striping fixes
    chunk placement, so the scheduler cannot move a sick chip's work
    elsewhere -- what it does is *price and park*: a degraded chip's
    estimates are scaled by ``degraded_slowdown`` (the V_TH path is
    slower, so the LPT balance and EDF urgency must see the real
    cost), and a quarantined chip's tasks are parked at the emission
    tail in submission order, where the engine fails them fast
    without ever occupying schedule positions ahead of live work.
    With ``reconstruct`` on (parity-striped SSD) an offline chip's
    tasks are *not* parked -- the engine will serve them via parity
    reconstruction, which costs real survivor senses, so they are
    priced like degraded work (scaled by ``degraded_slowdown``) and
    scheduled inline with the live traffic instead of being written
    off at the tail.

    ``gc_busy`` is the maintenance plane's pricing input: per-chip
    background microseconds (GC copyback/erase, probation drain)
    still pending inside the event simulation.  A die occupied by
    background work drains its queue later in real time even though
    the background jobs yield to every foreground sense, so the
    cross-chip interleave counts that pending busy time as extra
    remaining work -- chips burdened by GC emit their buckets earlier
    and the window's tail stays off the collecting die.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose from {POLICIES}"
        )
    degraded_chips = frozenset(degraded)
    offline_chips = frozenset(offline)
    if reconstruct and offline_chips:
        # Reconstruction serves an offline chip's tasks at real
        # survivor-sense cost: price them as degraded work and keep
        # them in the live schedule instead of parking.
        degraded_chips |= offline_chips
        offline_chips = frozenset()
    if degraded_chips:
        base = estimate

        def estimate(task: ChunkTask, _base: LatencyEstimator = base) -> float:
            cost = _base(task)
            if task.chip in degraded_chips:
                cost *= degraded_slowdown
            return cost

    parked: list[ChunkTask] = []
    if offline_chips:
        live = [t for t in tasks if t.chip not in offline_chips]
        parked = [t for t in tasks if t.chip in offline_chips]
        tasks = live
    if policy == "fifo":
        return list(tasks) + parked
    if policy == "edf":
        return (
            _edf_schedule(tasks, estimate, info or {}, share, gc_busy)
            + parked
        )

    # 1./2. Bucket per chip by plan identity and LPT-order each chip's
    #    unique buckets by their estimated cost.
    chip_queues: dict[int, list[tuple[float, list[ChunkTask]]]] = {}
    chip_work: dict[int, float] = {}
    for chip, entries in _chip_share_groups(tasks, estimate, share).items():
        weighted = [(cost, group) for group, cost, _ in entries]
        weighted.sort(key=lambda item: -item[0])
        chip_queues[chip] = weighted
        chip_work[chip] = sum(cost for cost, _ in weighted)
    if gc_busy:
        for chip, extra in gc_busy.items():
            if chip in chip_work:
                chip_work[chip] += extra

    # 3. Emit buckets from the chip with the most remaining work.
    ordered: list[ChunkTask] = []
    while chip_queues:
        chip = max(chip_queues, key=lambda c: (chip_work[c], -c))
        cost, group = chip_queues[chip].pop(0)
        chip_work[chip] -= cost
        ordered.extend(group)
        if not chip_queues[chip]:
            del chip_queues[chip]
    return ordered + parked


def _chip_share_groups(
    tasks: Sequence[ChunkTask],
    estimate: LatencyEstimator,
    share: bool,
) -> dict[int, list[tuple[list[ChunkTask], float, int]]]:
    """Per chip: share-group buckets ``(group, cost, arrival)`` in
    first-seen order -- the step every non-FIFO policy starts from.
    A bucket's cost is one sense when sharing (subscribers are free)
    and one per task otherwise; ``arrival`` is the bucket's first
    position in the submitted order."""
    per_chip: dict[int, dict[Plan, list[ChunkTask]]] = {}
    arrival: dict[tuple[int, Plan], int] = {}
    for position, task in enumerate(tasks):
        per_chip.setdefault(task.chip, {}).setdefault(
            task.plan, []
        ).append(task)
        arrival.setdefault((task.chip, task.plan), position)
    grouped: dict[int, list[tuple[list[ChunkTask], float, int]]] = {}
    for chip, buckets in per_chip.items():
        entries = []
        for plan, group in buckets.items():
            unit = estimate(group[0])
            cost = unit if share else unit * len(group)
            entries.append((group, cost, arrival[(chip, plan)]))
        grouped[chip] = entries
    return grouped


class _Bucket(NamedTuple):
    """One share group under the ``edf`` policy: its urgency
    (earliest subscriber deadline, negated max priority, arrival
    position), its estimated cost, and the tenant it is billed to
    (the heaviest-weight subscriber)."""

    deadline: float
    neg_priority: int
    arrival: int
    cost: float
    client: str
    weight: float
    group: list[ChunkTask]

    def urgency_key(self) -> tuple[float, int, int]:
        return (self.deadline, self.neg_priority, self.arrival)


def _edf_schedule(
    tasks: Sequence[ChunkTask],
    estimate: LatencyEstimator,
    info: Mapping[int, QueryInfo],
    share: bool,
    gc_busy: Mapping[int, float] | None = None,
) -> list[ChunkTask]:
    """Earliest-deadline-first within weighted-fair tenant shares.

    Per chip: share-group buckets are formed exactly as in
    ``balanced`` (a shared sense's subscribers drain together), each
    bucket inheriting the most urgent deadline and highest priority
    among its subscribers and the tenant of its heaviest-weight
    subscriber.  Emission interleaves two concerns:

    * buckets holding a real deadline are served in (deadline,
      -priority, arrival) order -- EDF, which on a serial resource
      meets every deadline any order could meet;
    * deadline-free buckets are served start-time-fair across
      tenants: each tenant accrues virtual time ``cost / weight`` per
      emitted bucket and the smallest virtual finish time goes next,
      so a scan tenant's long queue no longer starves other tenants'
      work -- it gets its weighted share and no more.

    A deadline bucket always goes before a deadline-free one (missing
    a stated SLO to polish fairness of best-effort traffic would be
    backwards).  Across chips, the chip whose head bucket is most
    urgent emits next (ties: longest remaining estimated work, as in
    ``balanced``), ordering the shared downstream link the same way.
    """
    default = QueryInfo()
    # 1. Bucket per chip by plan identity (shared with ``balanced``),
    #    then lift each share group into its EDF attributes.
    # 2. Per chip: EDF order for deadline buckets, weighted-fair
    #    virtual time across tenants for the rest.
    chip_queues: dict[int, list[_Bucket]] = {}
    chip_work: dict[int, float] = {}
    for chip, groups in _chip_share_groups(tasks, estimate, share).items():
        entries: list[_Bucket] = []
        for group, cost, first_seen in groups:
            metas = [info.get(task.query, default) for task in group]
            deadline = min(
                (
                    m.deadline_us
                    for m in metas
                    if m.deadline_us is not None
                ),
                default=_NO_DEADLINE,
            )
            priority = max(m.priority for m in metas)
            owner = max(metas, key=lambda m: m.weight)
            entries.append(
                _Bucket(
                    deadline=deadline,
                    neg_priority=-priority,
                    arrival=first_seen,
                    cost=cost,
                    client=owner.client,
                    weight=owner.weight,
                    group=group,
                )
            )
        entries.sort(key=_Bucket.urgency_key)
        urgent = [e for e in entries if e.deadline != _NO_DEADLINE]
        relaxed = [e for e in entries if e.deadline == _NO_DEADLINE]
        # Weighted-fair interleave of the deadline-free buckets: each
        # tenant's queue keeps its (priority, arrival) order; the
        # tenant with the smallest virtual finish time emits next.
        tenant_queues: dict[str, list[_Bucket]] = {}
        for entry in relaxed:
            tenant_queues.setdefault(entry.client, []).append(entry)
        virtual: dict[str, float] = {t: 0.0 for t in tenant_queues}
        fair: list[_Bucket] = []
        while tenant_queues:
            tenant = min(
                tenant_queues,
                key=lambda t: (
                    virtual[t]
                    + tenant_queues[t][0].cost / tenant_queues[t][0].weight,
                    t,
                ),
            )
            entry = tenant_queues[tenant].pop(0)
            virtual[tenant] += entry.cost / entry.weight
            fair.append(entry)
            if not tenant_queues[tenant]:
                del tenant_queues[tenant]
        queue = urgent + fair
        chip_queues[chip] = queue
        chip_work[chip] = sum(e.cost for e in queue)
    if gc_busy:
        for chip, extra in gc_busy.items():
            if chip in chip_work:
                chip_work[chip] += extra

    # 3. Interleave chips by most urgent head, then most remaining
    #    work (the shared link serves deadline traffic first).
    ordered: list[ChunkTask] = []
    while chip_queues:
        chip = min(
            chip_queues,
            key=lambda c: (
                chip_queues[c][0].deadline,
                chip_queues[c][0].neg_priority,
                -chip_work[c],
                c,
            ),
        )
        bucket = chip_queues[chip].pop(0)
        chip_work[chip] -= bucket.cost
        ordered.extend(bucket.group)
        if not chip_queues[chip]:
            del chip_queues[chip]
    return ordered


def simulate_stages_fcfs(jobs: list[StageJob]) -> StageReport:
    """The FCFS sweep of ``simulate_stages`` before the die queue and
    the background class: every job's stage 0 pushed into one global
    ``(ready, seq)`` heap, 3N pops."""
    if not jobs:
        # An empty stream (e.g. an admission window that admitted no
        # queries) simulates to an idle, zero-makespan report.
        return StageReport(makespan=0.0, completion_times=[])

    # One global heap of pending stage executions in ready order.
    # Executing in global ready order is exact for feed-forward FCFS
    # pipelines: per resource, jobs are served in ready order (FCFS),
    # and a downstream push always carries ready >= the ready of the
    # event that produced it, so the sweep never goes back in time.
    #
    # Resource state is three plain dicts: when each resource is next
    # available, its busy seconds and the stage executions it served.
    heap: list[tuple[float, int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0
    for idx, job in enumerate(jobs):
        push(heap, (job.ready_at, seq, idx, 0))
        seq += 1

    available: dict[str, float] = {}
    busy: dict[str, float] = {}
    served: dict[str, int] = {}
    completion = [0.0] * len(jobs)
    fault_overhead = 0.0
    while heap:
        ready_at, _, idx, stage = pop(heap)
        job = jobs[idx]
        name = job.resources[stage]
        duration = job.durations[stage]
        if duration < 0:
            raise ValueError("duration must be >= 0")
        if stage == 0 and job.fault_delay_s:
            # Recovery time occupies the die ahead of the useful work;
            # guarded so fault-free schedules stay float-identical.
            duration += job.fault_delay_s
            fault_overhead += job.fault_delay_s
        start = available.get(name, 0.0)
        if ready_at > start:
            start = ready_at
        end = start + duration
        available[name] = end
        busy[name] = busy.get(name, 0.0) + duration
        served[name] = served.get(name, 0) + 1
        if stage + 1 < len(job.durations):
            push(heap, (end, seq, idx, stage + 1))
            seq += 1
        else:
            completion[idx] = end

    return StageReport(
        makespan=max(completion),
        completion_times=completion,
        resource_busy=busy,
        resource_jobs=served,
        fault_overhead=fault_overhead,
    )


def job_of_row(row: tuple) -> StageJob:
    """The ``StageJob`` a sweep row stands for -- the inverse of
    ``StageJob.row`` -- rebuilt, so checked again.  The row's fields
    are read by the names of ``sweep_row``'s parameters, the one place
    that orders them."""
    fields = dict(zip(inspect.signature(sweep_row).parameters, row))
    klass, deadline, negated_priority = fields.pop("urgency")
    return StageJob(
        **fields,
        priority=-negated_priority,
        deadline=deadline if klass == 0 else None,
    )


class BufferedSweep:
    """A stand-in for ``repro.ssd.events.StageSweep`` that streams
    nothing: ``feed`` buffers the jobs (a fed sweep row as the
    ``StageJob`` it stands for, :func:`job_of_row`) and their tags and
    finalises no completion; ``close`` replays every buffered job at once through
    the one-shot ``simulate`` (the production ``simulate_stages`` by
    default, or :func:`simulate_stages_fcfs`) and returns every
    completion with that replay's report.

    The service builds its sweep from the ``StageSweep`` global of
    ``repro.service.service``; put a factory of this class there
    (``monkeypatch.setattr(service_module, "StageSweep", BufferedSweep)``)
    and a run is replayed the way it was before the sweep streamed.
    ``jobs`` and ``report`` stay readable after the close.
    """

    def __init__(self, simulate=simulate_stages) -> None:
        self.simulate = simulate
        self.jobs: list[StageJob] = []
        self.tags: list = []
        self.report: StageReport | None = None

    def feed(self, jobs, tags=None) -> list[tuple]:
        if tags is None:
            tags = range(len(self.jobs), len(self.jobs) + len(jobs))
        self.jobs.extend(
            job if isinstance(job, StageJob) else job_of_row(job)
            for job in jobs
        )
        self.tags.extend(tags)
        return []

    def close(self) -> tuple[list[tuple], StageReport]:
        self.report = self.simulate(self.jobs)
        done = list(zip(self.tags, self.report.completion_times))
        return done, self.report
