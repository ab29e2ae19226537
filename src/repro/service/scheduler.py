"""Multi-query chip scheduler for one admission window.

Chunk placement is fixed by the FTL's striping (chunk ``c`` lives on
chip ``c mod n_chips``), so the scheduler cannot move work between
chips -- what it controls is the *order* in which each chip's queue
drains and how the chips' emissions interleave on the shared
downstream resources (channel buses, external link).  Within one
ready time the event simulation breaks ties in submission order, so
the emitted task order *is* the schedule.

The ``balanced`` policy reorders across queries to minimize window
makespan rather than any single query's latency:

1. **Share groups first** -- tasks with identical ``(chip, plan)``
   identity are bucketed together so a shared sense's subscribers
   drain immediately behind their primary (their results leave the
   chip as soon as the one real sense finishes, instead of waiting in
   program order).
2. **Longest sense first per chip** -- each chip's unique buckets are
   ordered by descending estimated sense latency (LPT): a long sense
   scheduled last would stick out of the window's tail, while
   scheduled first it overlaps every shorter sense and the transfers
   behind them.
3. **Longest-remaining-work interleave across chips** -- buckets are
   emitted by repeatedly picking the chip with the most estimated
   work left, keeping the per-chip queue depths balanced and the
   shared external link fed from the start of the window.

The ``edf`` policy adds service-level objectives on top of the same
share-group bucketing: queries may carry a deadline and a priority
(:class:`QueryInfo`), and tenants may carry weights.  Per chip,
share-group buckets whose subscribers hold a deadline are emitted
earliest-deadline-first (classic EDF -- optimal for meeting feasible
deadline sets on one serial resource), while the deadline-free bulk
drains in weighted-fair order across tenants (start-time-fair virtual
finish times), so a tenant's long scans can no longer monopolize a
chip just by arriving first: point queries with deadlines jump the
queue, and other tenants' deadline-free work interleaves
proportionally to weight instead of FIFO.  Across chips, emission
follows the most urgent head bucket (then longest remaining work), so
the shared external link serves deadline traffic first too.

``fifo`` preserves submission order exactly -- the naive baseline the
benchmarks compare against.

**Cost.**  This runs once per admission window on the host, for every
query of every workload, so it is O(tasks) to bucket (one ``Plan``
hash per task) plus O(share groups x log chips) to order.  Both the
per-chip fair drain and the cross-chip interleave are "repeatedly pick
the minimum key, then change only the picked one's key" loops, so they
run off :mod:`heapq` heads that hold *the same key tuples* a scan over
all tenants / chips would compare.  Keys are unique (they end in the
tenant name / chip id), so the heap's head is the scan's minimum, the
emission order is the scan's, and the floats behind the keys (virtual
finish times, remaining chip work) are accumulated in the same order
on the same operands.  ``tests/service/test_scheduler_equivalence.py``
holds the order to the scan-based reference in
``tests/reference_control_path.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.core.planner import Plan
from repro.ssd.query_engine import ChunkTask

#: Latency estimator: (task) -> estimated sense microseconds.  The
#: service wires this to ``MwsExecutor.estimate_latency_us`` so the
#: schedule is chosen from the physically derived tMWS model without
#: executing anything.
LatencyEstimator = Callable[[ChunkTask], float]

POLICIES = ("fifo", "balanced", "edf")

_NO_DEADLINE = float("inf")


@dataclass(frozen=True)
class QueryInfo:
    """Scheduler-relevant attributes of one query in a window.

    The ``edf`` policy consumes a ``query id -> QueryInfo`` mapping:
    ``deadline_us`` is the absolute virtual-clock deadline (``None``
    for best-effort traffic), ``priority`` breaks ties among equal
    deadlines (higher first), and ``weight`` is the query's tenant
    share for the weighted-fair drain of deadline-free work.
    """

    client: str = "client"
    priority: int = 0
    deadline_us: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def job_directives(
    info: QueryInfo,
) -> tuple[float, float | None, bool]:
    """Replay directives ``(priority, deadline_s, preemptible)`` for
    one query's pipeline jobs.

    This is where the scheduler's intent reaches the event simulator
    (:func:`repro.ssd.events.simulate_stages`): a query that stated a
    deadline becomes an *urgent* job stream -- its deadline (converted
    to the simulator's seconds) ranks it ahead of best-effort work,
    EDF-style against other deadline traffic, among the jobs waiting
    for a die -- and a *non-preemptible* one: once its sense occupies
    a die nothing may suspend it (suspending the latency-critical work
    to admit bulk would be backwards).  Deadline-free traffic stays
    *preemptible bulk*: under the arbitrated simulation (an
    :class:`~repro.ssd.events.ArbitrationConfig`) an arriving urgent
    job may suspend its in-flight sense, which once resumed runs as
    long as it was parked before it yields again.  Priority carries
    over as the tie-breaker in both classes.  The service emits these
    under the ``edf`` policy only -- the policy that schedules by
    them.
    """
    if info.deadline_us is not None:
        return (float(info.priority), info.deadline_us * 1e-6, False)
    return (float(info.priority), None, True)


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
    groups = _share_groups(tasks, estimate, share)
    if policy == "edf":
        chip_queues = _edf_queues(groups, info or {})
    else:
        chip_queues = _lpt_queues(groups)
    return _interleave(chip_queues, gc_busy) + parked


class _Bucket(NamedTuple):
    """One share group as the schedule sees it.

    The first three fields are its urgency and sort as a plain tuple:
    earliest subscriber deadline (``inf`` for none), negated highest
    subscriber priority, and ``arrival`` -- the bucket's creation
    rank, which orders buckets exactly as their first positions in
    the submitted task list do and is unique, so comparisons never
    reach the fields behind it.  ``client`` / ``weight`` name the
    tenant the bucket is billed to under ``edf`` (its heaviest-weight
    subscriber); ``balanced`` leaves all but cost and group at the
    deadline-free defaults.
    """

    deadline: float
    neg_priority: int
    arrival: int
    cost: float
    group: list[ChunkTask]
    client: str = ""
    weight: float = 1.0


def _share_groups(
    tasks: Sequence[ChunkTask],
    estimate: LatencyEstimator,
    share: bool,
) -> list[tuple[int, float, list[ChunkTask]]]:
    """Share-group buckets ``(chip, cost, group)`` in first-seen order
    -- the step every non-FIFO policy starts from.  A bucket's cost is
    one sense when sharing (subscribers are free) and one per task
    otherwise.  One pass, one ``Plan`` hash per task."""
    buckets: dict[tuple[int, Plan], list[ChunkTask]] = {}
    for task in tasks:
        buckets.setdefault((task.chip, task.plan), []).append(task)
    groups = []
    for (chip, _), group in buckets.items():
        unit = estimate(group[0])
        groups.append((chip, unit if share else unit * len(group), group))
    return groups


def _lpt_queues(
    groups: list[tuple[int, float, list[ChunkTask]]],
) -> dict[int, list[_Bucket]]:
    """``balanced``: each chip's buckets longest sense first (stable,
    so equal costs keep first-seen order)."""
    queues: dict[int, list[_Bucket]] = {}
    for arrival, (chip, cost, group) in enumerate(groups):
        queues.setdefault(chip, []).append(
            _Bucket(_NO_DEADLINE, 0, arrival, cost, group)
        )
    for queue in queues.values():
        queue.sort(key=lambda bucket: -bucket.cost)
    return queues


def _edf_queues(
    groups: list[tuple[int, float, list[ChunkTask]]],
    info: Mapping[int, QueryInfo],
) -> dict[int, list[_Bucket]]:
    """``edf``: earliest-deadline-first within weighted-fair tenant
    shares, per chip.

    Each bucket inherits the most urgent deadline and highest priority
    among its subscribers and the tenant of its heaviest-weight
    subscriber (the first such, in group order).  Per chip, emission
    interleaves two concerns:

    * buckets holding a real deadline are served in (deadline,
      -priority, arrival) order -- EDF, which on a serial resource
      meets every deadline any order could meet;
    * deadline-free buckets are served start-time-fair across tenants
      (:func:`_fair_drain`).

    A deadline bucket always goes before a deadline-free one (missing
    a stated SLO to polish fairness of best-effort traffic would be
    backwards).
    """
    default = QueryInfo()
    #: query -> (deadline or inf, priority, weight, client), resolved
    #: once per window however many chunk tasks the query has.
    resolved: dict[int, tuple[float, int, float, str]] = {}
    per_chip: dict[int, tuple[list[_Bucket], list[_Bucket]]] = {}
    for arrival, (chip, cost, group) in enumerate(groups):
        # Below every real priority / weight (weights are positive),
        # so the group's first subscriber always replaces them.
        deadline, priority = _NO_DEADLINE, -_NO_DEADLINE
        weight, client = 0.0, ""
        for task in group:
            meta = resolved.get(task.query)
            if meta is None:
                query = info.get(task.query, default)
                meta = resolved[task.query] = (
                    _NO_DEADLINE
                    if query.deadline_us is None
                    else query.deadline_us,
                    query.priority,
                    query.weight,
                    query.client,
                )
            if meta[0] < deadline:
                deadline = meta[0]
            if meta[1] > priority:
                priority = meta[1]
            if meta[2] > weight:
                weight, client = meta[2], meta[3]
        lists = per_chip.get(chip)
        if lists is None:
            lists = per_chip[chip] = ([], [])
        urgent, relaxed = lists
        (relaxed if deadline == _NO_DEADLINE else urgent).append(
            _Bucket(deadline, -priority, arrival, cost, group, client, weight)
        )
    queues: dict[int, list[_Bucket]] = {}
    for chip, (urgent, relaxed) in per_chip.items():
        urgent.sort()
        relaxed.sort()
        queues[chip] = urgent + _fair_drain(relaxed)
    return queues


def _fair_drain(relaxed: list[_Bucket]) -> list[_Bucket]:
    """Weighted-fair interleave of one chip's deadline-free buckets
    (given in (-priority, arrival) order, which each tenant's queue
    keeps): a tenant accrues virtual time ``cost / weight`` per
    emitted bucket and the tenant whose head bucket has the smallest
    virtual finish time ``(virtual + cost / weight, client)`` emits
    next, so a scan tenant's long queue no longer starves other
    tenants' work -- it gets its weighted share and no more.

    Exactness of the heap: it holds one entry per tenant under exactly
    that key, and between two picks only the chosen tenant's key
    changes, so the heap's head is what a ``min`` over all tenants
    would return.  The key's first element *is* the tenant's virtual
    time after the emission (the same ``virtual + cost / weight`` on
    the same operands), so it is carried forward instead of being
    accumulated a second time.
    """
    tenants: dict[str, list[_Bucket]] = {}
    for bucket in relaxed:
        tenants.setdefault(bucket.client, []).append(bucket)
    if len(tenants) < 2:
        return relaxed
    heap = []
    for client, queue in tenants.items():
        upcoming = iter(queue)
        head = next(upcoming)
        heap.append((head.cost / head.weight, client, head, upcoming))
    heapq.heapify(heap)
    fair: list[_Bucket] = []
    while heap:
        virtual, client, bucket, upcoming = heap[0]
        fair.append(bucket)
        head = next(upcoming, None)
        if head is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(
                heap,
                (virtual + head.cost / head.weight, client, head, upcoming),
            )
    return fair


def _interleave(
    chip_queues: dict[int, list[_Bucket]],
    gc_busy: Mapping[int, float] | None,
) -> list[ChunkTask]:
    """Emit the chips' queues in one global order: the chip whose head
    bucket is most urgent goes next, ties broken by longest remaining
    estimated work (``gc_busy`` counted in), then lowest chip id -- so
    the shared downstream link serves deadline traffic first and stays
    fed from the chip with the deepest queue.  Under ``balanced`` every
    bucket carries the same deadline-free urgency and the order is
    longest-remaining-work alone.

    Exactness of the heap: it holds one entry per chip keyed
    ``(head deadline, head -priority, -remaining work, chip)``, the
    chip id makes keys unique, and an emission changes only the
    emitting chip's head and remaining work, so the heap's head is
    what a ``min`` over all chips would return; ``chip_work`` is
    summed and decremented in queue order, as a scan would.
    """
    chip_work = {
        chip: sum([bucket.cost for bucket in queue])
        for chip, queue in chip_queues.items()
    }
    if gc_busy:
        for chip, extra in gc_busy.items():
            if chip in chip_work:
                chip_work[chip] += extra

    def entry(chip: int, head: _Bucket, upcoming) -> tuple:
        return (
            head.deadline,
            head.neg_priority,
            -chip_work[chip],
            chip,
            head,
            upcoming,
        )

    heap = []
    for chip, queue in chip_queues.items():
        upcoming = iter(queue)
        heap.append(entry(chip, next(upcoming), upcoming))
    heapq.heapify(heap)
    ordered: list[ChunkTask] = []
    while heap:
        _, _, _, chip, bucket, upcoming = heap[0]
        ordered += bucket.group
        head = next(upcoming, None)
        if head is None:
            heapq.heappop(heap)
        else:
            chip_work[chip] -= bucket.cost
            heapq.heapreplace(heap, entry(chip, head, upcoming))
    return ordered


def estimated_chip_work_us(
    tasks: Iterable[ChunkTask],
    estimate: LatencyEstimator,
    *,
    share: bool = True,
) -> dict[int, float]:
    """Estimated sense microseconds per chip for one window -- the
    scheduler's own view of the load balance, exposed for metrics and
    tests."""
    seen: set[tuple[int, Plan]] = set()
    work: dict[int, float] = {}
    for task in tasks:
        if share:
            if task.share_key in seen:
                continue
            seen.add(task.share_key)
        work[task.chip] = work.get(task.chip, 0.0) + estimate(task)
    return work
