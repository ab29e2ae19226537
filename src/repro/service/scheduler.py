"""Multi-query chip scheduler for one admission window.

Chunk placement is fixed by the FTL's striping (chunk ``c`` lives on
chip ``c mod n_chips``), so the scheduler cannot move work between
chips -- what it controls is the *order* in which each chip's queue
drains and how the chips' emissions interleave on the shared
downstream resources (channel buses, external link).  Within one
ready time the event simulation breaks ties in submission order, so
the emitted task order *is* the schedule.  A window arrives as
:class:`~repro.ssd.query_engine.TaskColumns` and the schedule is a
list of its task positions.

The ``balanced`` policy reorders across queries to minimize window
makespan rather than any single query's latency:

1. **Share groups first** -- tasks with one ``(chip, plan)`` key
   (:class:`~repro.ssd.query_engine.PlanKeys`: equal plans on one
   chip) are bucketed together so a shared sense's subscribers
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
query of every workload, so it is O(tasks) to bucket (one int key
hashed per task position, no record per task) plus O(share groups x
log chips) to order, each bucket's estimate read from the caller's
per-key memo when it has one.  Both the
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
from functools import partial
from math import isfinite
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.core.planner import Plan
from repro.ssd.query_engine import TaskColumns

#: Latency estimator: (chip, plan) -> estimated sense microseconds.
#: The schedule is chosen from the physically derived tMWS model
#: (``MwsExecutor.estimate_latency_us``) without executing anything.
LatencyEstimator = Callable[[int, Plan], float]

#: Per chip, ``plan -> estimated sense microseconds``: the service's.
ChipEstimators = Sequence[Callable[[Plan], float]]

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
        if not 0 < self.weight < _NO_DEADLINE:
            # NaN fails the comparison too: a NaN weight would make
            # every weighted-fair heap key NaN, the drain order
            # arbitrary.
            raise ValueError(
                f"weight must be finite and positive, not {self.weight!r}"
            )
        # So would a NaN deadline or priority the edf keys (and an
        # infinite deadline reads as none): one sum checks both.
        priority, deadline = self.priority, self.deadline_us
        total = priority + (deadline or 0.0)
        if priority.__class__ is bool or not isfinite(total):
            if priority.__class__ is bool or not isfinite(priority):
                raise ValueError(
                    f"priority must be a finite number, not {priority!r}"
                )
            if not isfinite(deadline):
                raise ValueError(
                    f"deadline_us must be finite, not {deadline!r}"
                )


def job_directives(info: QueryInfo) -> tuple[float, float | None]:
    """Replay directives ``(priority, deadline_s)`` for one query's
    pipeline jobs.

    This is where the scheduler's intent reaches the event simulator
    (:func:`repro.ssd.events.simulate_stages`): a query that stated a
    deadline becomes an *urgent* job stream -- its deadline (converted
    to the simulator's seconds) ranks it ahead of best-effort work,
    EDF-style against other deadline traffic, among the jobs waiting
    for a die.  Priority carries over as the tie-breaker in both
    classes.  The service emits these under the ``edf`` policy only --
    the policy that schedules by them.
    """
    if info.deadline_us is not None:
        return (float(info.priority), info.deadline_us * 1e-6)
    return (float(info.priority), None)


def schedule_window(
    tasks: TaskColumns,
    estimate: LatencyEstimator | ChipEstimators,
    *,
    policy: str = "balanced",
    share: bool = True,
    info: Mapping[int, QueryInfo] | None = None,
    degraded: Iterable[int] = (),
    offline: Iterable[int] = (),
    degraded_slowdown: float = 3.0,
    gc_busy: Mapping[int, float] | None = None,
    reconstruct: bool = False,
    costs: dict[int, float] | None = None,
) -> list[int]:
    """Order one window's chunk tasks into the global emission order:
    the list of their positions, each once.

    ``estimate`` (:data:`LatencyEstimator` or :data:`ChipEstimators`)
    prices a sense.  ``share`` mirrors the engine's sense-sharing
    switch: with it on, duplicate tasks of a share group cost nothing,
    which changes the LPT weights and the cross-chip balance.
    ``costs`` memoizes ``estimate``'s answer per task key across calls
    that pass it (the service: one per run, as its estimators).
    ``info`` carries the per-query deadlines/priorities/weights the
    ``edf`` policy orders by; the other policies ignore it.

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
    chips = tasks.chip
    live: Sequence[int] = range(len(chips))
    parked: list[int] = []
    if offline_chips:
        parked = [p for p in live if chips[p] in offline_chips]
        live = [p for p in live if chips[p] not in offline_chips]
    if policy == "fifo":
        return [*live, *parked]
    if callable(estimate):
        n_chips = max(chips, default=-1) + 1
        estimate = [partial(estimate, chip) for chip in range(n_chips)]
    slowdown = dict.fromkeys(degraded_chips, degraded_slowdown)
    if policy == "edf":
        info = info or {}
        default = QueryInfo()
        metas = {
            query: _meta(info.get(query, default))
            for query in dict.fromkeys(tasks.query)
        }
    else:
        metas = dict.fromkeys(tasks.query, (_NO_DEADLINE, 0, 1.0, ""))
    chip_queues = _share_groups(
        tasks, live, estimate, share, metas,
        {} if costs is None else costs, slowdown,
    )
    if policy == "edf":
        _edf_queues(chip_queues)
    else:
        # ``balanced``: longest sense first (stable: ties keep order).
        for queue in chip_queues.values():
            queue.sort(key=lambda bucket: -bucket.cost)
    return _interleave(chip_queues, gc_busy) + parked


def _meta(info: QueryInfo) -> tuple[float, int, float, str]:
    """What a share group folds from one subscribing query."""
    deadline = _NO_DEADLINE if info.deadline_us is None else info.deadline_us
    return (deadline, info.priority, info.weight, info.client)


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
    #: The bucket's task positions, in window order.
    group: list[int]
    client: str = ""
    weight: float = 1.0


#: A :class:`_Bucket` from one tuple, without a Python-level call.
_bucket = partial(tuple.__new__, _Bucket)


def _share_groups(
    tasks: TaskColumns,
    live: Sequence[int],
    estimate: ChipEstimators,
    share: bool,
    metas: Mapping[int, tuple[float, int, float, str]],
    costs: dict[int, float],
    slowdown: Mapping[int, float],
) -> dict[int, list[_Bucket]]:
    """Share-group buckets of the ``live`` positions, per chip in
    first-seen order, in one pass: each subscriber's ``metas[query]``
    folds in as it joins -- earliest deadline, highest priority, the
    (first) heaviest weight's tenant.  One estimate a bucket, read
    through ``costs`` and scaled by its chip's ``slowdown``: a sense
    when sharing, one per task otherwise."""
    keys, queries = tasks.key, tasks.query
    folds: dict[int, list] = {}
    join = folds.setdefault  # one int hash a position
    for position in live:
        # A bucket is ``[(deadline, priority, weight, client), *group]``.
        meta = metas[queries[position]]
        new = [meta, position]
        fold = join(keys[position], new)
        if fold is new:
            continue
        fold.append(position)
        old = fold[0]
        if meta is not old and (
            meta[0] < old[0] or meta[1] > old[1] or meta[2] > old[2]
        ):
            heavier = meta if meta[2] > old[2] else old
            fold[0] = (
                meta[0] if meta[0] < old[0] else old[0],
                meta[1] if meta[1] > old[1] else old[1],
                heavier[2],
                heavier[3],
            )
    chips, plans = tasks.chip, tasks.plan
    queues: dict[int, list[_Bucket]] = {}
    for arrival, (key, group) in enumerate(folds.items()):
        deadline, priority, weight, client = group.pop(0)
        chip = chips[group[0]]
        unit = costs.get(key)
        if unit is None:
            unit = costs[key] = estimate[chip](plans[group[0]])
        if chip in slowdown:
            unit *= slowdown[chip]
        cost = unit if share else unit * len(group)
        queue = queues.get(chip)
        if queue is None:
            queue = queues[chip] = []
        bucket = (deadline, -priority, arrival, cost, group, client, weight)
        queue.append(_bucket(bucket))
    return queues


def _edf_queues(queues: dict[int, list[_Bucket]]) -> None:
    """``edf``, in place: earliest-deadline-first within weighted-fair
    tenant shares, per chip, over the buckets of :func:`_share_groups`
    (their subscribers' most urgent deadline and priority, heaviest
    tenant).  Per chip, emission interleaves two concerns:

    * buckets holding a real deadline are served in (deadline,
      -priority, arrival) order -- EDF, which on a serial resource
      meets every deadline any order could meet;
    * deadline-free buckets are served start-time-fair across tenants
      (:func:`_fair_drain`).

    A deadline bucket always goes before a deadline-free one (missing
    a stated SLO to polish fairness of best-effort traffic would be
    backwards).
    """
    for chip, queue in queues.items():
        urgent = [b for b in queue if b.deadline != _NO_DEADLINE]
        relaxed = [b for b in queue if b.deadline == _NO_DEADLINE]
        urgent.sort()
        relaxed.sort()
        queues[chip] = urgent + _fair_drain(relaxed)


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
) -> list[int]:
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
    heap = []
    for chip, queue in chip_queues.items():
        upcoming = iter(queue)
        head = next(upcoming)
        heap.append(
            (
                head.deadline, head.neg_priority, -chip_work[chip], chip,
                head, upcoming,
            )
        )
    heapq.heapify(heap)
    ordered: list[int] = []
    while heap:
        _, _, _, chip, bucket, upcoming = heap[0]
        ordered += bucket.group
        head = next(upcoming, None)
        if head is None:
            heapq.heappop(heap)
        else:
            work = chip_work[chip] = chip_work[chip] - bucket.cost
            heapq.heapreplace(
                heap,
                (
                    head.deadline, head.neg_priority, -work, chip,
                    head, upcoming,
                ),
            )
    return ordered
