"""Plan-template query engine: plan once, bind per layout, pipeline.

``SmallSsd.query`` stripes every operand vector identically, so chunk
``c`` of each operand sits at the *same relative layout* on its chip
as chunk 0 does on chip 0 -- and, on an undisturbed SSD, at the same
physical place.  The engine plans once per query shape and binds once
per distinct chunk layout (``docs/architecture.md`` §2):

1. **Template cache** -- per expression *shape* (operands replaced by
   first-appearance slots) and the slots' classes on chunk 0 (each
   one's sub-block rank and inversion flag) the engine plans once,
   against a chunk-0 view of the directory, into a relocatable
   :class:`~repro.core.planner.PlanTemplate` (an LRU of ``cache_size``
   entries): expressions that differ only in operand names share it.
2. **Bind step** -- each chunk is keyed on its operands' placements
   (:class:`_ChunkDirectory` views of its chip's directory); the first
   chunk of a key binds the template through a slot-wise renaming and
   the rest share that :class:`~repro.core.planner.Plan` object.  A
   chunk whose classes differ from chunk 0's, or whose bind fails
   (layout drift, e.g. hand-placed operands), replans alone.
3. **Bound-plan cache** -- the prepared query (plans as per-task
   columns, chip by chip) is LRU-cached per expression against the
   *layout generation* (FTL plus every directory generation), so a
   repeat is one probe until a registration moves it.
4. **Event-simulated makespan** -- every executed chunk becomes a
   pipeline job (die sense -> channel DMA -> external link) of the
   exact timeline simulator: a :class:`~repro.ssd.events.StageJob`
   here, a sweep row in the service.
5. **Shared-sense execution** -- :meth:`QueryEngine.execute_tasks`
   drains a multi-query :class:`TaskColumns` window; plans are values
   down to the MWS command bytes, so per chip a dict keyed on the plan
   runs a sense two queries ask for once and fans its words out.
6. **Window-at-a-time batched execution** -- each chip's unique queue
   runs as one :meth:`~repro.core.mws.MwsExecutor.execute_batch` (a
   queue with no batched equivalent walks its plans one by one);
   chips drain in turn on the caller's thread, their concurrency
   lives in the modelled timeline.  Chips running the same queue form
   a *stripe* that prepares its batch layout once.
7. **Cross-window result caching** -- an opt-in :class:`ResultCache`
   memoizes executed plans' packed words per chip, stamped with its
   layout generation (``docs/architecture.md`` §3): a hit skips the
   sensing engine and builds no record at all.

Query cost is ``O(plan + layouts x bind + chunks x sense)``, the plan
term amortized by the template cache, the bind term by the bound-plan
cache, and the sense term by sharing and result caching.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.core.expressions import (
    Expression,
    evaluate,
    operand_names,
    operand_shape,
)
from repro.core.mws import MwsExecutor
from repro.core.planner import (
    Plan,
    Planner,
    PlanTemplate,
    StoredOperand,
    TemplateBindError,
)
from repro.flash.errors import (
    ChipUnavailableError,
    FlashFault,
    ReconstructionError,
    RetryExhaustedError,
)
from repro.flash.faults import RecoveryPolicy
from repro.flash.packing import pack_bits
from repro.ssd.config import SsdConfig, positive_int, table1_config
from repro.ssd.events import StageJob, simulate_stages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssd.controller import QueryResult, SmallSsd


def _placements(controller, chunk: int, names: list[str]) -> tuple | None:
    """The chunk's placements of ``names`` (``None``: one not stored)."""
    operands = controller.directory.operands
    suffix = f"@{chunk}"
    try:
        return tuple([operands[n + suffix].placement for n in names])
    except KeyError:
        return None


def _slot_classes(layout: tuple | None) -> tuple | None:
    """Per slot, its sub-block's rank among the distinct ones and its
    inversion flag: with the shape, all planning reads of a layout
    (targets and split units go in block order).  ``None`` where
    planning fails: an operand not stored, or two planes."""
    if layout is None:
        return None
    blocks = sorted({p[:3] for p in layout})
    if blocks[0][0] != blocks[-1][0]:
        return None
    rank = {block: i for i, block in enumerate(blocks)}
    return tuple([(rank[p[:3]], p[4]) for p in layout])


class _ChunkDirectory:
    """Directory view exposing one chunk's placements under the base
    vector names.

    ``SmallSsd`` stores chunk ``c`` of vector ``v`` as chip operand
    ``v@c``; planning and binding against this view lets the planner
    and templates speak base names, which is what makes the resulting
    template relocatable across chunks.
    """

    def __init__(self, controller, chunk: int) -> None:
        # The directory's live mapping, not a snapshot: a relocation
        # or unregistration after the view was built is seen by the
        # next lookup.
        self._operands = controller.directory.operands
        self._suffix = f"@{chunk}"

    def lookup(self, name: str) -> StoredOperand:
        # One dict probe per literal (planning looks each one up
        # several times, binding once per chunk layout).
        try:
            return self._operands[name + self._suffix]
        except KeyError:
            raise KeyError(
                f"operand {name + self._suffix!r} is not stored"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name + self._suffix in self._operands


@dataclass(frozen=True)
class EngineStats:
    """Counters exposing how much planning the cache amortized and how
    many sensing operations cross-query sharing avoided."""

    planner_invocations: int
    template_hits: int
    template_misses: int
    bind_fallbacks: int
    cached_templates: int
    #: Chunk tasks served from another task's identical sense (no
    #: flash operation ran for them).
    shared_plans: int = 0
    #: Sensing operations those shared tasks would have cost.
    shared_senses: int = 0
    #: Python-level executor dispatches ``execute_tasks`` issued: one
    #: per chip queue on the batched path, one per unique plan on the
    #: per-sense loop -- the quantity window batching collapses from
    #: O(senses) to O(chips).
    executor_dispatches: int = 0
    #: Chunk results rebuilt from parity after a chip failure (first
    #: occurrences and sharing followers alike), and the survivor
    #: sense operations the first occurrences cost.
    reconstructed_plans: int = 0
    reconstruction_senses: int = 0
    #: Unique plans whose packed sense rows were replayed from the
    #: cross-window :class:`StackCache` (latch replay and charging
    #: still ran; only the sensing re-derivation was skipped).
    stack_reuse_hits: int = 0
    #: Per-profile operand tensors the sensing engine concatenated
    #: fresh during batched windows -- the quantity stack reuse
    #: collapses on repeat windows.
    restacked_tensors: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one query stream pushed through the engine."""

    results: tuple["QueryResult", ...]
    makespan_us: float
    bottleneck: str


class ChunkTask(NamedTuple):
    """One bound per-chunk plan, attributed to a caller-scoped query.

    The identity that matters for cross-query sense sharing is
    ``(chip, plan)``: :class:`~repro.core.planner.Plan` is a frozen
    value object down to the MWS command targets, so two tasks whose
    plans compare equal ask the chip for the *same* sensing operation.

    Windows travel as :class:`TaskColumns`; a task becomes a record
    only as the ``task`` of a :class:`ChunkOutcome`.
    """

    query: int
    chunk: int
    chip: int
    plan: Plan
    #: The source expression, carried for the parity reconstruction
    #: path: when the chip is gone the bound plan is useless (its
    #: addresses point at dead cells), but the expression can be
    #: re-evaluated host-side over parity-reconstructed operand
    #: chunks.  Deliberately not part of the sharing identity --
    #: sharing is a property of the sensing operation, not of who
    #: asked.
    expr: Expression | None = None


class TaskColumns:
    """Chunk tasks as parallel columns, one per :class:`ChunkTask`
    field: how a window travels from admission to its job listing, so
    a cache-served chunk is never a record of its own.  Adopts five
    equal-length lists; no argument starts an empty window."""

    __slots__ = ("query", "chunk", "chip", "plan", "expr")

    def __init__(self, *columns: list) -> None:
        self.query, self.chunk, self.chip, self.plan, self.expr = (
            columns or ([], [], [], [], [])
        )

    def __len__(self) -> int:
        return len(self.query)

    def add(self, query: int, prepared: "PreparedQuery") -> None:
        """Append one prepared query's tasks, attributed to ``query``."""
        n_tasks = len(prepared.plans)
        self.query += repeat(query, n_tasks)
        self.chunk += prepared.chunks
        self.chip += prepared.chips
        self.plan += prepared.plans
        self.expr += repeat(prepared.expr, n_tasks)

    def take(self, order: list[int]) -> "TaskColumns":
        """The tasks at ``order``'s positions, in that order."""
        columns = self.query, self.chunk, self.chip, self.plan, self.expr
        return TaskColumns(*([c[i] for i in order] for c in columns))

    def task(self, position: int) -> ChunkTask:
        """The task at ``position`` as a record."""
        return ChunkTask(
            self.query[position], self.chunk[position], self.chip[position],
            self.plan[position], self.expr[position],
        )


class ChunkOutcome(NamedTuple):
    """What executing (or sharing) one :class:`ChunkTask` produced.

    ``data`` is the chunk's result page as packed ``uint64`` words.
    A ``shared`` outcome spent no flash time: its sense already ran
    for an identical earlier task of the same chip, and
    ``n_senses``/``latency_us``/``energy_nj`` are zero accordingly
    (the window-level counters thus sum to the *actual* hardware
    cost).  A task the cross-window :class:`ResultCache` served has no
    outcome at all: its words are an entry of
    :attr:`WindowResult.cached`.

    The trailing fields belong to the fault-recovery plane and stay at
    their defaults everywhere injection is off: ``retries`` counts
    failed sense attempts that were re-executed, ``recovery_us`` is
    the *simulated* non-chip recovery time (retry backoff plus
    injected stalls -- chip time of failed attempts is already in
    ``latency_us``), ``degraded`` marks a result served by the V_TH
    read-retry path, and ``error`` carries the typed
    :class:`~repro.flash.errors.FlashFault` when every recovery route
    failed (``data`` is ``None`` then).
    """

    task: ChunkTask
    data: np.ndarray | None
    n_senses: int
    latency_us: float
    energy_nj: float
    shared: bool
    retries: int = 0
    recovery_us: float = 0.0
    degraded: bool = False
    error: Exception | None = None
    #: Parity reconstruction plane (``execute_tasks(...,
    #: reconstruct=True)`` on a parity-striped SSD): ``reconstructed``
    #: marks a result rebuilt host-side by XOR of surviving peer
    #: chunks and parity after the chip failed; ``recovery_work`` is
    #: the real sense time that reconstruction charged to *survivor*
    #: chips as ``(chip, busy_us)`` pairs (``latency_us`` stays zero
    #: -- the task's own chip did no work), which the service replays
    #: into the event simulation so degraded reads slow the timeline
    #: exactly where the reads happened.  A pair at 0.0 us is a
    #: marker: the result reuses what an earlier task of the call
    #: read on that chip (a shared follower, or a lost operand page
    #: two plans have in common) and must not leave before that read.
    reconstructed: bool = False
    recovery_work: tuple[tuple[int, float], ...] = ()
    #: Of a ``shared`` outcome: the position, in the call's task
    #: order, of the task whose sense (or reconstruction) produced the
    #: data -- the job this one may not complete before.
    leader: int | None = None


class WindowResult(NamedTuple):
    """Per task position of one :meth:`QueryEngine.execute_tasks` call,
    either the words the result cache served or the outcome."""

    cached: list[np.ndarray | None]
    outcomes: list[ChunkOutcome | None]


def _chip_stamp(ssd: "SmallSsd", chip: int) -> tuple:
    """One chip's layout stamp: FTL generation, directory generation
    and plane content version.  A cached sense of the chip is valid
    while this stays put (``docs/architecture.md`` §3); the
    :class:`StackCache` stamp extends it, so stack-valid implies
    result-valid by construction."""
    return (
        ssd.ftl.generation,
        ssd.controllers[chip].directory.generation,
        ssd.chips[chip].plane_array.content_version(),
    )


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one :class:`ResultCache`."""

    #: Lookups served from a valid entry (no flash work ran).
    hits: int
    #: Lookups that found no entry.
    misses: int
    #: Entries dropped because their chip's layout stamp moved; a
    #: chip's entries drop at the first window after its stamp moves.
    invalidations: int
    #: Sensing operations the hits would have cost on the chips.
    senses_avoided: int
    #: Live entries.
    entries: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Cross-window memo of packed per-chunk sense results, keyed on
    the ``(chip, plan)`` value identity the dedup uses: sense sharing
    reuses a sense within one ``execute_tasks`` call, this cache across
    calls (admission windows, and service runs sharing one SSD).

    **Invalidation contract** (``docs/architecture.md`` §3).  The cache
    keeps one layout stamp per chip (:func:`_chip_stamp`: FTL
    generation, directory generation, plane content version), the one
    every entry of that chip was sensed under.  :meth:`prune_stale`,
    at the top of every ``execute_tasks``, drops every entry of a chip
    whose stamp moved, so a stale page is freed before any lookup
    could see it and a lookup compares no stamp (nothing programs
    mid-window).  Conservative by design: serving one stale word is
    strictly worse than re-sensing a window, and any writer that
    moves cells must bump one of the counters.

    The cache is **error-free only**: error-injecting chips sense
    through the stochastic V_TH plane, where memoizing a draw would
    change the error statistics.
    """

    def __init__(self, ssd: "SmallSsd", *, capacity: int = 4096) -> None:
        self.ssd = ssd
        self.capacity = positive_int("capacity", capacity)
        #: (chip, plan) -> (packed words, n_senses).
        self._entries: OrderedDict[
            tuple[int, Plan], tuple[np.ndarray, int]
        ] = OrderedDict()
        #: chip -> the layout stamp its entries were sensed under.
        self._stamps: dict[int, tuple] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._senses_avoided = 0

    def get(self, chip: int, plan: Plan) -> np.ndarray | None:
        """The plan's memoized packed result words, or ``None``."""
        words = [None]
        self.serve(chip, (plan,), (0,), words)
        return words[0]

    def serve(self, chip: int, plans, positions, cached: list) -> list[int]:
        """:meth:`get` of ``plans[p]`` for each position ``p`` in turn:
        a hit's words go into ``cached[p]``; returns the positions that
        missed.  The counters are added once."""
        entries = self._entries
        lookup, touch = entries.get, entries.move_to_end
        pending: list[int] = []
        avoided = 0
        for position in positions:
            key = (chip, plans[position])
            entry = lookup(key)
            if entry is None:
                pending.append(position)
            else:
                touch(key)
                cached[position] = entry[0]
                avoided += entry[1]
        self._misses += len(pending)
        self._hits += len(positions) - len(pending)
        self._senses_avoided += avoided
        return pending

    def put(
        self, chip: int, plan: Plan, words: np.ndarray, n_senses: int
    ) -> None:
        """Memoize one executed plan's packed result words.

        The words are frozen (``writeable=False``): the same array
        object fans out to every future hit, and an in-place mutation
        by any subscriber would poison the cache in a way no layout
        stamp could catch -- better to fail the mutator loudly.
        """
        words.setflags(write=False)
        if chip not in self._stamps:
            # First entry of a chip no prune has stamped yet.
            self._stamps[chip] = _chip_stamp(self.ssd, chip)
        key = (chip, plan)
        self._entries[key] = (words, n_senses)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def prune_stale(self) -> int:
        """Re-read every chip's layout stamp and drop all entries of
        each chip whose stamp moved since the last prune; returns how
        many were dropped.  Each dropped entry is an invalidation."""
        ssd = self.ssd
        stamps = self._stamps
        moved = set()
        for chip in range(len(ssd.chips)):
            stamp = _chip_stamp(ssd, chip)
            if stamps.setdefault(chip, stamp) != stamp:
                moved.add(chip)
                stamps[chip] = stamp
        if not moved:
            return 0
        dead = [key for key in self._entries if key[0] in moved]
        for key in dead:
            del self._entries[key]
        self._invalidations += len(dead)
        return len(dead)

    def __contains__(self, key: tuple[int, Plan]) -> bool:
        """A peek at ``(chip, plan)``: no counter or recency moves."""
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self._stamps.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            senses_avoided=self._senses_avoided,
            entries=len(self._entries),
        )


class StackCache:
    """Cross-window reuse of per-plan packed sense rows.

    Keyed per ``(chip, plan)`` like the :class:`ResultCache`, but a hit
    is charged in full: it lets
    :meth:`~repro.core.mws.MwsExecutor.execute_batch_reuse` skip only
    the restacking of the plan's sense rows, while the latch replay,
    cost charges and read-disturb accounting still run -- bit-, float-
    and counter-identical to a fresh batched drain.  It serves the
    error-free batched drains with no :class:`ResultCache` engaged: its
    per-chip stamp is the result cache's plus the fault-injector
    identity (``docs/architecture.md`` §3), so behind an engaged
    result cache it could only ever miss.  A chip's memo drops the
    moment its stamp moves, and is cleared when full (``capacity``
    plans).
    """

    def __init__(self, ssd: "SmallSsd", *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ssd = ssd
        self.capacity = capacity
        #: chip -> (layout/content stamp, plan -> (rows, reads)).
        self._chips: dict[int, tuple[tuple, dict]] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def _stamp(self, chip: int) -> tuple:
        return (
            *_chip_stamp(self.ssd, chip),
            self.ssd.chips[chip].fault_injector,
        )

    def execute(
        self, executor, chip: int, plans: list[Plan]
    ) -> tuple[list, int] | None:
        """Run one chip window through
        :meth:`~repro.core.mws.MwsExecutor.execute_batch_reuse`
        against this cache's (stamp-validated) entries.  Returns
        ``(results, reused_plan_count)`` or ``None`` when the window
        has no batched equivalent."""
        stamp = self._stamp(chip)
        entry = self._chips.get(chip)
        if entry is not None and entry[0] == stamp:
            plan_rows = entry[1]
        else:
            if entry is not None:
                self._invalidations += 1
            plan_rows = {}
            self._chips[chip] = (stamp, plan_rows)

        def store(plan, rows, reads):
            if len(plan_rows) >= self.capacity:
                plan_rows.clear()
            plan_rows[plan] = (rows, reads)

        outcome = executor.execute_batch_reuse(plans, plan_rows, store)
        if outcome is None:
            return None
        results, reused = outcome
        self._hits += reused
        self._misses += len(plans) - reused
        return results, reused

    def entries(self, chip: int) -> int:
        """Live entry count for one chip (test/introspection hook)."""
        entry = self._chips.get(chip)
        return 0 if entry is None else len(entry[1])

    def clear(self) -> None:
        self._chips.clear()

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            senses_avoided=0,
            entries=sum(len(entry[1]) for entry in self._chips.values()),
        )


#: The attempt schedule of a plan nothing can fault: one clean attempt,
#: no recovery time -- what :meth:`FaultInjector.attempt_draws
#: <repro.flash.faults.FaultInjector.attempt_draws>` yields when every
#: rate is zero, without consulting an injector.
_ONE_CLEAN_ATTEMPT = ((False, 0.0),)
#: The recovery fields of a record of one clean attempt.
_CLEAN = (0, 0.0, False, None)


class _SenseRecord(NamedTuple):
    """What the sense stage of the drain produced for one unique plan,
    whatever route produced it: the plan's result page (``None`` when
    it failed), its chip cost as counter deltas across every attempt,
    and the recovery-plane fields of :class:`ChunkOutcome`."""

    data: np.ndarray | None
    n_senses: int
    latency_us: float
    energy_nj: float
    retries: int = 0
    recovery_us: float = 0.0
    degraded: bool = False
    error: Exception | None = None


def _records(results) -> list[_SenseRecord]:
    """The records of plans that each ran one clean attempt."""
    record = _SenseRecord._make  # one tuple per plan: queue hot loop
    return [
        record((r.words, r.n_senses, r.latency_us, r.energy_nj) + _CLEAN)
        for r in results
    ]


class _Window(NamedTuple):
    """One :meth:`QueryEngine.execute_tasks` call as the stages of its
    chip drains see it: the tasks, the two result columns they fill,
    and the call's parameters resolved once."""

    tasks: TaskColumns
    cached: list[np.ndarray | None]
    outcomes: list[ChunkOutcome | None]
    #: The per-plan cache engaged for this call (at most one of two).
    cache: ResultCache | None
    stacks: StackCache | None
    share: bool
    #: The caller's recovery policy (the default one if none), and
    #: whether its retry half is in force (an active injector).
    policy: RecoveryPolicy
    retry: bool
    degraded: frozenset[int]
    offline: frozenset[int]
    #: The chips in drain order; whether stripes may read chips ahead
    #: (error-free, no injector, and no put of the window can evict,
    #: so a peek is what a chip's own lookups find); what they read.
    chips: list[tuple[int, list[int]]]
    stripes: bool
    ahead: dict[int, "_Ahead | None"]


class _Ahead(NamedTuple):
    """A chip's cache misses and their dedup (a stripe leader may read
    them ahead); once a stripe sensed it, ``(records, executor
    dispatches and restacked tensors before)``."""

    pending: list[int]
    unique: list[int]
    followers: list[tuple[int, int]]
    sensed: tuple | None = None


@dataclass(frozen=True)
class PreparedQuery:
    """A query planned and bound, ready for (shared) execution: the
    bound plans as per-task columns, chip by chip, each chip's in chunk
    order (chunks placed alike share one plan object).  ``planned`` is
    threaded from the template/bind steps, not inferred from planner
    counters, so a window preparing many queries back to back
    attributes cache hits to the right query."""

    expr: Expression
    n_bits: int
    n_chunks: int
    planned: bool
    chunks: tuple[int, ...]
    chips: tuple[int, ...]
    plans: tuple[Plan, ...]

    @property
    def template_hit(self) -> bool:
        return not self.planned

    @cached_property
    def chunk_senses(self) -> tuple[int, ...]:
        """Senses of each chunk's bound plan, in chunk order."""
        senses = [0] * self.n_chunks
        for chunk, plan in zip(self.chunks, self.plans):
            senses[chunk] = plan.n_senses
        return tuple(senses)


class QueryEngine:
    """Executes query streams against a :class:`SmallSsd` with
    plan-once/bind-per-chunk dispatch (see module docstring)."""

    def __init__(
        self,
        ssd: "SmallSsd",
        *,
        cache_size: int = 64,
        config: SsdConfig | None = None,
    ) -> None:
        self.ssd = ssd
        self.cache_size = positive_int("cache_size", cache_size)
        #: Timing/bandwidth parameters for the pipelined makespan; the
        #: functional chips are tiny, so the event simulation scales
        #: their measured sense times with configured bus bandwidths.
        self.config = config or table1_config()
        self._templates: OrderedDict[object, PlanTemplate] = OrderedDict()
        #: expression -> (layout generation, template key, the
        #: prepared query a repeat gets).  Operand addresses are
        #: immutable once registered, so bound plans stay valid until
        #: the layout generation moves -- any FTL vector *or* per-chip
        #: directory operand being registered/unregistered (the latter
        #: catches controller-level hand-placement drift); then they
        #: re-bind.  The operands' placements and chunk count are
        #: functions of the generation, so the expression keys alone.
        self._bound: OrderedDict[
            Expression, tuple[tuple, tuple, PreparedQuery]
        ] = OrderedDict()
        self._planner_invocations = 0
        self._template_hits = 0
        self._template_misses = 0
        self._bind_fallbacks = 0
        self._shared_plans = 0
        self._shared_senses = 0
        self._executor_dispatches = 0
        self._reconstructed_plans = 0
        self._reconstruction_senses = 0
        #: Cross-window result cache; opt-in via
        #: :meth:`enable_result_cache` and consulted only by
        #: ``execute_tasks(..., use_cache=True)`` -- the synchronous
        #: ``query``/``query_batch`` paths never use it, so they stay
        #: the always-fresh oracle the property suites compare against.
        self.result_cache: ResultCache | None = None
        #: Cross-window stack cache (always attached; ``stack_reuse``
        #: gates whether a batched drain with no result cache engaged
        #: consults it).  Reuse is exact -- it skips only the
        #: re-derivation of deterministic packed sense rows -- so it
        #: defaults on; ``stack_reuse = False`` forces fresh stacking
        #: (the bench baseline and the property-suite oracle).
        self.stack_cache = StackCache(ssd)
        self.stack_reuse = True
        self._stack_reuse_hits = 0
        self._restacked_tensors = 0
        #: chip -> (DMA s, link s, resource names): see stage_constants.
        self._stage_cache: dict[int, tuple[float, float, tuple]] = {}

    # ------------------------------------------------------------------
    # Template cache
    # ------------------------------------------------------------------

    def _template_for(
        self, expr: Expression, key: tuple, names: list[str]
    ) -> tuple[PlanTemplate, list[str], bool]:
        """The template filed under ``key`` (shape, slot classes), the
        names it was planned with in slot order, and whether fetching
        it *planned* (a miss plans ``expr`` and files it with ``names``).
        The flag is threaded explicitly, not inferred from counter
        deltas, so interleaved preparation attributes hits correctly."""
        cached = self._templates.get(key)
        if cached is not None:
            self._templates.move_to_end(key)
            self._template_hits += 1
            return *cached, False
        self._template_misses += 1
        controller = self.ssd.controllers[self.ssd.ftl.chip_of_chunk(0)]
        planner = Planner(
            _ChunkDirectory(controller, 0),
            block_limit=controller.planner.block_limit,
        )
        template = planner.plan_template(expr)
        self._planner_invocations += 1
        self._templates[key] = (template, names)
        while len(self._templates) > self.cache_size:
            self._templates.popitem(last=False)
        return template, names, True

    def enable_result_cache(
        self, capacity: int | None = None
    ) -> ResultCache:
        """Attach (or return the already-attached) cross-window
        :class:`ResultCache`.  The cache lives on the engine, so every
        service front-end over the same SSD shares one warm cache --
        and a repeat submission of an identical traffic window skips
        the sensing engine entirely.

        ``capacity`` bounds the entries of a cache this call creates
        (4096 when ``None``).  A live cache is returned as it is:
        ``None`` or its own capacity adopts it, and any other capacity
        raises ``ValueError`` -- a sibling's warm entries are never
        resized away."""
        if capacity is not None:
            positive_int("capacity", capacity)
        cache = self.result_cache
        if cache is None:
            cache = ResultCache(
                self.ssd,
                capacity=4096 if capacity is None else capacity,
            )
            self.result_cache = cache
        elif capacity is not None and cache.capacity != capacity:
            raise ValueError(
                f"the result cache is live with capacity {cache.capacity}; "
                f"it cannot take capacity {capacity}"
            )
        return cache

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            planner_invocations=self._planner_invocations,
            template_hits=self._template_hits,
            template_misses=self._template_misses,
            bind_fallbacks=self._bind_fallbacks,
            cached_templates=len(self._templates),
            shared_plans=self._shared_plans,
            shared_senses=self._shared_senses,
            executor_dispatches=self._executor_dispatches,
            reconstructed_plans=self._reconstructed_plans,
            reconstruction_senses=self._reconstruction_senses,
            stack_reuse_hits=self._stack_reuse_hits,
            restacked_tensors=self._restacked_tensors,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _layout_generation(self) -> tuple:
        """Current placement world: the FTL's vector generation plus
        every chip directory's operand generation.  Any registration
        or unregistration anywhere moves it, invalidating cached bound
        plans."""
        return (
            self.ssd.ftl.generation,
            tuple(
                [
                    controller.directory.generation
                    for controller in self.ssd.controllers
                ]
            ),
        )

    def _bind(
        self, expr, names, classes, template, rename, record
    ) -> tuple[PreparedQuery, bool]:
        """Bind the template (its names read through ``rename``) once
        per distinct chunk layout (chunks placed alike share one plan
        object), replanning a chunk whose slot classes differ from
        chunk 0's or whose bind fails; returns the prepared query a
        repeat gets (``planned`` off) and whether any replan ran."""
        planned = False
        tasks = []
        layouts: dict[tuple | None, Plan] = {}
        for chunk in range(record.n_chunks):
            chip = self.ssd.ftl.chip_of_chunk(chunk)
            controller = self.ssd.controllers[chip]
            layout = _placements(controller, chunk, names)
            plan = layouts.get(layout)
            if plan is None:
                view = _ChunkDirectory(controller, chunk)
                if _slot_classes(layout) == classes:
                    try:
                        plan = layouts[layout] = template.bind(
                            lambda name: view.lookup(rename[name])
                        )
                    except TemplateBindError:
                        pass
                if plan is None:  # replanned alone, never shared
                    planner = Planner(
                        view, block_limit=controller.planner.block_limit
                    )
                    plan = planner.plan(expr)
                    self._planner_invocations += 1
                    self._bind_fallbacks += 1
                    planned = True
            tasks.append((chip, chunk, plan))
        tasks.sort(key=itemgetter(0))  # chip by chip, chunk order kept
        chips, chunks, plans = zip(*tasks)
        return PreparedQuery(
            expr, record.n_bits, record.n_chunks, False, chunks, chips, plans
        ), planned

    def prepare(self, expr: Expression) -> PreparedQuery:
        """Plan (or fetch) and bind ``expr`` without executing it.

        The returned :class:`PreparedQuery` carries the bound per-chunk
        plans and an explicit ``planned`` flag (template build or any
        bind-failure replan), so callers preparing many queries before
        executing any -- the service admission-window path -- still
        attribute cache hits to the right query.  A repeat under an
        unmoved layout generation is one probe of the bound-plan LRU
        (and a template-LRU hit, as when the operands are looked up).
        A fresh expression placed like a planned one of its shape
        plans nothing.
        """
        generation = self._layout_generation()
        bound = self._bound.get(expr)
        fresh = bound is not None and bound[0] == generation
        if fresh:
            try:  # the LRUs' own key objects: no expression compare
                self._templates.move_to_end(bound[1])
            except KeyError:  # the template was evicted
                pass
            else:
                self._template_hits += 1
                self._bound.move_to_end(bound[2].expr)
                return bound[2]
        shape, names = operand_shape(expr)
        self.ssd.ftl.validate_co_located(sorted(names))
        record = self.ssd.ftl.lookup(names[0])
        controller = self.ssd.controllers[self.ssd.ftl.chip_of_chunk(0)]
        # Classes ``None`` (planning fails) are never filed.
        key = (shape, _slot_classes(_placements(controller, 0, names)))
        template, planned_names, planned = self._template_for(
            expr, key, names
        )
        if fresh:
            self._bound.move_to_end(expr)
            prepared = bound[2]
        else:
            rename = dict(zip(planned_names, names))
            prepared, bind_planned = self._bind(
                expr, names, key[1], template, rename, record
            )
            planned = planned or bind_planned
            # A stale entry is replaced where it stands in the LRU.
            self._bound[expr] = (generation, key, prepared)
            while len(self._bound) > self.cache_size:
                self._bound.popitem(last=False)
        if not planned:
            return prepared
        p = prepared  # the memo keeps the unplanned copy a repeat gets
        return PreparedQuery(
            expr, p.n_bits, p.n_chunks, True, p.chunks, p.chips, p.plans
        )

    def stage_constants(self, chip: int) -> tuple[float, float, tuple]:
        """Per-chip static parts of a chunk's pipeline job (transfer
        seconds and resource names; ``SsdConfig`` checked the
        bandwidths).  Memoized: the service lists one row per chunk
        task per window, and only the die seconds vary between them."""
        cached = self._stage_cache.get(chip)
        if cached is None:
            c = self.config
            chunk_bytes = self.ssd.page_bits / 8
            dma_s = chunk_bytes / c.channel_bw_bytes_per_s
            ext_s = chunk_bytes / c.external_bw_bytes_per_s
            names = (f"chip{chip}", f"chan{chip % c.n_channels}", "ext")
            cached = (dma_s, ext_s, names)
            self._stage_cache[chip] = cached
        return cached

    def stage_job(
        self,
        chip: int,
        latency_us: float,
        *,
        ready_at_s: float = 0.0,
        priority: float = 0.0,
        deadline_s: float | None = None,
        fault_delay_us: float = 0.0,
    ) -> StageJob:
        """Pipeline job for one chunk result, checked as a
        :class:`~repro.ssd.events.StageJob`: die sense -> channel DMA ->
        external link, in seconds, the die stage extended by
        ``fault_delay_us`` (:attr:`ChunkOutcome.recovery_us`).  The
        synchronous path's form; the service lists rows instead."""
        dma_s, ext_s, resources = self.stage_constants(chip)
        durations = (latency_us * 1e-6, dma_s, ext_s)
        return StageJob(ready_at_s, durations, resources, priority,
                        deadline_s, fault_delay_us * 1e-6)

    def execute_tasks(
        self,
        tasks: TaskColumns,
        *,
        share: bool = True,
        use_cache: bool = False,
        recovery: RecoveryPolicy | None = None,
        degraded: Iterable[int] = (),
        offline: Iterable[int] = (),
        reconstruct: bool = False,
    ) -> WindowResult:
        """Drain a multi-query window of chunk tasks; per task position
        either the words the result cache served or an outcome.

        Positions are grouped per chip preserving the given order (the
        scheduler's per-chip schedule) and every chip runs through the
        same stages (:meth:`_drain_chip`), one chip after another in
        the order the columns first name them.  The parameters choose
        *where a result comes from and what it is charged*, never its
        bits or the modelled cost of a sense that does run.

        ``use_cache``
            consult (and fill) the attached :class:`ResultCache`
            before anything else, in one pass over each chip's
            positions; a hit is an entry of the ``cached`` column, at
            zero flash cost, and nothing else is built for it.
            Error-free SSDs only.
        ``share``
            a task whose ``(chip, plan)`` matches an earlier task of
            this call senses nothing and comes back ``shared`` with
            the earlier task's data, ``degraded`` flag and ``error``.
            ``False`` is the unshared oracle.
        ``recovery``
            the fault-recovery policy (:mod:`repro.flash.faults`).
            Its retry/backoff half applies only while an *active*
            injector is attached to the SSD -- without one a plan is
            one clean attempt and nothing is drawn; its margin-read
            half applies to every chip in ``degraded`` regardless
            (the default policy when none is passed).  A
            :class:`~repro.flash.errors.FlashFault` a plan runs into
            under either half comes back as that task's ``error``;
            with neither in force it propagates to the caller.
        ``degraded``
            chips served on the V_TH margin-read path: nothing is
            drawn for them and their outcomes are ``degraded``.
        ``offline``
            quarantined chips: their tasks fail fast with
            :class:`~repro.flash.errors.ChipUnavailableError` without
            touching the die, as do the tasks of a fail-stopped chip.
        ``reconstruct``
            on a parity-striped SSD, after every chip has drained,
            tasks that failed with ``ChipUnavailableError`` or
            ``RetryExhaustedError`` are rebuilt from surviving peers
            and parity (:meth:`_reconstruct_failures`) in task order.
            Without failures (or parity) it is a no-op.
        """
        # Memoizing a sense is only sound where it is not a draw.
        error_free = not self.ssd.inject_errors
        cache = self.result_cache if use_cache and error_free else None
        if cache is not None:
            cache.prune_stale()
        injector = self.ssd.fault_injector
        n_tasks = len(tasks)
        per_chip: dict[int, list[int]] = {}
        for position, chip in enumerate(tasks.chip):
            per_chip.setdefault(chip, []).append(position)
        window = _Window(
            tasks=tasks,
            cached=[None] * n_tasks,
            outcomes=[None] * n_tasks,
            cache=cache,
            # One per-plan cache per drain.  Both caches key on (chip,
            # plan) and a StackCache stamp is the ResultCache stamp
            # plus the injector, so with the ResultCache engaged every
            # plan that reaches the executor has already missed the
            # only lookup that could hit; the StackCache serves the
            # drains that have no ResultCache (error-free, batched).
            stacks=(
                self.stack_cache
                if cache is None and error_free and self.stack_reuse
                else None
            ),
            share=share,
            policy=recovery if recovery is not None else RecoveryPolicy(),
            # Without an active injector no sense can fault: the retry
            # half of the policy is off and the fault-free window is
            # float for float the drain it always was.  The margin
            # half above stays the caller's.
            retry=(
                recovery is not None
                and injector is not None
                and injector.active
            ),
            degraded=frozenset(degraded),
            offline=frozenset(offline),
            chips=list(per_chip.items()),
            stripes=error_free
            and injector is None
            and (cache is None or len(cache) + n_tasks <= cache.capacity),
            ahead={},
        )
        for index in range(len(window.chips)):
            self._drain_chip(window, index)
        if reconstruct and self.ssd.parity:
            self._reconstruct_failures(window.outcomes, cache)
        return WindowResult(window.cached, window.outcomes)

    # ------------------------------------------------------------------
    # The chip drain, stage by stage
    # ------------------------------------------------------------------

    def _drain_chip(self, window: _Window, index: int) -> None:
        """Drain the window's ``index``-th chip: fail-fast -> result
        cache -> dedup -> sense -> publish (a chip a stripe sensed
        ahead only publishes).

        Engine counters are taken as deltas around the sense stage and
        merged once at the end.  A stage that raises leaves the chip's
        slots unpublished and its counters unmerged, and the error is
        the caller's.
        """
        chip, positions = window.chips[index]
        if self._fail_fast(window, chip, positions):
            return
        pending = self._lookup_cached(window, chip, positions)
        if not pending:
            return
        ahead = window.ahead.get(chip) or self._dedup(window, pending)
        assert ahead.pending == pending, "a stripe misread the cache"
        unique, followers = ahead.unique, ahead.followers
        # The executor and the sensing engine report their own counts,
        # whichever route the sense stage takes.
        executor = self.ssd.controllers[chip].executor
        sensing = self.ssd.chips[chip].sensing
        before = (executor.dispatches, sensing.restacked_tensors)
        if ahead.sensed is None:
            records, reuse_hits = self._sense(
                window,
                executor,
                index,
                [window.tasks.plan[position] for position in unique],
            )
        else:
            # A stripe sensed this die at its leader's turn (its counts
            # from then): one that dropped out since cannot hand the
            # results over.
            self.ssd.chips[chip]._check_online()
            (records, *before), reuse_hits = ahead.sensed, 0
        dispatches = executor.dispatches - before[0]
        restacked = sensing.restacked_tensors - before[1]
        shared_senses = self._publish(window, chip, unique, records, followers)
        self._executor_dispatches += dispatches
        self._shared_plans += len(followers)
        self._shared_senses += shared_senses
        self._stack_reuse_hits += reuse_hits
        self._restacked_tensors += restacked

    def _fail_fast(
        self, window: _Window, chip: int, positions: list[int]
    ) -> bool:
        """Fail the tasks of a chip that cannot serve without touching
        the die; ``False`` when the chip can.  The scheduler already
        parked quarantined chips at the window tail; a die that was
        fail-stopped since is caught here, before its queue raises
        out of the drain."""
        if self.ssd.chips[chip].offline:
            state = "offline"
        elif chip in window.offline:
            state = "quarantined"
        else:
            return False
        error = ChipUnavailableError(f"chip {chip} is {state}", chip=chip)
        task = window.tasks.task
        for position in positions:
            window.outcomes[position] = ChunkOutcome(
                task(position), None, 0, 0.0, 0.0, False, error=error
            )
        return True

    def _lookup_cached(
        self, window: _Window, chip: int, positions: list[int]
    ) -> list[int]:
        """Serve what the cross-window cache holds, in one
        :meth:`ResultCache.serve` call over the chip's positions: a
        hit's words go into the ``cached`` column, and it never reaches
        dedup or the executor.  Returns the positions that missed."""
        cache = window.cache
        if cache is None:
            return positions
        return cache.serve(chip, window.tasks.plan, positions, window.cached)

    def _dedup(self, window: _Window, pending: list[int]) -> _Ahead:
        """Split the pending positions into the unique plans, in
        first-appearance order (exactly the sequence the flash would
        have sensed), and the ``(position, leader position)`` pairs
        of the tasks that repeat one."""
        followers: list[tuple[int, int]] = []
        if not window.share:
            return _Ahead(pending, pending, followers)
        plans = window.tasks.plan
        unique: list[int] = []
        first_at: dict[Plan, int] = {}
        for position in pending:
            first = first_at.setdefault(plans[position], position)
            if first == position:
                unique.append(position)
            else:
                followers.append((position, first))
        return _Ahead(pending, unique, followers)

    def _sense(
        self, window: _Window, executor, index: int, plans: list[Plan]
    ) -> tuple[list[_SenseRecord], int]:
        """Sense a chip's unique plans; one record per plan, in one
        shape whatever the route, plus the stack-cache hit count.

        The route is read off what the drain already sees.  A chip in
        ``degraded`` walks its margin reads plan by plan and draws
        nothing.  Otherwise whether the queue has a batched equivalent
        at all is the executor's call, asked once, before anything is
        drawn, executed or counted; on a no (an error-injecting chip
        among them) every plan takes the scalar walk.  With the
        retry half of the policy off every plan is one clean attempt:
        the queue replays through the stack cache when one is engaged,
        and senses as a stripe (:meth:`_sense_stripe`) otherwise.
        With it on, the queue's **attempt schedule** is drawn first, in
        blocks (``queue_attempt_draws``) -- fault draws never depend on
        sensed data, so drawing every plan's attempts up front consumes
        the chip's stream exactly as the scalar walk would between
        executions -- and the queue drains as batched dispatches
        charged once per attempt, split only at a plan whose every
        attempt faulted: that plan's failed executions and its degraded
        fallback (or ``RetryExhaustedError``) run in scalar order from
        its drawn schedule between the batches, so chip counters
        accumulate in the scalar order.
        """
        chip = window.chips[index][0]
        margin = chip in window.degraded
        if margin or not executor.batchable(plans):
            return [
                self._sense_scalar(window, executor, chip, plan, margin)
                for plan in plans
            ], 0
        retry, policy = window.retry, window.policy
        if not retry and window.stacks is not None:
            # Plans already sensed under the current stamp replay their
            # packed rows and only the miss plans reach the flash;
            # latch replay and charging still run for all.
            results, hits = window.stacks.execute(executor, chip, plans)
            return _records(results), hits
        if not retry:
            return self._sense_stripe(window, index, plans), 0
        schedule = self.ssd.fault_injector.queue_attempt_draws(
            chip, policy, len(plans)
        )
        # Plans whose last attempt faulted too split the batch.
        exhausted = [i for i, draws in enumerate(schedule) if draws[-1][0]]
        records: list[_SenseRecord] = []
        start = 0
        for stop in (*exhausted, len(plans)):
            drawn = schedule[start:stop]
            if drawn:
                # Charged from the drawn attempt counts.
                results = executor.execute_batch(
                    plans[start:stop], [len(draws) for draws in drawn]
                )
                records += [
                    _SenseRecord(
                        result.words,
                        result.n_senses,
                        result.latency_us,
                        result.energy_nj,
                        len(draws) - 1,
                        draws[-1][1],
                    )
                    for result, draws in zip(results, drawn)
                ]
            if stop < len(plans):
                records.append(
                    self._sense_scalar(
                        window, executor, chip, plans[stop], margin,
                        schedule[stop],
                    )
                )
            start = stop + 1
        return records, 0

    def _sense_stripe(
        self, window: _Window, index: int, plans: list[Plan]
    ) -> list[_SenseRecord]:
        """Sense the ``index``-th chip's plain batched queue with every
        later chip's that holds the same plan objects in order: one
        :meth:`~repro.core.mws.MwsExecutor.layout`, then each member's
        own batch, this chip's first.  Members publish at their turn.
        All are resolved before any chip state moves, and each member's
        batch senses from that resolution; one that fails leaves with
        every chip after it and raises at its turn."""
        layout = MwsExecutor.layout(plans)
        cache, plan_at = window.cache, window.tasks.plan
        members = []
        later = window.chips[index + 1 :] if window.stripes else []
        for chip, positions in later:
            ahead = window.ahead.get(chip, False)
            if ahead is False:  # read once, moving no cache counter
                pending = [
                    p
                    for p in positions
                    if cache is None or (chip, plan_at[p]) not in cache
                ]
                ahead = window.ahead[chip] = (
                    self._dedup(window, pending)
                    if pending
                    and chip not in window.degraded
                    and chip not in window.offline
                    and not self.ssd.chips[chip].offline
                    else None
                )
            if not ahead or ahead.sensed or len(ahead.unique) != len(plans):
                continue
            if any(plan_at[p] is not q for p, q in zip(ahead.unique, plans)):
                continue
            try:
                resolve = self.ssd.chips[chip].resolve
                resolved = [resolve(command) for command in layout.commands]
            except Exception:
                break  # it raises again at its own turn
            members.append((chip, ahead, resolved))
        executor = self.ssd.controllers[window.chips[index][0]].executor
        own = _records(executor.execute_batch(layout))
        for chip, ahead, resolved in members:
            executor = self.ssd.controllers[chip].executor
            sensing = self.ssd.chips[chip].sensing
            counts = executor.dispatches, sensing.restacked_tensors
            records = _records(
                executor.execute_batch(layout, resolved=resolved)
            )
            window.ahead[chip] = ahead._replace(sensed=(records, *counts))
        return own

    def _sense_scalar(
        self,
        window: _Window,
        executor,
        chip: int,
        plan: Plan,
        margin: bool,
        draws: Iterable[tuple[bool, float]] | None = None,
    ) -> _SenseRecord:
        """Sense one plan with one scalar execution per attempt -- the
        reference semantics of the drain, the route of queues with no
        batched equivalent, and of a plan that exhausts its retries.

        Chip cost fields are counter deltas across *every* attempt --
        a failed sense still occupied the die -- while ``recovery_us``
        holds the controller-side backoff and injected stalls
        (charged to the event simulation, not the chip).  Fault draws
        come off the chip's own stream one attempt ahead of each
        execution -- or from ``draws``, the plan's already-drawn
        attempts, when the batched route hands over a plan whose
        schedule ended in exhaustion; with the retry half off the
        plan is one clean attempt and nothing is drawn.  All of it
        happens inside this chip's drain, so the sequence depends on
        this chip's schedule alone.
        """
        policy = window.policy
        counters = executor.chip.counters
        busy_before = counters.busy_us
        energy_before = counters.energy_nj
        senses_before = counters.senses
        recovery_us = 0.0
        retries = 0
        degraded = margin
        error: Exception | None = None
        result = None
        try:
            if not margin:
                if draws is None:
                    draws = (
                        self.ssd.fault_injector.attempt_draws(chip, policy)
                        if window.retry
                        else _ONE_CLEAN_ATTEMPT
                    )
                for faulted, recovery_us in draws:
                    # A persistent fault (bad block) raises out of the
                    # first attempt: retrying cannot help, and nothing
                    # further is drawn.
                    result = executor.execute(plan)
                    if not faulted:
                        break
                    # Transient failure: the attempt's chip time is
                    # spent, its data is discarded.
                    result = None
                    retries += 1
                else:
                    retries = policy.max_retries
                    if policy.degraded_mode:
                        degraded = True
                    else:
                        error = RetryExhaustedError(
                            f"sense retry exhausted after {retries + 1} "
                            f"attempts on chip {chip}",
                            attempts=retries + 1,
                        )
            if degraded:
                # A health-degraded chip serves directly on the careful
                # V_TH margin-read path, immune to transient sense
                # faults; an exhausted plan falls back to it.
                result = executor.execute_degraded(
                    plan, extra_senses=policy.degraded_extra_senses
                )
        except FlashFault as fault:
            if not (window.retry or margin):
                # No recovery plane in force to absorb it.
                raise
            error = fault
        return _SenseRecord(
            None if result is None else result.words,
            counters.senses - senses_before,
            counters.busy_us - busy_before,
            counters.energy_nj - energy_before,
            retries,
            recovery_us,
            degraded,
            error,
        )

    def _publish(
        self,
        window: _Window,
        chip: int,
        unique: list[int],
        records: list[_SenseRecord],
        followers: list[tuple[int, int]],
    ) -> int:
        """Turn the sense records into outcomes, remember the good
        ones for later windows, and fan each leader's data out to its
        followers at zero flash cost (they inherit its ``degraded``
        and ``error``).  Returns the senses the followers would have
        cost."""
        task_at = window.tasks.task
        outcomes = window.outcomes
        cache = window.cache
        outcome = ChunkOutcome  # local binding: window hot loop
        for position, record in zip(unique, records):
            task = task_at(position)
            # The record's fields are the outcome's, around the flag an
            # executed plan never carries (shared).
            outcomes[position] = outcome(
                task, *record[:4], False, *record[4:]
            )
            if (
                cache is not None
                and record.data is not None
                and record.error is None
            ):
                cache.put(chip, task.plan, record.data, record.n_senses)
        shared_senses = 0
        for position, first in followers:
            prior = outcomes[first]
            shared_senses += prior.n_senses
            outcomes[position] = outcome(
                task_at(position),
                prior.data,
                0,
                0.0,
                0.0,
                True,
                degraded=prior.degraded,
                error=prior.error,
                leader=first,
            )
        return shared_senses

    def _reconstruct_task(
        self,
        task: ChunkTask,
        pages: dict[tuple[str, int], tuple[np.ndarray, tuple[int, ...]]],
    ) -> tuple[np.ndarray, int, float, tuple[tuple[int, float], ...]]:
        """Rebuild one failed chunk task's result from parity.

        Every operand chunk of the task is reconstructed by XOR of its
        surviving rotation-group peers and parity page
        (:meth:`SmallSsd.reconstruct_chunk_bits`), then the expression
        is evaluated host-side over the rebuilt operand bits -- the
        same envelope the degraded V_TH fallback uses, so the result
        is bit-identical to what the lost chip would have computed.

        ``pages`` is the call's page memo, ``(vector, chunk) -> (bits,
        the chips that were read for them)``: a lost page is rebuilt
        once, by the first task that names it, and later tasks reuse
        the bits.  Returns ``(data, n_senses, energy_nj,
        recovery_work)`` where the cost fields are counter deltas
        measured across *all* chips -- reconstruction's survivor reads
        are real senses, charged to the chips that performed them, so
        a reused page costs nothing -- and ``recovery_work`` also
        names, at 0.0 us, each die a reused page was read on and this
        task did not read itself: the marker that keeps the task's
        completion behind the reads its data comes from.
        """
        ssd = self.ssd
        before = [
            (
                chip.counters.senses,
                chip.counters.busy_us,
                chip.counters.energy_nj,
            )
            for chip in ssd.chips
        ]
        env = {}
        reused: set[int] = set()
        for name in sorted(operand_names(task.expr)):
            page = pages.get((name, task.chunk))
            if page is None:
                senses = [chip.counters.senses for chip in ssd.chips]
                bits = ssd.reconstruct_chunk_bits(name, task.chunk)
                page = pages[(name, task.chunk)] = (
                    bits,
                    tuple(
                        chip_id
                        for chip_id, chip in enumerate(ssd.chips)
                        if chip.counters.senses != senses[chip_id]
                    ),
                )
            else:
                reused.update(page[1])
            env[name] = page[0]
        data = pack_bits(evaluate(task.expr, env))
        n_senses = 0
        energy_nj = 0.0
        work: list[tuple[int, float]] = []
        for chip_id, (s0, b0, e0) in enumerate(before):
            counters = ssd.chips[chip_id].counters
            n_senses += counters.senses - s0
            energy_nj += counters.energy_nj - e0
            busy = counters.busy_us - b0
            if busy > 0.0:
                work.append((chip_id, busy))
            elif chip_id in reused:
                work.append((chip_id, 0.0))
        return data, n_senses, energy_nj, tuple(work)

    def _reconstruct_failures(
        self,
        outcomes: list[ChunkOutcome | None],
        cache: ResultCache | None,
    ) -> None:
        """Phase two of ``execute_tasks(..., reconstruct=True)``: walk
        the outcomes in task order and replace chip-loss/retry-
        exhaustion failures with parity-reconstructed results.
        Sharing is the contract of phase one -- first occurrence pays,
        repeats share -- at two grains.  Per ``(chip, plan)``: the first
        task pays its survivor reads and repeats fan out as shared
        outcomes.  Per lost operand page: different plans over the
        same vectors rebuild each ``(vector, chunk)`` once between
        them (:meth:`_reconstruct_task`); the memo is local to this
        call, during which nothing programs or erases, so it needs no
        stamp.  Whoever reuses names the dies the reads ran on in its
        ``recovery_work`` at 0.0 us, so no result leaves before the
        reads it was made from.  A task whose reconstruction itself
        fails (parity off for the vector, double fault on a survivor)
        keeps its original typed error outcome.
        """
        #: share key -> position of the reconstructed leader (``None``:
        #: its reconstruction failed).
        memo: dict[tuple[int, Plan], int | None] = {}
        pages: dict[tuple[str, int], tuple[np.ndarray, tuple[int, ...]]] = {}
        reconstructed = 0
        senses = 0
        for position, prior in enumerate(outcomes):
            if prior is None or prior.error is None:
                continue
            task = prior.task
            if task.expr is None or not isinstance(
                prior.error, (ChipUnavailableError, RetryExhaustedError)
            ):
                continue
            key = (task.chip, task.plan)
            if key in memo:
                if memo[key] is None:
                    continue
                first = outcomes[memo[key]]
                outcomes[position] = ChunkOutcome(
                    task=task,
                    data=first.data,
                    n_senses=0,
                    latency_us=0.0,
                    energy_nj=0.0,
                    shared=True,
                    retries=prior.retries,
                    recovery_us=prior.recovery_us,
                    reconstructed=True,
                    recovery_work=tuple(
                        (chip, 0.0) for chip, _ in first.recovery_work
                    ),
                    leader=memo[key],
                )
                reconstructed += 1
                continue
            try:
                data, n_senses, energy_nj, work = self._reconstruct_task(
                    task, pages
                )
            except (ReconstructionError, KeyError):
                memo[key] = None
                continue
            fresh = ChunkOutcome(
                task=task,
                data=data,
                n_senses=n_senses,
                # The task's own chip spent nothing (it is gone);
                # survivor time rides recovery_work so the service
                # charges the right dies in the event simulation.
                latency_us=0.0,
                energy_nj=energy_nj,
                shared=False,
                retries=prior.retries,
                recovery_us=prior.recovery_us,
                reconstructed=True,
                recovery_work=work,
            )
            outcomes[position] = fresh
            memo[key] = position
            reconstructed += 1
            senses += n_senses
            if cache is not None:
                # Valid under the invalidation contract: survivor
                # reads are senses, not programs, so no layout stamp
                # moved; when the service later quarantines the dead
                # chip its directory generation bump drops the entry.
                cache.put(task.chip, task.plan, data, n_senses)
        self._reconstructed_plans += reconstructed
        self._reconstruction_senses += senses

    def assemble_bits(self, pieces: list[np.ndarray]) -> np.ndarray:
        """Stack a query's per-chunk result pages (packed words, one
        per chunk) into its ``(n_chunks, words_per_page)`` result
        block.  Nothing is unpacked: ``QueryResult.bits`` does that on
        read.  Always a copy -- a fresh sense's words may alias engine
        buffers -- and frozen (``writeable=False``) like a
        :class:`ResultCache` entry: the service hands one block to every
        query of a run whose pieces are the same objects."""
        words = np.concatenate(pieces).reshape(len(pieces), -1)
        words.setflags(write=False)
        return words

    def _execute(
        self, expr: Expression, job_sink: list[StageJob]
    ) -> "QueryResult":
        """Run one query functionally; append its pipeline jobs (one
        per chunk) to ``job_sink`` for event simulation."""
        from repro.ssd.controller import QueryResult

        prepared = self.prepare(expr)
        pieces: list[np.ndarray | None] = [None] * prepared.n_chunks
        chip_busy: dict[int, float] = {}
        n_senses = 0
        energy_nj = 0.0
        tasks = TaskColumns()
        tasks.add(0, prepared)
        # No cache is consulted: every task comes back an outcome.
        for outcome in self.execute_tasks(tasks, share=False).outcomes:
            if outcome.error is not None:
                # The synchronous path has no degraded fallback left to
                # try: surface the typed fault to the caller.
                raise outcome.error
            task = outcome.task
            # Chunk results stay packed through the replay and into
            # the QueryResult.
            pieces[task.chunk] = outcome.data
            n_senses += outcome.n_senses
            energy_nj += outcome.energy_nj
            chip_busy[task.chip] = (
                chip_busy.get(task.chip, 0.0) + outcome.latency_us
            )
            job_sink.append(
                self.stage_job(
                    task.chip,
                    outcome.latency_us,
                    fault_delay_us=outcome.recovery_us,
                )
            )
        return QueryResult(
            words=self.assemble_bits(pieces),
            page_bits=self.ssd.page_bits,
            n_bits=prepared.n_bits,
            n_senses=n_senses,
            latency_us=max(chip_busy.values(), default=0.0),
            energy_nj=energy_nj,
            # Served without any planning: neither a template build nor
            # a bind-failure replan ran for this query (threaded
            # explicitly from prepare -- not a counter delta, which
            # would misattribute hits when queries interleave).
            template_hit=prepared.template_hit,
        )

    def query(self, expr: Expression) -> "QueryResult":
        """Evaluate one expression; the result carries the pipelined
        makespan of its own chunk job stream."""
        jobs: list[StageJob] = []
        result = self._execute(expr, jobs)
        report = simulate_stages(jobs)
        return replace(result, makespan_us=report.makespan * 1e6)

    def query_batch(self, exprs: Iterable[Expression]) -> BatchResult:
        """Evaluate a stream of queries and pipeline *all* their chunk
        jobs through the shared resources at once -- the makespan is
        what a controller interleaving the stream would achieve, not
        the sum of isolated queries."""
        jobs: list[StageJob] = []
        results: list["QueryResult"] = []
        spans: list[tuple[int, int]] = []
        for expr in exprs:
            start = len(jobs)
            results.append(self._execute(expr, jobs))
            spans.append((start, len(jobs)))
        # An empty stream is a valid (if boring) batch: service
        # admission windows with no admitted queries push one through
        # without special-casing.
        report = simulate_stages(jobs)
        finished = [
            replace(
                result,
                makespan_us=max(report.completion_times[lo:hi]) * 1e6,
            )
            for result, (lo, hi) in zip(results, spans)
        ]
        return BatchResult(
            results=tuple(finished),
            makespan_us=report.makespan * 1e6,
            bottleneck=report.bottleneck,
        )
