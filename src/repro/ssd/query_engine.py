"""Plan-template query engine: plan once, bind per chunk, pipeline.

``SmallSsd.query`` stripes every operand vector identically, so chunk
``c`` of each operand sits at the *same relative layout* on its chip
as chunk 0 does on chip 0: same string-group co-location, same
inversion flags, only the physical wordline addresses differ.  The
seed implementation ignored this and re-ran the full planner for every
chunk, making query cost ``O(chunks x plan)``.  This engine exploits
it:

1. **Template cache** -- for each (expression, layout signature) pair
   the engine plans once, against a chunk-0 view of the directory, and
   lifts the result into a relocatable
   :class:`~repro.core.planner.PlanTemplate`.  Templates live in an
   LRU cache (``cache_size`` entries), so a stream of repeated query
   shapes never replans.  The layout signature is the per-vector
   (group, inversion) tuple from the FTL -- two queries share a
   template only when their operands are placed congruently.
2. **Bind step** -- each chunk binds the template against a
   :class:`_ChunkDirectory` view of its chip's operand directory,
   resolving operand names to that chunk's wordline addresses in
   O(operands).  A bind failure (layout drift, e.g. hand-placed
   operands) falls back to a per-chunk replan instead of failing the
   query.
3. **Per-chip queues** -- bound plans are grouped by chip and drained
   through each chip's :class:`~repro.core.mws.MwsExecutor` queue;
   chips are independent in a real SSD, so functional latency
   aggregates as the per-chip maximum.  Bound queues are themselves
   LRU-cached against the FTL *layout generation* (operand addresses
   are immutable once registered), so a repeat query re-binds nothing;
   any vector registration/unregistration bumps the generation and
   forces a re-bind.  Chunk results stay bit-packed (``uint64`` words,
   :mod:`repro.flash.packing`) through the replay and are unpacked
   once at the result boundary.
4. **Event-simulated makespan** -- every executed chunk also becomes a
   :class:`~repro.ssd.events.StageJob` (die sense -> channel DMA ->
   external link) fed through the exact timeline simulator, so the
   *functional* result carries the *pipelined* makespan the
   performance model would predict -- one code path for both.
5. **Shared-sense execution** -- :meth:`QueryEngine.prepare` exposes a
   query's bound per-chunk plans as :class:`ChunkTask`\\ s, and
   :meth:`QueryEngine.execute_tasks` drains an arbitrary multi-query
   task list with *cross-query sense sharing*: bound plans are
   identical-by-value (frozen dataclasses down to the MWS command
   bytes), so per chip a dict keyed on the plan detects that two
   queries ask for the same sensing operation; the sense runs once
   and its packed result words fan out to every subscribing task
   (MWS already serves many operands in one sense -- this extends the
   reuse across *queries* of one admission window).  The service
   layer (:mod:`repro.service`) builds windows and schedules on top
   of this path.
6. **Window-at-a-time batched execution** -- ``execute_tasks`` dedups
   first, then runs each chip's surviving unique queue through
   :meth:`~repro.core.mws.MwsExecutor.execute_batch`: the whole
   queue's packed operand rows collapse into a few tensor reduces
   (:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch`) and
   the latch protocol replays lane-parallel
   (:meth:`~repro.flash.latches.LatchBank.capture_batch`), so Python
   dispatch per window is O(chips), not O(senses) -- wall-clock
   window throughput finally tracks chip count the way simulated
   throughput does.  Error injection and ``packed=False`` batch the
   same way through the V_TH plane; a queue with no batched
   equivalent (:meth:`~repro.core.mws.MwsExecutor.batchable` says so
   before anything runs) walks its plans one by one, and
   ``batch=False`` forces the walk for benchmarking.

7. **Concurrent multi-chip dispatch** -- chips are independent dies
   behind independent channels, and the batched path reduced each
   chip's queue to a handful of wide NumPy reduces that release the
   GIL.  ``execute_tasks(..., workers=N)`` therefore drains the
   per-chip queues *concurrently* on a shared thread pool: each
   worker owns exactly one chip for the duration of the drain
   (serialized by ``MwsExecutor.lock``, so chip state never sees two
   threads), shared engine state -- the template/bound LRUs, the
   stat counters, the :class:`ResultCache` -- is lock-protected, and
   because each chip performs the identical operations in the
   identical per-chip order regardless of interleaving, results,
   latch end-state, and every per-chip counter are bit-/float-
   identical to the sequential drain at any worker count.

8. **Cross-window result caching** -- sense sharing only helps
   *within* one ``execute_tasks`` call; an identical query arriving
   in a later admission window re-senses from scratch.  A
   :class:`ResultCache` (opt-in,
   :meth:`QueryEngine.enable_result_cache`) memoizes each executed
   plan's packed result words keyed on the same bound-plan value
   identity the dedup uses, stamped with the layout generation of its
   chip (FTL vector generation + per-chip directory generation +
   :meth:`~repro.flash.array.PlaneArray.content_version`, the
   plane-level sum of per-block ``layout_version`` counters).  Any
   register/unregister *or* program/erase anywhere moves the stamp
   and the entry falls back to a fresh sense -- the cache can serve a
   stale word only if data mutates without bumping a generation
   counter, which is exactly the contract (``docs/architecture.md``)
   every writer including a future GC/migrator must keep.  With the cache
   consulted *before* dedup, a repeat window skips the sensing engine
   entirely: second-submission wall-clock is dict lookups plus the
   event simulation.

Query cost becomes ``O(plan + chunks x (bind + sense))``, with the
plan term amortized to zero across a stream by the template cache,
the sense term deduplicated across identical queries of a window,
repeat windows served from the cross-window result cache, and the
surviving senses executed as per-chip vectorized batches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import repeat
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.core.expressions import Expression, evaluate, operand_names
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
from repro.flash.packing import pack_bits, unpack_rows
from repro.ssd.config import SsdConfig, table1_config
from repro.ssd.events import StageJob, simulate_stages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssd.controller import QueryResult, SmallSsd


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
        # several times, binding once per chunk).
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

    A ``NamedTuple`` for the same reason as :class:`ChunkOutcome`: the
    service builds one per chunk per query per window, and tuple
    construction is the cheapest immutable record Python offers.
    """

    query: int
    chunk: int
    chip: int
    plan: Plan
    #: The source expression, carried for the parity reconstruction
    #: path: when the chip is gone the bound plan is useless (its
    #: addresses point at dead cells), but the expression can be
    #: re-evaluated host-side over parity-reconstructed operand
    #: chunks.  Deliberately *not* part of ``share_key`` -- sharing is
    #: a property of the sensing operation, not of who asked.
    expr: Expression | None = None

    @property
    def share_key(self) -> tuple[int, Plan]:
        return (self.chip, self.plan)


class ChunkOutcome(NamedTuple):
    """What executing (or sharing) one :class:`ChunkTask` produced.

    ``data`` is the chunk's result page -- packed ``uint64`` words on
    the packed plane, 0/1 bytes otherwise.  A ``shared`` outcome spent
    no flash time: its sense already ran for an identical earlier task
    of the same chip, and ``n_senses``/``latency_us``/``energy_nj``
    are zero accordingly (the window-level counters thus sum to the
    *actual* hardware cost).  A ``cached`` outcome likewise spent no
    flash time, but its words came from a *previous* window via the
    cross-window :class:`ResultCache` rather than from a sibling task
    of this call.

    A ``NamedTuple`` rather than a dataclass: one outcome is built per
    chunk task per window (thousands per service run), and tuple
    construction is the cheapest immutable record Python offers.

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
    cached: bool = False
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


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one :class:`ResultCache`."""

    #: Lookups served from a valid entry (no flash work ran).
    hits: int
    #: Lookups that found nothing valid (includes invalidations).
    misses: int
    #: Entries dropped because their layout stamp went stale.
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
    """Cross-window memo of packed per-chunk sense results.

    Sense sharing (:meth:`QueryEngine.execute_tasks`) deduplicates
    identical bound plans *within* one call; this cache extends the
    reuse across calls -- i.e. across admission windows of the query
    service, and across entire service runs sharing one SSD.  Entries
    are keyed on the same ``(chip, plan)`` value identity the dedup
    uses: :class:`~repro.core.planner.Plan` is frozen down to the MWS
    command bytes, so two equal keys ask the chip for the *same*
    sensing operation over the *same* physical cells.

    **Invalidation contract.**  A cached word is only as fresh as the
    cells it was sensed from.  Every entry therefore carries the
    layout stamp of its chip at execution time:

    ``(FlashTranslationLayer.generation,``
    ``  OperandDirectory.generation,``
    ``  PlaneArray.content_version())``

    -- bumped respectively on any vector register/unregister at the
    controller level, any per-chip operand register/unregister, and
    any program/erase of any block on the chip
    (:attr:`~repro.flash.array.BlockArray.layout_version`).  A lookup
    whose stamp no longer matches evicts the entry and re-senses; the
    invalidation is deliberately conservative -- the FTL component is
    SSD-global (any vector register/unregister anywhere invalidates
    every chip's entries), while the directory and content components
    are per chip (chip-local churn drops only that chip's entries) --
    because serving one stale packed word
    is strictly worse than re-sensing a window.  Any future garbage
    collector or data migrator that moves cells MUST bump one of
    these counters (programming/erasing through the chip does so
    automatically); see ``docs/architecture.md``.

    Stamps are snapshotted once per :meth:`begin_epoch` (the engine
    calls it at the top of every ``execute_tasks``), not per lookup --
    nothing programs mid-window, and the snapshot keeps the per-task
    lookup at dict speed.

    The cache is **packed-plane only**: error-injecting chips sense
    through the stochastic V_TH plane, where memoizing a draw would
    change the error statistics, and the ``packed=False`` byte plane
    is the equivalence oracle and must keep executing.

    Thread safety: the cache is shared by every drain of every engine
    over one SSD, so all entry/epoch/counter mutation happens under an
    internal lock -- concurrent per-chip workers
    (:meth:`QueryEngine.execute_tasks` with ``workers > 1``) hit and
    fill it safely.  The entries themselves are immutable (frozen
    arrays), so a value observed under the lock stays valid after it.
    """

    def __init__(self, ssd: "SmallSsd", *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ssd = ssd
        self.capacity = capacity
        #: (chip, plan) -> (layout stamp, packed words, n_senses).
        self._entries: OrderedDict[
            tuple[int, Plan], tuple[tuple, np.ndarray, int]
        ] = OrderedDict()
        self._epoch: dict[int, tuple] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._senses_avoided = 0
        self._cache_lock = threading.Lock()

    def _stamp(self, chip: int) -> tuple:
        ssd = self.ssd
        return (
            ssd.ftl.generation,
            ssd.controllers[chip].directory.generation,
            ssd.chips[chip].plane_array.content_version(),
        )

    def begin_epoch(self) -> None:
        """Snapshot every chip's current layout stamp.  Lookups compare
        against the snapshot, so a window's worth of gets costs one
        stamp computation per chip, not per task."""
        epoch = {
            chip: self._stamp(chip) for chip in range(len(self.ssd.chips))
        }
        with self._cache_lock:
            self._epoch = epoch

    def get(self, chip: int, plan: Plan) -> np.ndarray | None:
        """The plan's memoized packed result words, or ``None`` when
        absent or stale (the stale entry is evicted)."""
        key = (chip, plan)
        with self._cache_lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            stamp, words, n_senses = entry
            epoch = self._epoch.get(chip)
            if epoch is None:
                epoch = self._stamp(chip)
                self._epoch[chip] = epoch
            if stamp != epoch:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._senses_avoided += n_senses
            return words

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
        key = (chip, plan)
        with self._cache_lock:
            epoch = self._epoch.get(chip)
            if epoch is None:
                epoch = self._stamp(chip)
                self._epoch[chip] = epoch
            self._entries[key] = (epoch, words, n_senses)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def prune_stale(self) -> int:
        """Bulk-drop every entry whose layout stamp no longer matches
        its chip's *current* stamp; returns how many were dropped.

        :meth:`get` already evicts stale entries lazily, but under
        sustained relocation churn (the maintenance plane's GC
        copybacks, probation drains) whole swaths of entries go stale
        at once and would otherwise pin LRU capacity until each key
        happens to be looked up again.  The service calls this after
        any window in which maintenance moved data, so the cache's
        capacity keeps working for live entries."""
        stamps = {
            chip: self._stamp(chip)
            for chip in range(len(self.ssd.chips))
        }
        with self._cache_lock:
            dead = [
                key
                for key, (stamp, _, _) in self._entries.items()
                if stamp != stamps[key[0]]
            ]
            for key in dead:
                del self._entries[key]
            self._invalidations += len(dead)
            return len(dead)

    def resize(self, capacity: int) -> None:
        """Change the entry bound, evicting LRU entries when
        shrinking."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        with self._cache_lock:
            self.capacity = capacity
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._cache_lock:
            self._entries.clear()
            self._epoch.clear()

    def __len__(self) -> int:
        with self._cache_lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._cache_lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                senses_avoided=self._senses_avoided,
                entries=len(self._entries),
            )


class StackCache:
    """Cross-window reuse of per-plan packed sense rows (the "stack
    cache" of the word-wide speed story).

    The batched packed path stacks every window's operand rows into
    per-profile tensors and reduces them
    (:meth:`~repro.flash.sensing.SensingEngine.sense_batch_stacks`)
    -- even when the window repeats plans a previous window already
    sensed.  Like the :class:`ResultCache` this cache is keyed per
    ``(chip, plan)``; the difference is what a hit is *charged*.  A
    result-cache hit changes the outcome envelope (zero flash cost);
    this cache memoizes each plan's raw packed **sense rows** and lets
    :meth:`~repro.core.mws.MwsExecutor.execute_batch_reuse` skip just
    the sensing for reused plans while the latch replay, cost
    charges, and read-disturb accounting still run every window --
    so a window sharing any prefix (or subset) of a previous window's
    plans skips restacking those tensors and stays bit-, float-, and
    counter-identical to a fresh batched drain.

    It serves the drains that have no :class:`ResultCache` engaged
    (:meth:`QueryEngine.execute_tasks` picks one per-plan cache per
    call): its stamp below is the result cache's plus the injector,
    so behind an engaged result cache it could only ever miss.

    **Invalidation contract** (``docs/architecture.md``): entries are
    stamped per chip with

    ``(FlashTranslationLayer.generation,``
    ``  OperandDirectory.generation,``
    ``  PlaneArray.content_version(), fault injector identity)``

    and the whole chip's memo drops the moment the stamp moves -- any
    vector register/unregister, per-chip operand churn, program/erase
    (GC relocation, wear leveling, migration included), or
    fault-injector (re)attachment.  Conservative by design: reusing
    one stale sense row is strictly worse than restacking a window.

    The cache engages only on the packed error-free plane through the
    batched drain; the V_TH error plane draws fresh noise per sense
    and memoizes only its draw-independent schedule
    (:class:`~repro.flash.sensing.VthBatchSchedule`, same contract).
    Per-chip entry maps are bounded with clear-on-full semantics like
    the sensing row cache (``capacity`` plans, default 4096).

    Thread safety: the per-chip entry map is only touched by the
    drain that owns the chip (under ``MwsExecutor.lock``); the outer
    chip map and counters take an internal lock.
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
        self._lock = threading.Lock()

    def _stamp(self, chip: int) -> tuple:
        ssd = self.ssd
        return (
            ssd.ftl.generation,
            ssd.controllers[chip].directory.generation,
            ssd.chips[chip].plane_array.content_version(),
            ssd.chips[chip].fault_injector,
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
        with self._lock:
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
        with self._lock:
            self._hits += reused
            self._misses += len(plans) - reused
        return results, reused

    def entries(self, chip: int) -> int:
        """Live entry count for one chip (test/introspection hook)."""
        with self._lock:
            entry = self._chips.get(chip)
            return 0 if entry is None else len(entry[1])

    def clear(self) -> None:
        with self._lock:
            self._chips.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                senses_avoided=0,
                entries=sum(
                    len(entry[1]) for entry in self._chips.values()
                ),
            )


#: The attempt schedule of a plan nothing can fault: one clean attempt,
#: no recovery time -- what :meth:`FaultInjector.attempt_draws
#: <repro.flash.faults.FaultInjector.attempt_draws>` yields when every
#: rate is zero, without consulting an injector.
_ONE_CLEAN_ATTEMPT = ((False, 0.0),)


class _SenseRecord(NamedTuple):
    """What the sense stage of the drain produced for one unique plan,
    whatever route produced it: the plan's result page (``None`` when
    it failed), its chip cost as counter deltas across every attempt,
    and the recovery-plane fields of :class:`ChunkOutcome`."""

    data: np.ndarray | None
    n_senses: int
    latency_us: float
    energy_nj: float
    retries: int
    recovery_us: float
    degraded: bool
    error: Exception | None


class _Window(NamedTuple):
    """One :meth:`QueryEngine.execute_tasks` call as the stages of its
    chip drains see it: the task list, the outcome slots they fill,
    and the call's parameters resolved once."""

    order: list[ChunkTask]
    outcomes: list[ChunkOutcome | None]
    #: The per-plan cache engaged for this call (at most one of two).
    cache: ResultCache | None
    stacks: StackCache | None
    share: bool
    batch: bool
    #: The caller's recovery policy (the default one if none), and
    #: whether its retry half is in force (an active injector).
    policy: RecoveryPolicy
    retry: bool
    degraded: frozenset[int]
    offline: frozenset[int]


@dataclass(frozen=True)
class PreparedQuery:
    """A query planned and bound, ready for (shared) execution.

    ``planned`` is threaded explicitly from the template/bind steps --
    it is *not* inferred from global planner counters, so preparing
    many queries back to back (exactly what a service admission window
    does) attributes cache hits to the right query.
    """

    expr: Expression
    n_bits: int
    n_chunks: int
    queues: dict[int, list[tuple[int, Plan]]]
    planned: bool

    @property
    def template_hit(self) -> bool:
        return not self.planned

    def tasks(self, query: int) -> list[ChunkTask]:
        """Flatten the per-chip queues into attributed chunk tasks."""
        expr = self.expr
        return [
            ChunkTask(query, chunk, chip, plan, expr)
            for chip, queue in sorted(self.queues.items())
            for chunk, plan in queue
        ]


class QueryEngine:
    """Executes query streams against a :class:`SmallSsd` with
    plan-once/bind-per-chunk dispatch (see module docstring)."""

    def __init__(
        self,
        ssd: "SmallSsd",
        *,
        cache_size: int = 64,
        config: SsdConfig | None = None,
        workers: int | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.ssd = ssd
        self.cache_size = cache_size
        #: Default worker count for :meth:`execute_tasks`; 1 keeps the
        #: exact sequential drain (and is the default -- concurrency is
        #: opt-in per engine or per call).
        self.workers = 1 if workers is None else max(1, int(workers))
        #: Guards the engine's shared mutable state -- the template and
        #: bound-plan LRUs, the stat counters, the stage-constant memo
        #: -- against concurrent drains.  An RLock: locked sections
        #: call helpers that lock again (e.g. a bind fallback bumping
        #: planner counters).
        self._lock = threading.RLock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        #: Timing/bandwidth parameters for the pipelined makespan; the
        #: functional chips are tiny, so the event simulation scales
        #: their measured sense times with configured bus bandwidths.
        self.config = config or table1_config()
        self._templates: OrderedDict[object, PlanTemplate] = OrderedDict()
        #: (template key, n_chunks) -> (layout generation, bound
        #: queues).  Operand addresses are immutable once registered,
        #: so bound plans stay valid until the layout generation moves
        #: -- any FTL vector *or* per-chip directory operand being
        #: registered/unregistered (the latter catches controller-level
        #: hand-placement drift); then they re-bind.
        self._bound: OrderedDict[
            object, tuple[tuple, dict[int, list[tuple[int, Plan]]]]
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
        #: chip -> (DMA s, link s, resource names): see _stage_constants.
        self._stage_cache: dict[int, tuple[float, float, tuple]] = {}

    # ------------------------------------------------------------------
    # Template cache
    # ------------------------------------------------------------------

    def _layout_signature(self, names: list[str]) -> tuple:
        """(name, group, inverted) per operand: two queries may share a
        template only when their operands are placed congruently."""
        lookup = self.ssd.ftl.lookup
        signature = []
        for name in names:
            record = lookup(name)
            signature.append((name, record.group, record.inverted))
        return tuple(signature)

    def template_for(self, expr: Expression) -> PlanTemplate:
        """Fetch or build the relocatable template for ``expr``."""
        names = sorted(operand_names(expr))
        if not names:
            raise ValueError("expression references no operands")
        return self._template_for(expr, self._layout_signature(names))[0]

    def _template_for(
        self, expr: Expression, signature: tuple
    ) -> tuple[PlanTemplate, bool]:
        """Like :meth:`template_for` given the operands' layout
        signature, but additionally reports whether fetching the
        template *planned* (cache miss).  The flag is threaded
        explicitly to the caller instead of being inferred from
        counter deltas, so interleaved query preparation (the service
        window path) attributes hits correctly."""
        key = (expr, signature)
        with self._lock:
            cached = self._templates.get(key)
            if cached is not None:
                self._templates.move_to_end(key)
                self._template_hits += 1
                return cached, False
            self._template_misses += 1
            controller = self.ssd.controllers[
                self.ssd.ftl.chip_of_chunk(0)
            ]
            planner = Planner(
                _ChunkDirectory(controller, 0),
                block_limit=controller.planner.block_limit,
            )
            template = planner.plan_template(expr)
            self._planner_invocations += 1
            self._templates[key] = template
            while len(self._templates) > self.cache_size:
                self._templates.popitem(last=False)
            return template, True

    def enable_result_cache(
        self, capacity: int | None = None
    ) -> ResultCache:
        """Attach (or return the already-attached) cross-window
        :class:`ResultCache`.  The cache lives on the engine, so every
        service front-end over the same SSD shares one warm cache --
        and a repeat submission of an identical traffic window skips
        the sensing engine entirely.

        ``capacity=None`` means "whatever is there" (the 4096-entry
        default when creating); an *explicit* capacity resizes the
        shared cache in place (shrinking evicts LRU entries).  Only
        explicit requests resize, so a second service enabling the
        cache with defaults cannot silently evict a sibling's warm
        entries."""
        cache = self.result_cache
        if cache is None:
            cache = ResultCache(
                self.ssd,
                capacity=4096 if capacity is None else capacity,
            )
            self.result_cache = cache
        elif capacity is not None and cache.capacity != capacity:
            cache.resize(capacity)
        return cache

    @property
    def stats(self) -> EngineStats:
        with self._lock:
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
                controller.directory.generation
                for controller in self.ssd.controllers
            ),
        )

    def _bound_queues(
        self,
        expr: Expression,
        template: PlanTemplate,
        n_chunks: int,
        signature: tuple,
    ) -> tuple[dict[int, list[tuple[int, Plan]]], bool]:
        """Bind the template for every chunk and queue the plans per
        chip, falling back to a replan when a chunk's layout drifted
        from the template's.  Returns ``(queues, planned)`` where
        ``planned`` reports whether any bind-failure replan ran --
        threaded explicitly so callers never infer it from counters.

        Bound queues are LRU-cached against the FTL layout generation:
        a repeat query whose placement world has not changed reuses its
        resolved per-chunk plans without touching the directories.
        """
        key = (expr, signature, n_chunks)
        generation = self._layout_generation()
        with self._lock:
            cached = self._bound.get(key)
            if cached is not None and cached[0] == generation:
                self._bound.move_to_end(key)
                return cached[1], False
            planned = False
            queues: dict[int, list[tuple[int, Plan]]] = {}
            for chunk in range(n_chunks):
                chip = self.ssd.ftl.chip_of_chunk(chunk)
                controller = self.ssd.controllers[chip]
                view = _ChunkDirectory(controller, chunk)
                try:
                    plan = template.bind(view)
                except TemplateBindError:
                    planner = Planner(
                        view, block_limit=controller.planner.block_limit
                    )
                    plan = planner.plan(expr)
                    self._planner_invocations += 1
                    self._bind_fallbacks += 1
                    planned = True
                queues.setdefault(chip, []).append((chunk, plan))
            self._bound[key] = (generation, queues)
            while len(self._bound) > self.cache_size:
                self._bound.popitem(last=False)
            return queues, planned

    def prepare(self, expr: Expression) -> PreparedQuery:
        """Plan (or fetch) and bind ``expr`` without executing it.

        The returned :class:`PreparedQuery` carries the bound per-chunk
        plans and an explicit ``planned`` flag (template build or any
        bind-failure replan), so callers preparing many queries before
        executing any -- the service admission-window path -- still
        attribute cache hits to the right query.
        """
        names = sorted(operand_names(expr))
        if not names:
            raise ValueError("expression references no operands")
        self.ssd.ftl.validate_co_located(names)
        record = self.ssd.ftl.lookup(names[0])
        signature = self._layout_signature(names)
        template, template_planned = self._template_for(expr, signature)
        queues, bind_planned = self._bound_queues(
            expr, template, record.n_chunks, signature
        )
        return PreparedQuery(
            expr=expr,
            n_bits=record.n_bits,
            n_chunks=record.n_chunks,
            queues=queues,
            planned=template_planned or bind_planned,
        )

    def _stage_constants(self, chip: int) -> tuple[float, float, tuple]:
        """Per-chip static parts of a chunk's pipeline job (transfer
        durations and resource names).  Memoized: the service emits
        one job per chunk task per window, and only the sense duration
        varies between them."""
        cached = self._stage_cache.get(chip)
        if cached is None:
            c = self.config
            chunk_bytes = self.ssd.page_bits / 8
            cached = (
                chunk_bytes / c.channel_bw_bytes_per_s,
                chunk_bytes / c.external_bw_bytes_per_s,
                (f"chip{chip}", f"chan{chip % c.n_channels}", "ext"),
            )
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
        preemptible: bool = True,
        fault_delay_us: float = 0.0,
    ) -> StageJob:
        """Pipeline job for one chunk result: die sense -> channel DMA
        -> external link (durations in seconds, the event simulator's
        unit).  ``ready_at_s`` lets window streams arrive on the
        virtual clock instead of all at t=0.

        ``priority``/``deadline_s``/``preemptible`` thread scheduling
        directives into :func:`~repro.ssd.events.simulate_stages`: a
        deadline job outranks every non-deadline job among those
        waiting for its die, and under the arbitrated simulator (an
        :class:`~repro.ssd.events.ArbitrationConfig`) also at a
        contended channel, where it may further suspend an in-flight
        ``preemptible`` sense.

        ``fault_delay_us`` is the chunk's recovery time (retry backoff
        plus injected stalls, :attr:`ChunkOutcome.recovery_us`): the
        simulator extends the die stage by it, so fault recovery lands
        exactly in the simulated timeline."""
        dma_s, ext_s, resources = self._stage_constants(chip)
        return StageJob(
            ready_at_s,
            (latency_us * 1e-6, dma_s, ext_s),
            resources,
            priority,
            deadline_s,
            preemptible,
            fault_delay_us * 1e-6,
        )

    def _drain_pool(self, size: int) -> ThreadPoolExecutor:
        """The shared per-chip drain pool, (re)built when the worker
        count changes.  Reused across windows: pool construction costs
        more than a small window's worth of NumPy reduces."""
        with self._lock:
            if self._pool is None or self._pool_size != size:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                self._pool = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-chip"
                )
                self._pool_size = size
            return self._pool

    def execute_tasks(
        self,
        tasks: Iterable[ChunkTask],
        *,
        share: bool = True,
        batch: bool = True,
        use_cache: bool = False,
        workers: int | None = None,
        recovery: RecoveryPolicy | None = None,
        degraded: Iterable[int] = (),
        offline: Iterable[int] = (),
        reconstruct: bool = False,
    ) -> list[ChunkOutcome]:
        """Drain a multi-query chunk-task list; one outcome per task,
        in task order.

        Tasks are grouped per chip preserving the given order (the
        scheduler's per-chip schedule) and every chip's group runs
        through the same stages (:meth:`_drain_chip`).  The
        parameters choose *where a result comes from and what it is
        charged*, never its bits: result data, and the modelled cost
        of every sense that does run, are identical across all
        combinations.

        ``use_cache``
            consult (and fill) the attached :class:`ResultCache`
            before anything else; a hit is a ``cached`` outcome at
            zero flash cost.  Packed plane only.
        ``share``
            a task whose ``(chip, plan)`` matches an earlier task of
            this call senses nothing and comes back ``shared`` with
            the earlier task's data, ``degraded`` flag and ``error``.
            ``False`` is the unshared oracle.
        ``batch``
            one vectorized executor dispatch per chip queue instead of
            one per plan; ``False`` forces the per-plan walk (the
            reference the property suites and batch benchmarks
            compare against).  Outcomes, chip counters, latch
            end-state and fault draws are equal either way.
        ``workers``
            with more than one (per call, or the engine's default)
            and more than one chip, the per-chip drains run
            concurrently on a shared thread pool.  Each holds its
            chip's :attr:`~repro.core.mws.MwsExecutor.lock` end to
            end and performs the identical operations in the
            identical per-chip order, so everything observable is
            bit-/float-identical at any worker count.
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
            on a parity-striped SSD, after every drain has joined,
            tasks that failed with ``ChipUnavailableError`` or
            ``RetryExhaustedError`` are rebuilt from surviving peers
            and parity (:meth:`_reconstruct_failures`), sequentially
            in task order at any worker count.  Without failures (or
            parity) it is a no-op.
        """
        packed = self.ssd.packed
        cache = self.result_cache if use_cache and packed else None
        if cache is not None:
            cache.begin_epoch()
        injector = self.ssd.fault_injector
        order: list[ChunkTask] = (
            tasks if isinstance(tasks, list) else list(tasks)
        )
        window = _Window(
            order=order,
            outcomes=[None] * len(order),
            cache=cache,
            # One per-plan cache per drain.  Both caches key on (chip,
            # plan) and a StackCache stamp is the ResultCache stamp
            # plus the injector, so with the ResultCache engaged every
            # plan that reaches the executor has already missed the
            # only lookup that could hit; the StackCache serves the
            # drains that have no ResultCache (packed plane, batched).
            stacks=(
                self.stack_cache
                if cache is None and packed and batch and self.stack_reuse
                else None
            ),
            share=share,
            batch=batch,
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
        )
        per_chip: dict[int, list[int]] = {}
        for position, task in enumerate(order):
            queue = per_chip.get(task.chip)
            if queue is None:
                per_chip[task.chip] = [position]
            else:
                queue.append(position)
        n_workers = self.workers if workers is None else max(1, workers)
        if n_workers > 1 and len(per_chip) > 1:
            pool = self._drain_pool(n_workers)
            futures = [
                pool.submit(self._drain_chip, window, chip, positions)
                for chip, positions in per_chip.items()
            ]
            # Every drain joins before the first error (in chip order)
            # surfaces: no worker still holds a chip when the caller
            # sees the exception.
            wait(futures)
            for future in futures:
                future.result()
        else:
            for chip, positions in per_chip.items():
                self._drain_chip(window, chip, positions)
        if reconstruct and self.ssd.parity:
            self._reconstruct_failures(order, window.outcomes, cache)
        return window.outcomes

    # ------------------------------------------------------------------
    # The chip drain, stage by stage
    # ------------------------------------------------------------------

    def _drain_chip(
        self, window: _Window, chip: int, positions: list[int]
    ) -> None:
        """Drain one chip's tasks of the window: fail-fast -> result
        cache -> dedup -> sense -> publish.

        One worker owns the chip for the whole drain, under its
        executor's lock; distinct drains write disjoint ``outcomes``
        slots, so the list needs no lock.  Engine counters are taken
        as deltas around the sense stage and merged once, under the
        engine lock.  A stage that raises leaves the chip's slots
        unpublished and its counters unmerged, and the error is the
        caller's.
        """
        if self._fail_fast(window, chip, positions):
            return
        executor = self.ssd.controllers[chip].executor
        sensing = self.ssd.chips[chip].sensing
        with executor.lock:
            pending = self._lookup_cached(window, chip, positions)
            if not pending:
                return
            unique, followers = self._dedup(window, pending)
            # The executor and the sensing engine report their own
            # counts, whichever route the sense stage takes.
            dispatched_before = executor.dispatches
            restacked_before = sensing.restacked_tensors
            records, reuse_hits = self._sense(
                window,
                executor,
                chip,
                [window.order[position].plan for position in unique],
            )
            dispatches = executor.dispatches - dispatched_before
            restacked = sensing.restacked_tensors - restacked_before
            shared_senses = self._publish(
                window, chip, unique, records, followers
            )
        with self._lock:
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
        for position in positions:
            window.outcomes[position] = ChunkOutcome(
                window.order[position], None, 0, 0.0, 0.0, False, error=error
            )
        return True

    def _lookup_cached(
        self, window: _Window, chip: int, positions: list[int]
    ) -> list[int]:
        """Serve what the cross-window cache holds; the positions that
        missed.  First of all the stages that touch the chip: a hit
        never reaches dedup or the executor, so a fully repeated
        window costs no flash work and no executor dispatch."""
        cache = window.cache
        if cache is None:
            return positions
        order = window.order
        outcomes = window.outcomes
        outcome = ChunkOutcome  # local bindings: window hot loop
        lookup = cache.get
        pending: list[int] = []
        miss = pending.append
        for position in positions:
            task = order[position]
            words = lookup(chip, task.plan)
            if words is not None:
                outcomes[position] = outcome(
                    task, words, 0, 0.0, 0.0, False, True
                )
            else:
                miss(position)
        return pending

    def _dedup(
        self, window: _Window, pending: list[int]
    ) -> tuple[list[int], list[tuple[int, int]]]:
        """Split the pending positions into the unique plans, in
        first-appearance order (exactly the sequence the flash would
        have sensed), and the ``(position, leader position)`` pairs
        of the tasks that repeat one."""
        followers: list[tuple[int, int]] = []
        if not window.share:
            return pending, followers
        order = window.order
        unique: list[int] = []
        first_at: dict[Plan, int] = {}
        for position in pending:
            first = first_at.setdefault(order[position].plan, position)
            if first == position:
                unique.append(position)
            else:
                followers.append((position, first))
        return unique, followers

    def _sense(
        self, window: _Window, executor, chip: int, plans: list[Plan]
    ) -> tuple[list[_SenseRecord], int]:
        """Sense a chip's unique plans; one record per plan, in one
        shape whatever the route, plus the stack-cache hit count.

        The route is read off what the drain already sees.  A chip in
        ``degraded`` takes margin reads and draws nothing.  Otherwise,
        with the retry half of the policy on, the queue's **attempt
        schedule** is drawn first -- fault draws never depend on
        sensed data, so running ``attempt_draws`` for every plan up
        front consumes the chip's stream exactly as the scalar walk
        would between executions -- and with it off no schedule is
        drawn: every plan is one clean attempt.  Either way the queue
        then drains as batched dispatches charged once per attempt,
        split only at a plan whose every attempt faulted: that plan's
        failed executions and its degraded fallback (or
        ``RetryExhaustedError``) run in scalar order from its drawn
        schedule between the batches, so chip counters accumulate in
        the scalar order.

        Whether the queue has a batched equivalent at all is the
        executor's call, asked once, before anything is drawn,
        executed or counted; on a no -- and with ``batch`` off --
        every plan takes the scalar walk.
        """
        margin = chip in window.degraded
        retry = window.retry and not margin
        policy = window.policy
        if not (
            window.batch
            and executor.batchable(plans, retried=retry, margin=margin)
        ):
            return [
                self._sense_scalar(window, executor, chip, plan, margin)
                for plan in plans
            ], 0
        schedule = None
        exhausted = ()
        if retry:
            draw = self.ssd.fault_injector.attempt_draws
            schedule = [list(draw(chip, policy)) for _ in plans]
            exhausted = [
                index
                for index, draws in enumerate(schedule)
                if draws[-1][0]  # the last attempt faulted too
            ]
        packed = self.ssd.packed
        record = _SenseRecord._make  # one tuple per plan: queue hot loop
        records: list[_SenseRecord] = []
        reuse_hits = 0
        start = 0
        for stop in (*exhausted, len(plans)):
            span = plans[start:stop]
            drawn = schedule and schedule[start:stop]
            # One batched dispatch of plans that all end in a clean
            # attempt, entered through the layer the route belongs to.
            if not span:
                results = []
            elif margin:
                results = executor.execute_degraded_batch(
                    span, extra_senses=policy.degraded_extra_senses
                )
            elif schedule is None and window.stacks is not None:
                # Plans already sensed under the current stamp replay
                # their packed rows and only the miss plans reach the
                # flash; latch replay and charging still run for all.
                results, hits = window.stacks.execute(executor, chip, span)
                reuse_hits += hits
            else:
                # Charged from the drawn attempt counts -- ``None``
                # for the schedule nobody drew.
                results = executor.execute_batch(
                    span, drawn and [len(draws) for draws in drawn]
                )
            records += [
                record(
                    (
                        result.words if packed else result.bits,
                        result.n_senses,
                        result.latency_us,
                        result.energy_nj,
                        len(draws) - 1,
                        draws[-1][1],
                        margin,
                        None,
                    )
                )
                for result, draws in zip(
                    results, drawn or repeat(_ONE_CLEAN_ATTEMPT)
                )
            ]
            if stop < len(plans):
                records.append(
                    self._sense_scalar(
                        window, executor, chip, plans[stop], margin,
                        schedule[stop],
                    )
                )
            start = stop + 1
        return records, reuse_hits

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
        happens inside this chip's drain, so the sequence is
        identical at any worker count.
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
        data = None
        if result is not None:
            data = result.words if self.ssd.packed else result.bits
        return _SenseRecord(
            data,
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
        order = window.order
        outcomes = window.outcomes
        cache = window.cache
        outcome = ChunkOutcome  # local binding: window hot loop
        for position, record in zip(unique, records):
            task = order[position]
            # The record's fields are the outcome's, around the two
            # flags an executed plan never carries (shared, cached).
            outcomes[position] = outcome(
                task, *record[:4], False, False, *record[4:]
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
                order[position],
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
        bits = evaluate(task.expr, env)
        data = pack_bits(bits) if ssd.packed else bits
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
        order: list[ChunkTask],
        outcomes: list[ChunkOutcome | None],
        cache: ResultCache | None,
    ) -> None:
        """Phase two of ``execute_tasks(..., reconstruct=True)``: walk
        the outcomes in task order and replace chip-loss/retry-
        exhaustion failures with parity-reconstructed results.
        Sharing is the contract of phase one -- first occurrence pays,
        repeats share -- at two grains.  Per ``share_key``: the first
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
            key = task.share_key
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
        if reconstructed:
            with self._lock:
                self._reconstructed_plans += reconstructed
                self._reconstruction_senses += senses

    def assemble_bits(
        self, prepared: PreparedQuery, pieces: list[np.ndarray | None]
    ) -> np.ndarray:
        """Concatenate per-chunk result pages (packed words or bytes)
        into the query's result bit vector, truncated to its true
        length -- the single unpack at the result boundary."""
        present = [p for p in pieces if p is not None]
        if not present:
            return np.empty(0, np.uint8)
        if self.ssd.packed:
            bits = unpack_rows(
                np.vstack(present), self.ssd.page_bits
            ).ravel()
        else:
            bits = np.concatenate(present)
        return bits[: prepared.n_bits]

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
        for outcome in self.execute_tasks(
            prepared.tasks(query=0), share=False
        ):
            if outcome.error is not None:
                # The synchronous path has no degraded fallback left to
                # try: surface the typed fault to the caller.
                raise outcome.error
            task = outcome.task
            # Chunk results stay packed through the replay; the single
            # unpack happens at the result boundary in assemble_bits.
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
            bits=self.assemble_bits(prepared, pieces),
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
        from dataclasses import replace

        jobs: list[StageJob] = []
        result = self._execute(expr, jobs)
        report = simulate_stages(jobs)
        return replace(result, makespan_us=report.makespan * 1e6)

    def query_batch(self, exprs: Iterable[Expression]) -> BatchResult:
        """Evaluate a stream of queries and pipeline *all* their chunk
        jobs through the shared resources at once -- the makespan is
        what a controller interleaving the stream would achieve, not
        the sum of isolated queries."""
        from dataclasses import replace

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
