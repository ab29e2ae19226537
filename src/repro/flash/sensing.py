"""Sensing: regular reads and multi-wordline sensing (MWS).

The read mechanism (Section 2.1, Figure 2) senses the conductance of
NAND strings.  A cell conducts when VREF exceeds its V_TH; non-target
cells always conduct because they receive VPASS.  Consequences
(Section 4.1, Figure 9):

* applying VREF to several wordlines of the *same* string makes the
  string conduct only if **every** targeted cell conducts ->
  **bitwise AND** of the targeted wordlines (intra-block MWS);
* applying VREF to wordlines in *different* blocks (strings sharing
  bitlines) discharges the bitline if **any** string conducts ->
  **bitwise OR** across the blocks (inter-block MWS);
* combining both senses computes OR-of-ANDs in one shot (Equation 1).

Sensing is where bit errors happen: the engine perturbs the stored
V_TH with the stress condition before comparing against VREF, so MWS
results carry realistic errors unless the data was ESP-programmed.

Two evaluation paths implement the same semantics:

* the **packed fast path** (``packed=True``, error injection off, no
  VREF offset): error-free conduction of a cell equals its stored bit,
  so the string-group AND is a single ``np.bitwise_and.reduce`` over
  the block's packed ``uint64`` word rows -- 64 cells per machine
  word, no V_TH materialization at all;
* the **V_TH path**: slices the block's float32 V_TH matrix, applies
  the stress perturbation (when injecting errors) and compares against
  the read reference cell by cell.  Error injection, read-retry VREF
  offsets, and the ``packed=False`` compatibility mode all take this
  path, so every reliability figure reproduces unchanged.

On top of the per-sense fast path sits the batched plane, which
evaluates a whole *queue* of MWS operations at once.
:meth:`SensingEngine.resolve_sense` validates one operation and finds
where its packed operand rows live;
:meth:`SensingEngine.sense_batch_stacks` gathers the rows of every
resolved sense into one 3-D ``uint64`` tensor per group-size profile,
and the string-group ANDs / inter-block ORs of the entire batch
collapse into a handful of ``np.bitwise_and.reduce`` / ``bitwise_or``
calls -- O(profiles) NumPy dispatches for O(senses) sensing
operations.  Row ``i`` of the result is bit-identical to
``inter_block_mws(senses[i], ...).words``.  Off the packed error-free
plane a queue batches through the V_TH plane instead
(:meth:`SensingEngine.prepare_batch_vth` /
:meth:`SensingEngine.run_batch_vth`), with the per-sense loop's exact
stochastic draw schedule.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.flash.array import BlockArray
from repro.flash.errors import ErrorModel, OperatingCondition
from repro.flash.ispp import ProgramMode
from repro.flash.packing import (
    pack_bits,
    unpack_rows,
    unpack_words,
    words_per_page,
)


class SenseMode(enum.Enum):
    """Latch initialization behaviour of a sense (Figures 3 and 4)."""

    NORMAL = "normal"
    INVERSE = "inverse"


@dataclass(frozen=True)
class SenseOutcome:
    """Raw evaluation result of one sensing operation (pre-latch).

    The result is held natively in whichever representation the
    engine produced -- packed ``uint64`` words or unpacked 0/1 bits --
    and converted lazily (then cached) when the other view is asked
    for, so the packed pipeline never round-trips through bytes.
    """

    wordlines_sensed: int
    blocks_sensed: int
    n_bits: int
    _bits: np.ndarray | None = field(default=None, repr=False)
    _words: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_words(
        cls, words: np.ndarray, n_bits: int, *, wordlines: int, blocks: int
    ) -> "SenseOutcome":
        return cls(
            wordlines_sensed=wordlines,
            blocks_sensed=blocks,
            n_bits=n_bits,
            _words=words,
        )

    @classmethod
    def from_bits(
        cls, bits: np.ndarray, *, wordlines: int, blocks: int
    ) -> "SenseOutcome":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(
            wordlines_sensed=wordlines,
            blocks_sensed=blocks,
            n_bits=bits.size,
            _bits=bits,
        )

    @property
    def bits(self) -> np.ndarray:
        """Unpacked 0/1 result (uint8)."""
        if self._bits is None:
            object.__setattr__(
                self, "_bits", unpack_words(self._words, self.n_bits)
            )
        return self._bits

    @property
    def words(self) -> np.ndarray:
        """Packed uint64 result (ones-padded)."""
        if self._words is None:
            object.__setattr__(self, "_words", pack_bits(self._bits))
        return self._words


class VthBatchSchedule:
    """Prepared (deterministic) half of one batched V_TH window.

    :meth:`SensingEngine.prepare_batch_vth` resolves everything about
    a window that does not depend on the stochastic draw -- the unit
    flatten, stress-scalar columns, stacked/perturbed V_TH tensors,
    read references, noise layout, and read-disturb totals -- so
    :meth:`SensingEngine.run_batch_vth` only has to draw the window's
    Gaussian block and finish the noisy groups.  A schedule stays
    valid exactly while every target block's ``layout_version`` is
    unchanged (program/erase are the only writers of cell content and
    wordline metadata); the chip's schedule cache revalidates against
    ``read_counts`` before reusing one.
    """

    __slots__ = (
        "page_bits",
        "noise_rows",
        "sense_starts",
        "read_counts",
        "det_conducting",
        "noisy_groups",
    )

    def __init__(
        self,
        page_bits: int,
        noise_rows: int,
        sense_starts: list[int],
        read_counts: list,
        det_conducting: np.ndarray,
        noisy_groups: list,
    ) -> None:
        self.page_bits = page_bits
        self.noise_rows = noise_rows
        self.sense_starts = sense_starts
        #: (block, summed wordline count) per distinct target block --
        #: both the read-disturb accounting and the revalidation set.
        self.read_counts = read_counts
        #: (n_units, page_bits) conductance rows, final for every
        #: noise-free unit; noisy units are overwritten per run.
        self.det_conducting = det_conducting
        #: Per noisy group: (member ordinals, noise gather indices,
        #: perturbed base tensor, base-sigma tensor, widen column,
        #: read-reference column).
        self.noisy_groups = noisy_groups


class SensingEngine:
    """Evaluates string conductance for reads and MWS operations."""

    def __init__(
        self,
        error_model: ErrorModel,
        *,
        rng: np.random.Generator | None = None,
        inject_errors: bool = True,
        packed: bool = True,
    ) -> None:
        self.error_model = error_model
        self.rng = rng or np.random.default_rng(0)
        self.inject_errors = inject_errors
        #: Use the packed word fast path for error-free senses.  With
        #: ``packed=False`` even error-free senses evaluate through the
        #: V_TH matrix -- the pre-packing behaviour, kept as an oracle
        #: for equivalence tests and benchmarks.
        self.packed = packed
        # Error-free sensing resolves the read reference from a
        # pristine condition whose only live input is the ESP effort;
        # cache it per effort to keep the per-sense hot path lean.
        self._pristine_read_ref: dict[float, float] = {}
        #: wordline tuple -> sorted row-index array (reused across
        #: senses instead of re-sorting/re-allocating per call).
        #: Lookups are lock-free (atomic dict.get, immutable entries);
        #: the bounded evict+insert serializes on ``_rows_lock`` so
        #: concurrent per-chip dispatch cannot interleave a clear with
        #: a partial insert.
        self._rows_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._rows_lock = threading.Lock()
        #: (condition, esp_extra, block P/E, block sigma multiplier) ->
        #: resolved per-unit stress scalars for the batched error
        #: plane.  The effective condition is derived purely from that
        #: key, so repeat units skip the dataclass rebuild and shift
        #: resolution entirely.  Bounded like the other memo caches.
        self._stress_params: dict[tuple, tuple] = {}
        #: Per-profile operand tensors :meth:`sense_batch_stacks`
        #: concatenated fresh -- the quantity cross-window stack reuse
        #: (:class:`repro.ssd.query_engine.StackCache`) avoids
        #: rebuilding.  Monotonic; consumers read deltas.
        self.restacked_tensors = 0

    # ------------------------------------------------------------------
    # Cell-level conductance
    # ------------------------------------------------------------------

    def _rows(self, wordlines: tuple[int, ...]) -> np.ndarray:
        rows = self._rows_cache.get(wordlines)
        if rows is None:
            rows = np.array(sorted(wordlines))
            rows.setflags(write=False)
            with self._rows_lock:
                if len(self._rows_cache) >= 4096:
                    self._rows_cache.clear()
                self._rows_cache[wordlines] = rows
        return rows

    @staticmethod
    def _scan_metadata(
        block: BlockArray, wordlines: tuple[int, ...]
    ) -> tuple[bool, "ProgramMode", float]:
        """Single pass over the wordline metadata (per-sense hot path),
        shared by the scalar and batched evaluation: returns
        ``(has_mlc, mode, esp_extra)`` and raises the protocol errors
        (ESP-effort mismatch, MLC/SLC mixing) both paths must report
        identically."""
        if not wordlines:
            raise ValueError("MWS requires at least one wordline")
        metadata = block.metadata
        first = metadata[wordlines[0]]
        mode = first.mode
        esp_extra = first.esp_extra
        has_mlc = mode is ProgramMode.MLC
        mixed_modes = False
        for wl in wordlines[1:]:
            meta = metadata[wl]
            if meta.mode is not mode:
                mixed_modes = True
                if meta.mode is ProgramMode.MLC:
                    has_mlc = True
            if meta.esp_extra != esp_extra:
                raise ValueError(
                    "all wordlines of one MWS must share an ESP "
                    "programming effort -- the sense applies a single "
                    "read reference (got ESP extras "
                    f"{sorted({block.wordline_esp_extra(w) for w in wordlines})})"
                )
        if has_mlc and mixed_modes:
            raise ValueError(
                "MWS cannot mix MLC and SLC-family wordlines in one sense"
            )
        return has_mlc, mode, esp_extra

    def _conduction(
        self,
        block: BlockArray,
        wordlines: tuple[int, ...],
        condition: OperatingCondition,
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> np.ndarray:
        """Per-bitline conduction of one string group: AND over the
        targeted wordlines' cell conduction.

        Returns packed ``uint64`` words on the error-free fast path,
        a boolean per-bitline array on the V_TH path (callers wrap
        either into a :class:`SenseOutcome`).

        ``vref_offset`` shifts the read-reference voltage -- the
        read-retry mechanism real chips expose to recover data whose
        V_TH distribution has drifted.  ``force_vth`` routes even an
        error-free packed sense through the V_TH comparison -- the
        degraded/read-retry mode fault recovery falls back to, which
        on an error-free chip is bit-identical to the packed reduce
        (the idealized distributions are fully separated at zero
        offset), just slower.
        """
        has_mlc, mode, esp_extra = self._scan_metadata(block, wordlines)
        rows = self._rows(wordlines)
        if (
            self.packed
            and not self.inject_errors
            and vref_offset == 0.0
            and not force_vth
        ):
            # Error-free conduction of a cell equals its stored bit
            # (the calibrated states are fully separated at zero
            # offset), so the string-group AND is a word-wide reduce
            # over the packed functional plane -- no V_TH touched.
            words = np.bitwise_and.reduce(block.packed_rows(rows), axis=0)
            block.note_read(len(wordlines))
            return words
        modes = {ProgramMode.MLC} if has_mlc else {mode}
        vth = block.vth[rows]
        if self.inject_errors:
            cond = replace(
                condition,
                esp_extra=esp_extra,
                pe_cycles=max(condition.pe_cycles, block.pe_cycles),
                sigma_multiplier=condition.sigma_multiplier
                * block.sigma_multiplier,
            )
        if ProgramMode.MLC in modes:
            # LSB-page sensing: the read mechanism is identical to an
            # SLC read except for the reference voltage (VREF2 between
            # the P1 and P2 states; Section 9, footnote 15).
            read_ref = self.error_model.mlc_lsb_read_ref()
            if self.inject_errors:
                vth = self.error_model.perturb_mlc(
                    vth, block.mlc_states(rows), cond, self.rng
                )
        elif self.inject_errors:
            programmed = block.programmed_rows(rows)
            vth = self.error_model.perturb(vth, programmed, cond, self.rng)
            read_ref = self.error_model.slc_shifts(cond).read_ref
        else:
            read_ref = self._error_free_read_ref(condition, esp_extra)
        conducting = vth <= read_ref + vref_offset
        block.note_read(len(wordlines))
        return conducting.all(axis=0)

    def _error_free_read_ref(
        self, condition: OperatingCondition, esp_extra: float
    ) -> float:
        """Error-free read reference: only the ESP effort moves it
        (retention/PEC/read-disturb terms vanish at zero stress).
        Cached per effort -- shared by the scalar and batched V_TH
        paths so both resolve the identical reference."""
        read_ref = self._pristine_read_ref.get(esp_extra)
        if read_ref is None:
            pristine = OperatingCondition(
                randomized=condition.randomized, esp_extra=esp_extra
            )
            read_ref = self.error_model.slc_shifts(pristine).read_ref
            self._pristine_read_ref[esp_extra] = read_ref
        return read_ref

    def _outcome(
        self,
        payload: np.ndarray,
        *,
        n_bits: int,
        wordlines: int,
        blocks: int,
    ) -> SenseOutcome:
        if payload.dtype == np.uint64:
            return SenseOutcome.from_words(
                payload, n_bits, wordlines=wordlines, blocks=blocks
            )
        return SenseOutcome.from_bits(
            payload.astype(np.uint8), wordlines=wordlines, blocks=blocks
        )

    # ------------------------------------------------------------------
    # Public sensing operations
    # ------------------------------------------------------------------

    def read_wordline(
        self,
        block: BlockArray,
        wordline: int,
        condition: OperatingCondition,
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> SenseOutcome:
        """Regular page read: VREF on exactly one wordline.  For MLC
        wordlines this is the LSB-page read (single reference)."""
        payload = self._conduction(
            block,
            (wordline,),
            condition,
            vref_offset=vref_offset,
            force_vth=force_vth,
        )
        return self._outcome(
            payload,
            n_bits=block.geometry.page_size_bits,
            wordlines=1,
            blocks=1,
        )

    def read_msb_wordline(
        self,
        block: BlockArray,
        wordline: int,
        condition: OperatingCondition,
    ) -> SenseOutcome:
        """MSB-page read of an MLC wordline: two references (VREF1 and
        VREF3); MSB = 1 for cells below VREF1 (E) or above VREF3 (P3)."""
        from repro.flash.ispp import ProgramMode

        if block.metadata[wordline].mode is not ProgramMode.MLC:
            raise ValueError("MSB read requires an MLC wordline")
        window = self.error_model.mlc_window()
        ref1, _, ref3 = window.read_refs
        rows = self._rows((wordline,))
        vth = block.vth[rows]
        cond = condition
        if self.inject_errors:
            vth = self.error_model.perturb_mlc(
                vth, block.mlc_states(rows), cond, self.rng
            )
        below_ref1 = vth[0] <= ref1
        above_ref3 = vth[0] > ref3
        block.note_read(2)
        return SenseOutcome.from_bits(
            (below_ref1 | above_ref3).astype(np.uint8),
            wordlines=1,
            blocks=1,
        )

    def intra_block_mws(
        self,
        block: BlockArray,
        wordlines: tuple[int, ...],
        condition: OperatingCondition,
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> SenseOutcome:
        """Intra-block MWS: bitwise AND of the targeted wordlines."""
        payload = self._conduction(
            block,
            tuple(wordlines),
            condition,
            vref_offset=vref_offset,
            force_vth=force_vth,
        )
        return self._outcome(
            payload,
            n_bits=block.geometry.page_size_bits,
            wordlines=len(wordlines),
            blocks=1,
        )

    def inter_block_mws(
        self,
        targets: list[tuple[BlockArray, tuple[int, ...]]],
        condition: OperatingCondition,
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> SenseOutcome:
        """Inter-block MWS: OR across blocks of the AND within each
        block (Equation 1).  With one wordline per block this is plain
        bitwise OR (Figure 9(b))."""
        if not targets:
            raise ValueError("inter-block MWS requires at least one target")
        acc: np.ndarray | None = None
        total_wordlines = 0
        for block, wordlines in targets:
            conduction = self._conduction(
                block,
                tuple(wordlines),
                condition,
                vref_offset=vref_offset,
                force_vth=force_vth,
            )
            total_wordlines += len(wordlines)
            acc = conduction if acc is None else (acc | conduction)
        assert acc is not None
        return self._outcome(
            acc,
            n_bits=targets[0][0].geometry.page_size_bits,
            wordlines=total_wordlines,
            blocks=len(targets),
        )

    # ------------------------------------------------------------------
    # Batched sensing (window-at-a-time data plane)
    # ------------------------------------------------------------------

    def resolve_sense(
        self,
        targets: list[tuple[BlockArray, tuple[int, ...]]],
    ) -> tuple[
        tuple[tuple[BlockArray, np.ndarray], ...], tuple[int, ...]
    ]:
        """Validate one MWS operation's targets and resolve where its
        packed operand rows live: returns ``(source, profile)`` -- the
        per-block ``(block, sorted row indices)`` pairs and the
        per-block wordline counts.  Nothing is read yet:
        :meth:`sense_batch_stacks` gathers the rows, window by window,
        straight into its per-profile tensors, so a memoizing caller
        -- the chip's batched command cache -- holds a few indices
        per command rather than a copy of its pages.  Deliberately
        does *not* account the read disturb either: callers do (via
        ``note_read``), so cache hits re-account without re-resolving.
        Runs the scalar path's own metadata scan (``_scan_metadata``),
        so the two planes reject exactly the same senses."""
        if not targets:
            raise ValueError("inter-block MWS requires at least one target")
        source = []
        for block, wordlines in targets:
            wordlines = tuple(wordlines)
            self._scan_metadata(block, wordlines)
            source.append((block, self._rows(wordlines)))
        return tuple(source), tuple(len(rows) for _, rows in source)

    def sense_batch_stacks(
        self,
        sources: list[tuple],
        profiles: list[tuple[int, ...]],
    ) -> np.ndarray:
        """Evaluate many resolved MWS operations in one vectorized
        pass: ``sources[i]`` is one sense's ``(block, row indices)``
        pairs and ``profiles[i]`` its per-block wordline counts
        (:meth:`resolve_sense`).  Returns one packed, ones-padded
        ``uint64`` result row per sense, bit-identical to
        ``inter_block_mws(senses[i], ...).words``.

        Senses are grouped by their *group-size profile*; each group
        stacks its operand rows into one 3-D tensor and computes every
        string-group AND and inter-block OR of the group with one
        reduce per segment.  Validation and read-disturb accounting
        are the caller's: the chip's batched entry point memoizes
        resolution per command (revalidated via block
        ``layout_version``), so steady-state windows pay only the row
        gathers and the per-profile tensor reduces.  Only the packed
        error-free plane can batch this way -- error injection and
        VREF offsets evaluate per cell through V_TH -- so this raises
        off that plane rather than silently approximating."""
        if not (self.packed and not self.inject_errors):
            raise RuntimeError(
                "sense_batch_stacks requires the packed error-free "
                "plane; error injection and packed=False evaluate "
                "through V_TH"
            )
        n = len(sources)
        if n == 0:
            raise ValueError(
                "sense_batch_stacks requires at least one sense"
            )
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, profile in enumerate(profiles):
            group = groups.get(profile)
            if group is None:
                groups[profile] = [i]
            else:
                group.append(i)
        n_words = words_per_page(sources[0][0][0].geometry.page_size_bits)
        out = np.empty((n, n_words), dtype=np.uint64)
        self.restacked_tensors += len(groups)
        for profile, members in groups.items():
            total_rows = sum(profile)
            # Every operand row is copied exactly once: gathered from
            # its block straight into its slot of the group tensor.
            tensor = np.empty(
                (len(members), total_rows, n_words), dtype=np.uint64
            )
            for slot, i in enumerate(members):
                lo = 0
                for (block, rows), size in zip(sources[i], profile):
                    block.gather_packed_rows(
                        rows, tensor[slot, lo : lo + size]
                    )
                    lo += size
            # Members ascend, so a gap-free group is a slice of ``out``
            # and reduces in place; a scattered one reduces into a
            # temporary that is stored by index.
            first = members[0]
            in_place = members[-1] - first + 1 == len(members)
            result = (
                out[first : first + len(members)]
                if in_place
                else np.empty((len(members), n_words), dtype=np.uint64)
            )
            if len(profile) == 1:
                # Pure intra-block AND (one string group per sense).
                np.bitwise_and.reduce(tensor, axis=1, out=result)
            elif total_rows == len(profile):
                # One wordline per block: plain inter-block OR.
                np.bitwise_or.reduce(tensor, axis=1, out=result)
            else:
                # General OR-of-ANDs (Equation 1): AND each group
                # segment, OR the segment results.
                lo = 0
                for size in profile:
                    segment = tensor[:, lo : lo + size]
                    if lo == 0:
                        np.bitwise_and.reduce(segment, axis=1, out=result)
                    elif size == 1:
                        result |= segment[:, 0]
                    else:
                        result |= np.bitwise_and.reduce(segment, axis=1)
                    lo += size
            if not in_place:
                out[np.asarray(members)] = result
        return out

    # ------------------------------------------------------------------
    # Batched V_TH error plane
    # ------------------------------------------------------------------

    def sense_batch_vth(
        self,
        senses: list[list[tuple[BlockArray, tuple[int, ...]]]],
        conditions: list[OperatingCondition],
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> np.ndarray | None:
        """Evaluate many MWS operations through the V_TH error plane
        in one vectorized pass.

        ``senses[i]`` is the target list of one inter-block MWS and
        ``conditions[i]`` its effective operating condition (the chip
        resolves per-command randomization surcharges before calling
        in).  Returns an ``(n_senses, page_bits)`` ``uint8`` matrix
        whose row ``i`` is bit-identical to
        ``inter_block_mws(senses[i], conditions[i], ...).bits`` run in
        sequence -- *including the stochastic error draws*: the batch
        draws one Gaussian block for the whole window and splits it in
        the exact (sense, block-target) order the scalar loop draws
        in, so the chip's RNG stream stays schedule-identical and the
        corrupted bits are the same bits.  Float identity holds
        because every perturbation/compare runs grouped by the exact
        per-unit stress scalars -- elementwise the same float32
        operations in the same order as :meth:`ErrorModel.perturb`.

        Returns ``None`` when any target is MLC-programmed (the
        multi-reference MLC draw stays per sense; callers fall back to
        the scalar loop *before* any RNG or read-disturb side effect).
        Pure SLC/ESP windows -- every reliability sweep shape -- stay
        on the batch plane.
        """
        schedule = self.prepare_batch_vth(
            senses,
            conditions,
            vref_offset=vref_offset,
            force_vth=force_vth,
        )
        if schedule is None:
            return None
        return self.run_batch_vth(schedule)

    def prepare_batch_vth(
        self,
        senses: list[list[tuple[BlockArray, tuple[int, ...]]]],
        conditions: list[OperatingCondition],
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> VthBatchSchedule | None:
        """Resolve the deterministic half of a batched V_TH window
        into a reusable :class:`VthBatchSchedule` (or ``None`` on MLC
        fallback, before any side effect).  Everything that does not
        depend on the stochastic draw -- flattening, stress scalars,
        the perturbed-base tensors, read references, noise layout --
        happens here; the chip caches the schedule per command window
        and revalidates it against block ``layout_version``s, so
        repeated reliability windows skip straight to
        :meth:`run_batch_vth`.
        """
        if (
            self.packed
            and not self.inject_errors
            and vref_offset == 0.0
            and not force_vth
        ):
            raise RuntimeError(
                "sense_batch_vth is the V_TH error plane; the packed "
                "error-free plane batches through sense_batch_stacks"
            )
        # ------------------------------------------------------------
        # 1. Validate, flatten into (sense, block-target) units in
        #    scalar execution order, and resolve per-unit stress
        #    scalars in the same pass (the order is what lets the one
        #    Gaussian draw split on the scalar schedule).  MLC
        #    fallback happens before any draw or read-disturb side
        #    effect -- everything mutated here is call-local except
        #    the stress-scalar memo, which is value-pure.
        #
        #    Units group by tensor *shape* only -- (row count,
        #    noise-widened?).  The stress scalars themselves ride
        #    along as per-unit float32 parameter columns broadcast
        #    over the (U, R, C) group tensor: the scalar path feeds
        #    Python floats into float32 NumPy ops, which converts
        #    them to float32 first, so a float32 parameter column
        #    produces the elementwise-identical result (the
        #    read-reference compare keeps float64 columns -- NumPy
        #    compares float32 data against a Python float exactly,
        #    without narrowing it).  Per-block process variation
        #    (``sigma_multiplier``) therefore costs no group
        #    fragmentation.
        #
        #    The memo keys on ``id(condition)``: chips intern their
        #    effective-condition variants, and the entry pins the
        #    condition object, so a live key match can only be the
        #    same object (the ``is`` check makes that explicit).
        # ------------------------------------------------------------
        units: list[tuple[int, BlockArray, tuple[int, ...], float]] = []
        sense_starts: list[int] = []
        read_counts: dict[int, list] = {}
        inject = self.inject_errors
        model = self.error_model
        slc = model.calibration.slc
        stress_memo = self._stress_params
        groups: dict[tuple[int, bool], list[int]] = {}
        unit_rows: list[np.ndarray] = []
        params: list[tuple] = []
        noise_at: list[int] = []
        noise_rows = 0
        for index, targets in enumerate(senses):
            if not targets:
                raise ValueError(
                    "inter-block MWS requires at least one target"
                )
            sense_starts.append(len(units))
            condition = conditions[index]
            for block, wordlines in targets:
                wordlines = tuple(wordlines)
                has_mlc, _, esp_extra = self._scan_metadata(
                    block, wordlines
                )
                if has_mlc:
                    return None
                ordinal = len(units)
                units.append((index, block, wordlines, esp_extra))
                n_rows = len(wordlines)
                entry = read_counts.get(id(block))
                if entry is None:
                    read_counts[id(block)] = [block, n_rows]
                else:
                    entry[1] += n_rows
                unit_rows.append(self._rows(wordlines))
                if inject:
                    mkey = (
                        id(condition),
                        esp_extra,
                        block.pe_cycles,
                        block.sigma_multiplier,
                    )
                    cached = stress_memo.get(mkey)
                    if cached is not None and cached[0] is condition:
                        unit_params = cached[1]
                    else:
                        cond = replace(
                            condition,
                            esp_extra=esp_extra,
                            pe_cycles=max(
                                condition.pe_cycles, block.pe_cycles
                            ),
                            sigma_multiplier=condition.sigma_multiplier
                            * block.sigma_multiplier,
                        )
                        shifts = model.slc_shifts(cond)
                        widen = math.sqrt(
                            max(shifts.sigma_factor**2 - 1.0, 0.0)
                        )
                        unit_params = (
                            shifts.retention_down,
                            shifts.erased_up,
                            widen,
                            slc.programmed_sigma
                            * (
                                1.0
                                - slc.esp_sigma_shrink * cond.esp_extra
                            ),
                            slc.erased_sigma,
                            shifts.read_ref,
                        )
                        if len(stress_memo) < 4096:
                            stress_memo[mkey] = (condition, unit_params)
                    params.append(unit_params)
                    widened = unit_params[2] > 0.0
                    key = (n_rows, widened)
                    noise_at.append(noise_rows if widened else -1)
                    if widened:
                        noise_rows += n_rows
                else:
                    params.append(
                        (self._error_free_read_ref(condition, esp_extra),)
                    )
                    key = (n_rows, False)
                    noise_at.append(-1)
                groups.setdefault(key, []).append(ordinal)
        # ------------------------------------------------------------
        # 2. Precompute per shape group as one 3-D tensor op.  The
        #    shift-perturbed base, base sigma, and read reference are
        #    draw-independent, so noise-free groups produce their
        #    final conductance rows here and noisy groups reduce to
        #    one fused noise-add + compare per run.
        # ------------------------------------------------------------
        page_bits = units[0][1].vth.shape[1]
        det_conducting = np.empty(
            (len(units), page_bits), dtype=bool
        )
        noisy_groups: list[tuple] = []
        for (n_rows, widened), members in groups.items():
            vth = np.stack(
                [units[i][1].vth[unit_rows[i]] for i in members]
            )
            if inject:
                column = lambda j, dt: np.array(  # noqa: E731
                    [params[i][j] for i in members], dtype=dt
                )[:, None, None]
                # One unpack for the whole group: gather the packed
                # ground-truth rows, unpack as a single 2-D matrix,
                # and mask programmed (stored-0) cells -- elementwise
                # the same as per-unit ``programmed_rows``.
                packed = np.stack(
                    [
                        units[i][1].packed_rows(unit_rows[i])
                        for i in members
                    ]
                )
                programmed = (
                    unpack_rows(
                        packed.reshape(-1, packed.shape[2]), page_bits
                    ).reshape(len(members), n_rows, page_bits)
                    == 0
                )
                out = vth.astype(np.float32, copy=True)
                # out[p] -= ret; out[~p] += eu, fused: x - (-y) == x + y
                out -= np.where(
                    programmed,
                    column(0, np.float32),
                    -column(1, np.float32),
                )
                read_ref_col = (
                    column(5, np.float64) + vref_offset
                )
                if widened:
                    gather = np.concatenate(
                        [
                            np.arange(noise_at[i], noise_at[i] + n_rows)
                            for i in members
                        ]
                    )
                    base_sigma = np.where(
                        programmed,
                        column(3, np.float32),
                        column(4, np.float32),
                    )
                    noisy_groups.append(
                        (
                            np.asarray(members),
                            gather,
                            out,
                            base_sigma,
                            column(2, np.float32),
                            read_ref_col,
                        )
                    )
                    continue
            else:
                out = vth
                read_ref_col = (
                    np.array(
                        [params[i][0] for i in members], dtype=np.float64
                    )[:, None, None]
                    + vref_offset
                )
            conducting = out <= read_ref_col
            det_conducting[np.asarray(members)] = conducting.all(axis=1)
        return VthBatchSchedule(
            page_bits,
            noise_rows,
            sense_starts,
            [tuple(entry) for entry in read_counts.values()],
            det_conducting,
            noisy_groups,
        )

    def run_batch_vth(self, schedule: VthBatchSchedule) -> np.ndarray:
        """Execute one prepared V_TH window.

        Draws the window's Gaussian block -- exactly the scalar
        loop's draw schedule, one ``standard_normal`` split per noisy
        unit in (sense, target) order -- finishes the noisy groups
        against their precomputed tensors (``base + noise * sigma *
        widen`` is the identical float32 expression the scalar
        ``perturb`` evaluates), ORs units per sense with a segmented
        reduction that matches the scalar accumulation order, and
        charges read disturb (``note_read`` is a pure counter, so one
        aggregated bump per block equals the per-target bumps).
        Every run re-perturbs with fresh noise, so repeated windows
        flip fresh bits just as the scalar loop would.
        """
        page_bits = schedule.page_bits
        if schedule.noise_rows:
            noise_all = self.rng.standard_normal(
                (schedule.noise_rows, page_bits)
            ).astype(np.float32)
            unit_conducting = schedule.det_conducting.copy()
            for (
                members,
                gather,
                base,
                base_sigma,
                widen_col,
                ref_col,
            ) in schedule.noisy_groups:
                noise = noise_all[gather].reshape(
                    len(members), base.shape[1], page_bits
                )
                out = base + noise * base_sigma * widen_col
                unit_conducting[members] = (out <= ref_col).all(axis=1)
        else:
            unit_conducting = schedule.det_conducting
        out_bits = np.bitwise_or.reduceat(
            unit_conducting, schedule.sense_starts, axis=0
        ).astype(np.uint8)
        for block, count in schedule.read_counts:
            block.note_read(count)
        return out_bits
