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

* the **packed fast path** (error injection off, no VREF offset):
  error-free conduction of a cell equals its stored bit, so the
  string-group AND is a single ``np.bitwise_and.reduce`` over the
  block's packed ``uint64`` word rows -- 64 cells per machine word, no
  V_TH materialization at all;
* the **V_TH path**: slices the block's float32 V_TH matrix, applies
  the stress perturbation (when injecting errors) and compares against
  the read reference cell by cell.  Error injection, read-retry VREF
  offsets and ``force_vth`` margin reads take this path, so every
  reliability figure reproduces unchanged.  It is how a sense is
  *evaluated*, not a second representation: the chip packs its
  outcome once, before the latches see it.

On top of the per-sense fast path sits the batched plane, which
evaluates a whole *queue* of error-free MWS operations at once.
The chip resolves each operation to its address rows
(:meth:`~repro.flash.chip.NandFlashChip.resolve`);
:meth:`SensingEngine.sense_batch_stacks` gathers the rows of every
resolved sense off the chip's slab (one ``uint64`` array holding every
materialized block's packed rows, :class:`~repro.flash.array.PlaneArray`)
into one 3-D ``uint64`` tensor per group-size profile, one ``take``
per profile,
and the string-group ANDs / inter-block ORs of the entire batch
collapse into a handful of ``np.bitwise_and.reduce`` / ``bitwise_or``
calls -- O(profiles) NumPy dispatches for O(senses) sensing
operations.  Row ``i`` of the result is bit-identical to
``inter_block_mws(senses[i], ...).words``.  A sense with error
injection, a VREF offset or ``force_vth`` has no batched twin: it is
evaluated one at a time through :meth:`SensingEngine.inter_block_mws`,
which draws the stress noise in (sense, target) order.  A regular page
read is the one-target, one-wordline case of that call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.flash.array import BlockArray, PlaneArray
from repro.flash.errors import ErrorModel, OperatingCondition
from repro.flash.ispp import ProgramMode
from repro.flash.packing import pack_bits, unpack_words


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


class SensingEngine:
    """Evaluates string conductance for reads and MWS operations."""

    def __init__(
        self,
        error_model: ErrorModel,
        *,
        rng: np.random.Generator | None = None,
        inject_errors: bool = True,
    ) -> None:
        self.error_model = error_model
        self.rng = rng or np.random.default_rng(0)
        self.inject_errors = inject_errors
        # Error-free sensing resolves the read reference from a
        # pristine condition whose only live input is the ESP effort;
        # cache it per effort to keep the per-sense hot path lean.
        self._pristine_read_ref: dict[float, float] = {}
        #: Per-profile operand tensors :meth:`sense_batch_stacks`
        #: concatenated fresh -- the quantity cross-window stack reuse
        #: (:class:`repro.ssd.query_engine.StackCache`) avoids
        #: rebuilding.  Monotonic; consumers read deltas.
        self.restacked_tensors = 0

    # ------------------------------------------------------------------
    # Cell-level conductance
    # ------------------------------------------------------------------

    @staticmethod
    def _rows(wordlines: tuple[int, ...]) -> np.ndarray:
        """Sorted row indices of ``wordlines``, frozen."""
        rows = np.array(sorted(wordlines))
        rows.setflags(write=False)
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
        if not (self.inject_errors or vref_offset or force_vth):
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
        Cached per effort."""
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

    def sense_batch_stacks(
        self,
        plane_array: PlaneArray,
        rows: list[np.ndarray],
        profiles: list[tuple[int, ...]],
    ) -> np.ndarray:
        """Evaluate many resolved MWS operations in one vectorized
        pass over ``plane_array``'s slab: ``rows[i]`` is one sense's
        address rows, target by target, and ``profiles[i]`` its
        per-target wordline counts (both the command's shared half,
        :meth:`~repro.flash.chip.NandFlashChip.resolve`, which also
        materializes every target block).  Returns one packed,
        ones-padded ``uint64`` result row per sense, bit-identical to
        ``inter_block_mws(senses[i], ...).words``.

        Senses are grouped by their *group-size profile*; each group
        gathers its operand rows off the slab with one
        :meth:`~repro.flash.array.PlaneArray.gather` into one 3-D
        tensor and computes every string-group AND and inter-block OR
        of the group with one reduce per segment.  Validation and
        read-disturb accounting are the caller's: the chip's batched
        entry point memoizes resolution per command (revalidated via
        block ``layout_version``), so steady-state windows pay only
        one gather and the reduces per profile.  Only the packed
        error-free plane can batch this way -- error injection and
        VREF offsets evaluate per cell through V_TH -- so an
        error-injecting engine raises rather than silently
        approximating."""
        if self.inject_errors:
            raise RuntimeError(
                "sense_batch_stacks requires the packed error-free "
                "plane; error injection evaluates through V_TH"
            )
        n = len(rows)
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
        n_words = plane_array.slab.shape[1]
        out = np.empty((n, n_words), dtype=np.uint64)
        self.restacked_tensors += len(groups)
        for profile, members in groups.items():
            total_rows = sum(profile)
            # Every operand row is copied exactly once: gathered off
            # the slab straight into the group tensor.
            tensor = plane_array.gather(
                rows[members[0]]
                if len(members) == 1
                else np.concatenate([rows[i] for i in members])
            ).reshape(len(members), total_rows, n_words)
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
