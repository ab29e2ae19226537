"""Cell-array storage: packed logical bits plus V_TH state of blocks.

``BlockArray`` models one sub-block (the paper's "block") with two
representations of its cells:

* the **functional plane** -- every wordline's logical bits packed 64
  per ``uint64`` word (:mod:`repro.flash.packing`).  This is the
  ground truth the error-free sensing fast path computes on, at 1/8
  byte per cell;
* the **error plane** -- a float32 threshold-voltage matrix the error
  model perturbs at sense time.  With ``noise_enabled`` it is eagerly
  materialized and programmed through ISPP exactly as before; for
  idealized (noise-free) blocks it is *lazily* materialized with
  mean-valued distributions only when something actually asks for it
  (read-retry offsets, V_TH introspection).

``PlaneArray`` lazily materializes blocks so a realistically sized
plane (2,048 blocks) costs memory only for the blocks a test touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.calibration import DEFAULT_CALIBRATION, FlashCalibration
from repro.flash.geometry import BlockAddress, ChipGeometry
from repro.flash.ispp import IsppEngine, ProgramMode, ProgramResult
from repro.flash.packing import (
    FULL_WORD,
    pack_bits,
    unpack_rows,
    unpack_words,
    words_per_page,
)


@dataclass
class WordlineMetadata:
    """Firmware-visible metadata for one programmed wordline.

    ``randomizer_page_index`` records which page's keystream encoded
    the stored data; copyback moves raw cells without re-randomizing,
    so the destination keeps the source's keystream index.
    """

    mode: ProgramMode = ProgramMode.SLC
    esp_extra: float = 0.0
    randomized: bool = True
    programmed: bool = False
    randomizer_page_index: int | None = None


class BlockArray:
    """Logical-bit and V_TH state of one sub-block.

    Attributes
    ----------
    vth:
        float32 array of shape (wordlines, bitlines): the pristine
        as-programmed threshold voltages.  Stress-induced drift is
        applied at *sense* time by the error model so that conditions
        compose without mutating stored state.  For noise-free blocks
        the matrix is materialized lazily with idealized (mean-valued)
        distributions.
    written:
        uint8 array of the same shape: the ground-truth bits handed to
        ``program`` (after randomization, i.e. what the cells encode).
        Derived on access from the packed functional plane.
    """

    def __init__(
        self,
        geometry: ChipGeometry,
        address: BlockAddress,
        *,
        calibration: FlashCalibration | None = None,
        rng: np.random.Generator | None = None,
        noise_enabled: bool = True,
    ) -> None:
        address.validate(geometry)
        self.geometry = geometry
        self.address = address
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.rng = rng or np.random.default_rng(0)
        #: When False the block is an idealized, noise-free array:
        #: post-program relaxation is skipped (paired with disabling
        #: sense-time error injection) and the V_TH plane stays
        #: unmaterialized unless explicitly asked for.
        self.noise_enabled = noise_enabled
        self.pe_cycles = 0
        #: Lifetime program count (wear-plane bookkeeping; unlike
        #: ``pe_cycles`` this is never reset and counts every page
        #: program, including GC copyback destinations).
        self.programs = 0
        self.reads_since_erase = 0
        self.sigma_multiplier = 1.0
        #: Bumped on every program/erase; consumers that memoize
        #: per-wordline metadata scans (the chip's batched-sense
        #: resolution cache) revalidate when it moves.
        self.layout_version = 0
        n_wl = geometry.wordlines_per_string
        n_bl = geometry.page_size_bits
        self._n_words = words_per_page(n_bl)
        #: Packed functional plane: one row of uint64 words per
        #: wordline, padding bits held at one (the erased state).
        self._packed = np.empty((n_wl, self._n_words), dtype=np.uint64)
        self._vth: np.ndarray | None = None
        #: MLC state indices / MSB pages, allocated on first MLC
        #: program (the functional hot path never touches them).
        self._mlc_states: np.ndarray | None = None
        self._mlc_msb: np.ndarray | None = None
        self.metadata = [WordlineMetadata() for _ in range(n_wl)]
        self._ispp = IsppEngine(self.calibration)
        self._fill_erased()

    # ------------------------------------------------------------------
    # Erase / program
    # ------------------------------------------------------------------

    def _fill_erased(self) -> None:
        self._packed[:] = FULL_WORD
        if self.noise_enabled:
            c = self.calibration.slc
            if self._vth is None:
                self._vth = np.empty(
                    (
                        self.geometry.wordlines_per_string,
                        self.geometry.page_size_bits,
                    ),
                    dtype=np.float32,
                )
            shape = self._vth.shape
            self._vth[:] = (
                c.erased_mean
                + c.erased_sigma
                * self.rng.standard_normal(shape).astype(np.float32)
            )
        else:
            self._vth = None
        if self._mlc_states is not None:
            self._mlc_states[:] = 0
            self._mlc_msb[:] = 1
        for meta in self.metadata:
            meta.programmed = False
            meta.mode = ProgramMode.SLC
            meta.esp_extra = 0.0
            meta.randomized = True
            meta.randomizer_page_index = None

    def erase(self) -> None:
        """Erase the whole sub-block, incrementing its P/E count."""
        self.pe_cycles += 1
        self.reads_since_erase = 0
        self.layout_version += 1
        self._fill_erased()

    def program(
        self,
        wordline: int,
        data_bits: np.ndarray,
        *,
        mode: ProgramMode = ProgramMode.SLC,
        esp_extra: float = 0.0,
        randomized: bool = True,
    ) -> ProgramResult:
        """Program one wordline with ``data_bits`` (1 = erased, 0 =
        programmed).  ``data_bits`` may be an unpacked 0/1 page or an
        already-packed ``uint64`` word row (the SSD ingest path packs
        once and hands words all the way down).  Only SLC-family modes
        are functionally simulated; MLC/TLC pages exist for
        capacity/latency accounting and raise here to catch accidental
        functional use."""
        if mode in (ProgramMode.MLC, ProgramMode.TLC):
            raise NotImplementedError(
                "functional programming is modeled for SLC/ESP only; "
                "MLC/TLC are used for latency/capacity accounting"
            )
        meta = self.metadata[wordline]
        if meta.programmed:
            raise ValueError(
                f"wordline {wordline} already programmed; erase the block first"
            )
        data = np.asarray(data_bits)
        n_bl = self.geometry.page_size_bits
        if data.dtype == np.uint64:
            if data.shape != (self._n_words,):
                raise ValueError(
                    f"packed page must have {self._n_words} words, "
                    f"got shape {data.shape}"
                )
            packed_row = data
            bits = unpack_words(data, n_bl) if self.noise_enabled else None
        else:
            bits = np.asarray(data_bits, dtype=np.uint8)
            if bits.shape != (n_bl,):
                raise ValueError(
                    f"page must have {n_bl} bits, got shape {bits.shape}"
                )
            packed_row = pack_bits(bits)
        extra = esp_extra if mode is ProgramMode.ESP else 0.0
        if self.noise_enabled:
            result = self._ispp.program_slc(
                self._vth[wordline],
                bits,
                self.rng,
                esp_extra=extra,
                apply_relaxation=True,
            )
        else:
            # Idealized block: the functional plane is the packed row;
            # discard any lazily materialized V_TH so a later access
            # rebuilds it consistently.
            self._vth = None
            result = ProgramResult(
                pulses=0,
                latency_us=self._ispp.program_latency_us(mode, extra),
                failed_cells=0,
            )
        self._packed[wordline] = packed_row
        meta.programmed = True
        meta.mode = mode
        meta.esp_extra = extra
        meta.randomized = randomized
        self.programs += 1
        self.layout_version += 1
        return result

    def program_mlc(
        self,
        wordline: int,
        lsb_bits: np.ndarray,
        msb_bits: np.ndarray,
        *,
        randomized: bool = True,
    ) -> None:
        """Program one wordline in MLC mode (two logical pages).

        Gray coding per Figure 5(b): (MSB, LSB) = E:11, P1:01, P2:00,
        P3:10.  The LSB page alone is recoverable with a single read
        at VREF2, which is why Flash-Cosmos can operate on MLC LSB
        pages (Section 9, footnote 15).
        """
        meta = self.metadata[wordline]
        if meta.programmed:
            raise ValueError(
                f"wordline {wordline} already programmed; erase the block first"
            )
        lsb = np.asarray(lsb_bits, dtype=np.uint8)
        msb = np.asarray(msb_bits, dtype=np.uint8)
        expected = (self.geometry.page_size_bits,)
        if lsb.shape != expected or msb.shape != expected:
            raise ValueError(
                f"MLC pages must have {self.geometry.page_size_bits} bits"
            )
        if self._mlc_states is None:
            shape = (
                self.geometry.wordlines_per_string,
                self.geometry.page_size_bits,
            )
            self._mlc_states = np.zeros(shape, dtype=np.uint8)
            self._mlc_msb = np.ones(shape, dtype=np.uint8)
        # (msb, lsb) -> state: 11->E(0), 01->P1(1), 00->P2(2), 10->P3(3).
        states = np.select(
            [
                (msb == 1) & (lsb == 1),
                (msb == 0) & (lsb == 1),
                (msb == 0) & (lsb == 0),
            ],
            [0, 1, 2],
            default=3,
        ).astype(np.uint8)
        from repro.flash.errors import ErrorModel

        window = ErrorModel(self.calibration).mlc_window()
        vth = np.empty(states.shape, dtype=np.float32)
        for index, level in enumerate(window.levels):
            mask = states == index
            vth[mask] = level.mean + level.sigma * self.rng.standard_normal(
                int(mask.sum())
            ).astype(np.float32)
        self._mlc_states[wordline] = states
        self._mlc_msb[wordline] = msb
        self._packed[wordline] = pack_bits(lsb)
        meta.programmed = True
        meta.mode = ProgramMode.MLC
        meta.esp_extra = 0.0
        meta.randomized = randomized
        self.programs += 1
        self.layout_version += 1
        # Write the V_TH row last: for noise-free blocks the property
        # access materializes the idealized plane first.
        self.vth[wordline] = vth

    # ------------------------------------------------------------------
    # Error plane (V_TH)
    # ------------------------------------------------------------------

    @property
    def vth(self) -> np.ndarray:
        """The V_TH error plane; materialized on first use for
        noise-free blocks."""
        if self._vth is None:
            self._vth = self._idealized_vth()
        return self._vth

    def _idealized_vth(self) -> np.ndarray:
        """Mean-valued V_TH matrix consistent with the packed
        functional plane of a noise-free block: erased cells at the
        erased mean, programmed cells at the (mode, ESP-effort) target
        mean, MLC cells at their state-level means."""
        c = self.calibration.slc
        vth = np.full(
            (
                self.geometry.wordlines_per_string,
                self.geometry.page_size_bits,
            ),
            c.erased_mean,
            dtype=np.float32,
        )
        mlc_means: np.ndarray | None = None
        for wl, meta in enumerate(self.metadata):
            if not meta.programmed:
                continue
            if meta.mode is ProgramMode.MLC:
                if mlc_means is None:
                    from repro.flash.errors import ErrorModel

                    window = ErrorModel(self.calibration).mlc_window()
                    mlc_means = np.array(
                        [level.mean for level in window.levels],
                        dtype=np.float32,
                    )
                vth[wl] = mlc_means[self._mlc_states[wl]]
            else:
                target = (
                    c.programmed_mean
                    + c.esp_target_raise * meta.esp_extra**c.esp_gamma
                )
                row = vth[wl]
                row[unpack_words(self._packed[wl], row.size) == 0] = target
        return vth

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def written(self) -> np.ndarray:
        """Ground-truth bits of every wordline (unpacked view of the
        functional plane; a fresh array, safe to mutate)."""
        return unpack_rows(self._packed, self.geometry.page_size_bits)

    def packed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Packed word rows of the selected wordlines (the error-free
        sensing fast path operates directly on these)."""
        return self._packed[rows]

    def gather_packed_rows(self, rows: np.ndarray, out: np.ndarray) -> None:
        """:meth:`packed_rows` copied straight into ``out`` (the
        batched sensing kernel's slot of a group tensor).  ``rows``
        must already be valid wordline indices -- resolving a sense
        (:meth:`SensingEngine.resolve_sense`) rejects any other --
        because the gather indexes in ``wrap`` mode: NumPy's default
        ``raise`` mode fills a temporary first and copies it over,
        which is the second copy this method exists to avoid."""
        np.take(self._packed, rows, axis=0, out=out, mode="wrap")

    def stored_rows(self, rows: np.ndarray) -> np.ndarray:
        """Unpacked 0/1 pages of the selected wordlines."""
        return unpack_rows(
            self._packed[rows], self.geometry.page_size_bits
        )

    def programmed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean programmed-cell mask of the selected wordlines."""
        return self.stored_rows(rows) == 0

    def stored_bits(self, wordline: int) -> np.ndarray:
        """Ground-truth bits of a wordline (LSB page for MLC)."""
        return unpack_words(
            self._packed[wordline], self.geometry.page_size_bits
        )

    def stored_msb_bits(self, wordline: int) -> np.ndarray:
        """Ground-truth MSB page of an MLC wordline (copy)."""
        if self.metadata[wordline].mode is not ProgramMode.MLC:
            raise ValueError("wordline is not MLC-programmed")
        return self._mlc_msb[wordline].copy()

    def mlc_states(self, rows: np.ndarray) -> np.ndarray:
        """Per-cell MLC state indices for the given wordline rows."""
        if self._mlc_states is None:
            return np.zeros(
                (len(rows), self.geometry.page_size_bits), dtype=np.uint8
            )
        return self._mlc_states[rows]

    def programmed_mask(self) -> np.ndarray:
        """Boolean mask of cells in the programmed state."""
        return self.written == 0

    def resident_bytes(self) -> int:
        """Bytes currently held by this block's cell-state arrays
        (functional plane + whichever error-plane arrays are
        materialized)."""
        total = self._packed.nbytes
        for arr in (self._vth, self._mlc_states, self._mlc_msb):
            if arr is not None:
                total += arr.nbytes
        return total

    def wordline_esp_extra(self, wordline: int) -> float:
        return self.metadata[wordline].esp_extra

    def note_read(self, count: int = 1) -> None:
        self.reads_since_erase += count


@dataclass
class PlaneArray:
    """Lazy map from block address to materialized :class:`BlockArray`."""

    geometry: ChipGeometry
    calibration: FlashCalibration = field(default_factory=lambda: DEFAULT_CALIBRATION)
    seed: int = 0
    noise_enabled: bool = True
    _blocks: dict[BlockAddress, BlockArray] = field(default_factory=dict)

    def block(self, address: BlockAddress) -> BlockArray:
        address.validate(self.geometry)
        if address not in self._blocks:
            # Derive a per-block RNG stream so block contents are
            # reproducible regardless of materialization order.
            key = (
                self.seed,
                address.plane,
                address.block,
                address.subblock,
            )
            rng = np.random.default_rng(abs(hash(key)) % (2**63))
            self._blocks[address] = BlockArray(
                self.geometry,
                address,
                calibration=self.calibration,
                rng=rng,
                noise_enabled=self.noise_enabled,
            )
        return self._blocks[address]

    def materialized(self) -> tuple[BlockAddress, ...]:
        return tuple(sorted(self._blocks))

    def content_version(self) -> tuple[int, int]:
        """Aggregate content stamp of every materialized block.

        Returns ``(n_blocks, sum of block layout_versions)``.  Both
        components are monotonic -- blocks are only ever added, and
        each block's ``layout_version`` only ever grows (bumped on
        every program/erase) -- so any mutation anywhere in the plane
        strictly changes the stamp.  Caches of *sensed data* (the
        query engine's cross-window :class:`ResultCache`) compare this
        stamp to detect that cell contents may have moved underneath
        them; it is the plane-level face of the per-block
        ``layout_version`` contract that the chip's batch gather cache
        already revalidates against.
        """
        return (
            len(self._blocks),
            sum(block.layout_version for block in self._blocks.values()),
        )

    def __contains__(self, address: BlockAddress) -> bool:
        return address in self._blocks
