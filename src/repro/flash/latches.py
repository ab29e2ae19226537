"""Per-plane latch circuitry: sensing latch, cache latch, XOR logic.

Models the latch behaviour of Figures 3, 4 and 6 at the logical level:

* The *sensing latch* (S-latch) captures the evaluation result.  If it
  is **not** re-initialized before a sense, newly sensed data N leaves
  ``OUTS = N AND OUTS`` -- ParaBit's AND accumulation (Figure 6(b)).
* The *cache latch* (C-latch) receives S-latch data when M3 is
  enabled; latching N onto existing data leaves ``OUTL = N OR OUTL``
  -- ParaBit's OR accumulation (Figure 6(c)).
* An *inverse sense* stores the complement of the evaluation (Figure
  4).  It requires S-latch initialization first, so inverse sensing
  cannot AND-accumulate (paper Figure 16 caption).
* Modern chips provide XOR between latches (Section 6.1), used for
  on-chip randomization and test, which Flash-Cosmos reuses for
  bitwise XOR/XNOR.

In the default *packed* mode both latches hold pages as ``uint64``
words (64 bits per element), so ParaBit AND/OR accumulation, the
transfer OR-merge, and the XOR command are single word-wide in-place
operations on persistent buffers -- no per-byte arrays and no
allocation on the steady-state sense path.  ``packed=False`` keeps the
original one-byte-per-bit storage for equivalence testing.

:meth:`LatchBank.capture_batch` additionally replays the *whole latch
protocol of many independent command sequences at once*: plans that
share an ISCM step signature evolve their S/C latches as 2-D
``(lanes, words)`` matrices, so inverse capture, ParaBit AND/OR
accumulation, transfer merges, and latch XOR land word-wide for every
lane in one NumPy call per step instead of one call per sense.  The
batched executor (:class:`repro.core.mws.MwsExecutor`) is its only
intended caller; the scalar protocol stays the reference semantics.
"""

from __future__ import annotations

import numpy as np

from repro.flash.packing import (
    FULL_WORD,
    pack_bits,
    pad_mask,
    unpack_words,
    words_per_page,
)


class LatchStateError(RuntimeError):
    """Raised when a latch operation violates the circuit's protocol."""


class LatchBank:
    """Logical state of one plane's latch circuitry."""

    def __init__(self, page_bits: int, *, packed: bool = True) -> None:
        if page_bits < 1:
            raise ValueError("page_bits must be >= 1")
        self.page_bits = page_bits
        self.packed = packed
        #: Monotonic mutation counter: every operation that changes the
        #: bank's persistent S/C state bumps it.  The batched executor's
        #: window-replay memo compares recorded marks against it to
        #: prove "nothing touched this plane since" without content
        #: comparison (the persistent buffers keep their identity across
        #: operations, so object identity cannot tell).
        self.ops = 0
        self._sense: np.ndarray | None = None
        self._cache: np.ndarray | None = None
        if packed:
            self._n_words = words_per_page(page_bits)
            self._pad = pad_mask(page_bits)
            # Persistent latch buffers: initialization refills them in
            # place instead of allocating fresh arrays per sense.
            self._sense_buf = np.empty(self._n_words, dtype=np.uint64)
            self._cache_buf = np.empty(self._n_words, dtype=np.uint64)
        else:
            self._sense_buf = np.empty(page_bits, dtype=np.uint8)
            self._cache_buf = np.empty(page_bits, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Initialization (ISCM flags)
    # ------------------------------------------------------------------

    def init_sense(self) -> None:
        """Initialize the S-latch (activating M1: all ones, so that a
        subsequent AND-accumulating sense is an identity)."""
        self.ops += 1
        self._sense_buf.fill(FULL_WORD if self.packed else 1)
        self._sense = self._sense_buf

    def init_cache(self) -> None:
        """Initialize the C-latch (activating M4: all zeros, so that a
        subsequent OR-merge transfer is an identity)."""
        self.ops += 1
        self._cache_buf.fill(0)
        self._cache = self._cache_buf

    # ------------------------------------------------------------------
    # Sensing and transfer
    # ------------------------------------------------------------------

    def capture(self, sensed: np.ndarray, *, inverse: bool = False) -> None:
        """Latch an evaluation result into the S-latch.

        ``sensed`` may be a packed ``uint64`` word array or an
        unpacked 0/1 page.  With the S-latch initialized this stores
        the result (or its complement for an inverse sense).  Without
        initialization the circuit AND-accumulates; inverse sensing in
        that state is not electrically meaningful and raises.
        """
        data = self._coerce(sensed)
        self.ops += 1
        if inverse:
            if self._sense is None or not self._sense_is_fresh():
                raise LatchStateError(
                    "inverse sensing requires a freshly initialized S-latch"
                )
            if self.packed:
                np.bitwise_not(data, out=self._sense)
                self._sense |= self._pad
            else:
                np.subtract(1, data, out=self._sense)
            return
        if self._sense is None:
            raise LatchStateError("S-latch used before initialization")
        self._sense &= data

    def transfer_to_cache(self) -> None:
        """Move S-latch data to the C-latch (enable M3): OR-merge onto
        whatever the C-latch holds."""
        if self._sense is None:
            raise LatchStateError("transfer with empty S-latch")
        if self._cache is None:
            raise LatchStateError("transfer with uninitialized C-latch")
        self.ops += 1
        self._cache |= self._sense

    def xor_into_cache(self) -> None:
        """C-latch := S-latch XOR C-latch (the on-chip XOR feature)."""
        if self._sense is None or self._cache is None:
            raise LatchStateError("XOR requires both latches to hold data")
        self.ops += 1
        self._cache ^= self._sense

    def capture_batch(
        self,
        steps,
        sensed: list[np.ndarray],
        *,
        land_lane: int | None = None,
    ) -> np.ndarray:
        """Replay the latch protocol of many independent plans at once.

        ``steps`` is the *uniform* per-plan step sequence: each element
        is either an ISCM flag object (a sense step, duck-typed with
        ``inverse``/``init_sense``/``init_cache``/``transfer``
        attributes, so :class:`repro.flash.chip.IscmFlags` fits without
        an import cycle) or ``None`` for the latch XOR command.
        ``sensed`` holds one packed ``(n_lanes, n_words)`` matrix per
        sense step -- the rows the chip's batched sense
        (:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch`)
        produced for every lane's sense at that step.  Lanes are
        independent: lane ``k`` evolves exactly as if its commands had
        driven the scalar protocol (init cache, init sense, capture,
        transfer -- the chip's ISCM ordering) on a private bank.

        Returns the final C-latch contents of every lane as
        ones-padded packed words.  With ``land_lane`` set, that lane's
        final S/C state is copied into this bank's persistent buffers,
        leaving the bank exactly as if the lane's plan had executed
        through the scalar path most recently (the batched executor
        lands the queue's last plan per plane).

        On an unpacked bank the same replay runs over ``(n_lanes,
        page_bits)`` 0/1 byte matrices (the batched V_TH error plane's
        representation); semantics are step-for-step identical.

        Protocol violations raise :class:`LatchStateError` with the
        scalar path's messages.  One deliberate tightening: inverse
        capture demands a *freshly initialized* S-latch in every lane;
        the scalar path accepts an S-latch whose data merely happens
        to be all ones, a coincidence no planner-generated sequence
        relies on.
        """
        packed = self.packed
        matrices = list(sensed)
        n_lanes = matrices[0].shape[0] if matrices else 0
        if packed:
            shape = (n_lanes, self._n_words)
            dtype = np.uint64
        else:
            shape = (n_lanes, self.page_bits)
            dtype = np.uint8
        # Initialization is tracked, not written: ``ones AND data`` is
        # ``data`` and ``zeros OR sense`` is ``sense``, so the capture
        # after an S-latch init and the transfer after a C-latch init
        # are plain copies into buffers that were never filled.
        # ``sense_fresh`` lasts from an init to the capture of the
        # same step; ``cache_zeroed`` lasts until something writes the
        # C-latch, and the zeros are materialized only for a reader
        # that would see them (latch XOR, the landing copy, the
        # returned rows).
        sense: np.ndarray | None = None
        cache: np.ndarray | None = None
        sense_fresh = False
        cache_zeroed = False
        next_matrix = 0
        for step in steps:
            if step is None:  # the latch XOR command
                if sense is None or cache is None:
                    raise LatchStateError(
                        "XOR requires both latches to hold data"
                    )
                if cache_zeroed:
                    cache.fill(0)
                    cache_zeroed = False
                cache ^= sense
                continue
            data = matrices[next_matrix]
            next_matrix += 1
            if data.shape != shape:
                raise ValueError(
                    f"batched sense matrix must have shape {shape}, "
                    f"got {data.shape}"
                )
            if step.init_cache:
                if cache is None:
                    cache = np.empty(shape, dtype=dtype)
                cache_zeroed = True
            if step.init_sense:
                if sense is None:
                    sense = np.empty(shape, dtype=dtype)
                sense_fresh = True
            if step.inverse:
                if sense is None or not sense_fresh:
                    raise LatchStateError(
                        "inverse sensing requires a freshly initialized "
                        "S-latch"
                    )
                if packed:
                    np.bitwise_not(data, out=sense)
                    sense |= self._pad
                else:
                    np.subtract(1, data, out=sense)
            elif sense_fresh:
                np.copyto(sense, data)
            else:
                if sense is None:
                    raise LatchStateError(
                        "S-latch used before initialization"
                    )
                sense &= data
            sense_fresh = False
            if step.transfer:
                if cache is None:
                    raise LatchStateError(
                        "transfer with uninitialized C-latch"
                    )
                if cache_zeroed:
                    np.copyto(cache, sense)
                    cache_zeroed = False
                else:
                    cache |= sense
        if cache is None:
            raise LatchStateError("C-latch holds no data")
        if cache_zeroed:
            cache.fill(0)
        if land_lane is not None:
            self.ops += 1
            np.copyto(self._cache_buf, cache[land_lane])
            self._cache = self._cache_buf
            if sense is not None:
                np.copyto(self._sense_buf, sense[land_lane])
                self._sense = self._sense_buf
        return cache | self._pad if packed else cache

    def _sense_is_fresh(self) -> bool:
        """Whether the S-latch still holds the all-ones init pattern
        (padding bits excluded in packed mode)."""
        if self.packed:
            return bool(((self._sense | self._pad) == FULL_WORD).all())
        return bool(self._sense.all())

    # ------------------------------------------------------------------
    # Reading out
    # ------------------------------------------------------------------

    @property
    def sense_data(self) -> np.ndarray:
        """Unpacked S-latch contents (uint8 0/1 page)."""
        if self._sense is None:
            raise LatchStateError("S-latch holds no data")
        if self.packed:
            return unpack_words(self._sense, self.page_bits)
        return self._sense.copy()

    @property
    def cache_data(self) -> np.ndarray:
        """Unpacked C-latch contents (uint8 0/1 page)."""
        if self._cache is None:
            raise LatchStateError("C-latch holds no data")
        if self.packed:
            return unpack_words(self._cache, self.page_bits)
        return self._cache.copy()

    @property
    def sense_words(self) -> np.ndarray:
        """Packed S-latch contents (uint64 words, ones-padded copy)."""
        if self._sense is None:
            raise LatchStateError("S-latch holds no data")
        if self.packed:
            return self._sense | self._pad
        return pack_bits(self._sense)

    @property
    def cache_words(self) -> np.ndarray:
        """Packed C-latch contents (uint64 words, ones-padded copy)."""
        if self._cache is None:
            raise LatchStateError("C-latch holds no data")
        if self.packed:
            return self._cache | self._pad
        return pack_bits(self._cache)

    def load_cache(self, data: np.ndarray) -> None:
        """Directly load the C-latch (used when the controller writes
        data into the chip for a subsequent XOR).  Accepts packed
        words or an unpacked 0/1 page."""
        self.ops += 1
        np.copyto(self._cache_buf, self._coerce(data))
        self._cache = self._cache_buf

    def _coerce(self, data: np.ndarray) -> np.ndarray:
        """Bring caller data into this bank's native representation."""
        arr = np.asarray(data)
        if arr.dtype == np.uint64:
            if arr.shape != (words_per_page(self.page_bits),):
                raise ValueError(
                    f"packed latch page must have "
                    f"{words_per_page(self.page_bits)} words, got {arr.shape}"
                )
            if self.packed:
                return arr
            return unpack_words(arr, self.page_bits)
        checked = self._check_page(arr)
        if self.packed:
            return pack_bits(checked)
        return checked

    def _check_page(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data, dtype=np.uint8)
        if arr.shape != (self.page_bits,):
            raise ValueError(
                f"latch page must have {self.page_bits} bits, got {arr.shape}"
            )
        # uint8 cannot be negative, so a single max() comparison is the
        # full 0/1 domain check (this runs once per sense -- hot path).
        if arr.size and int(arr.max()) > 1:
            raise ValueError("latch data must be 0/1 bits")
        return arr
