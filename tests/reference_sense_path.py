"""Reference oracles for the fresh-plan sensing path.

The bodies below are ``SensingEngine.sense_batch_stacks``
(``repro.flash.sensing``) and ``LatchBank.capture_batch``
(``repro.flash.latches``) exactly as they stood before the
single-gather kernel and the copy-not-fill latch replay replaced them
-- kept verbatim but for the one-byte-per-bit branches the bank no
longer has, test-only, as functions of the engine / bank they used to
be methods of (``self`` is that object).  The equivalence
suite (``tests/flash/test_sense_path_equivalence.py``) compares the
production code against them with ``==`` on every output word, every
landed latch word, every counter and every exception.  They are
deliberately obvious -- a fancy-index copy per source then a
concatenate; fill then AND, zero then OR.  Do not optimise them.
"""

from __future__ import annotations

import numpy as np

from repro.flash.latches import LatchStateError
from repro.flash.packing import FULL_WORD, words_per_page


def sense_batch_stacks(
    self,
    sources: list[tuple],
    profiles: list[tuple[int, ...]],
) -> np.ndarray:
    """:meth:`sense_batch` minus validation: ``sources[i]`` is one
    sense's resolved ``(block, row indices)`` pairs and
    ``profiles[i]`` its per-block wordline counts
    (:meth:`resolve_sense`).  The chip's batched entry point
    memoizes resolution per command (revalidated via block
    ``layout_version``) and calls this directly, so steady-state
    windows pay only the row gathers and the per-profile tensor
    reduces."""
    if self.inject_errors:
        raise RuntimeError(
            "sense_batch requires the packed error-free plane; "
            "error injection evaluates per sense"
        )
    n = len(sources)
    if n == 0:
        raise ValueError("sense_batch requires at least one sense")
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
        tensor = np.concatenate(
            [
                block.packed_rows(rows)
                for i in members
                for block, rows in sources[i]
            ],
            axis=0,
        ).reshape(len(members), total_rows, n_words)
        if len(profile) == 1:
            # Pure intra-block AND (one string group per sense).
            result = np.bitwise_and.reduce(tensor, axis=1)
        elif total_rows == len(profile):
            # One wordline per block: plain inter-block OR.
            result = np.bitwise_or.reduce(tensor, axis=1)
        else:
            # General OR-of-ANDs (Equation 1): AND each group
            # segment, OR the segment results.
            result = None
            lo = 0
            for size in profile:
                segment = (
                    tensor[:, lo]
                    if size == 1
                    else np.bitwise_and.reduce(
                        tensor[:, lo : lo + size], axis=1
                    )
                )
                result = (
                    segment if result is None else result | segment
                )
                lo += size
        out[np.asarray(members)] = result
    return out


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
    sense step -- the rows :meth:`SensingEngine.sense_batch`
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

    Protocol violations raise :class:`LatchStateError` with the
    scalar path's messages.  One deliberate tightening: inverse
    capture demands a *freshly initialized* S-latch in every lane;
    the scalar path accepts an S-latch whose data merely happens
    to be all ones, a coincidence no planner-generated sequence
    relies on.
    """
    matrices = list(sensed)
    shape = (matrices[0].shape[0] if matrices else 0, self._n_words)
    sense: np.ndarray | None = None
    cache: np.ndarray | None = None
    sense_fresh = False
    next_matrix = 0
    for step in steps:
        if step is None:  # the latch XOR command
            if sense is None or cache is None:
                raise LatchStateError(
                    "XOR requires both latches to hold data"
                )
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
                cache = np.zeros(shape, dtype=np.uint64)
            else:
                cache.fill(0)
        if step.init_sense:
            if sense is None:
                sense = np.empty(shape, dtype=np.uint64)
            sense.fill(FULL_WORD)
            sense_fresh = True
        if step.inverse:
            if sense is None or not sense_fresh:
                raise LatchStateError(
                    "inverse sensing requires a freshly initialized "
                    "S-latch"
                )
            np.bitwise_not(data, out=sense)
            sense |= self._pad
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
            cache |= sense
    if cache is None:
        raise LatchStateError("C-latch holds no data")
    if land_lane is not None:
        self.ops += 1
        np.copyto(self._cache_buf, cache[land_lane])
        self._cache = self._cache_buf
        if sense is not None:
            np.copyto(self._sense_buf, sense[land_lane])
            self._sense = self._sense_buf
    return cache | self._pad
