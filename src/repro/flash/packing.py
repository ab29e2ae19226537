"""Bit-packed page representation: 64 logical bits per machine word.

The functional data plane of the simulator stores page bits packed
into ``uint64`` words so that bulk bitwise operations -- the whole
point of Flash-Cosmos -- evaluate at machine-word width instead of one
byte per bit (the same trick Buddy-RAM-style simulators use for
in-DRAM bulk bitwise execution).

Conventions shared by every packed consumer:

* Bit ``i`` of a page lives at bit position ``i % 64`` of word
  ``i // 64`` (``np.packbits(..., bitorder="little")`` layout viewed
  through the platform's native ``uint64``).  Pack and unpack use the
  same view, so the representation is self-consistent on any host.
* Pages whose bit count is not a multiple of 64 carry *padding bits*
  in their last word.  Packed **stored pages are padded with ones**
  (the erased state), which makes padding an identity for the AND
  conduction reduce and keeps the S-latch all-ones freshness check
  equivalent to the unpacked protocol.  ``unpack_words`` always
  truncates to the true bit count, so padding never escapes.
"""

from __future__ import annotations

import numpy as np

#: Logical bits per packed word.
WORD_BITS = 64

#: A word with every bit set (the erased / AND-identity pattern).
FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: ``n_bits -> uint64 mask with ones at the padding bit positions``.
_PAD_MASKS: dict[int, np.ndarray] = {}


def as_bits(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` as a 0/1 ``uint8`` array, checked *before* the cast
    (a cast would wrap 256 to 0 and truncate 0.5 to 0, and packing
    turns any nonzero byte into 1).  Raises ``ValueError`` naming
    ``label``.  A ``uint8`` input costs one ``max()``."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        ok = arr.size == 0 or arr.max() <= 1
    else:
        ok = arr.dtype == np.bool_ or bool(((arr == 0) | (arr == 1)).all())
    if not ok:
        raise ValueError(f"{label} must be 0/1 bits")
    return arr.astype(np.uint8, copy=False)


def words_per_page(n_bits: int) -> int:
    """Packed words needed for a page of ``n_bits`` bits."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    return -(-n_bits // WORD_BITS)


def pad_mask(n_bits: int) -> np.ndarray:
    """Word array with ones exactly at the padding bit positions.

    The returned array is a shared cache entry -- callers must not
    mutate it.
    """
    cached = _PAD_MASKS.get(n_bits)
    if cached is None:
        n_words = words_per_page(n_bits)
        bits = np.ones(n_words * WORD_BITS, dtype=np.uint8)
        bits[:n_bits] = 0
        cached = np.packbits(bits, bitorder="little").view(np.uint64)
        cached.setflags(write=False)
        _PAD_MASKS[n_bits] = cached
    return cached


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a 2-D array of 0/1 page rows into ``uint64`` words.

    Padding bits (positions past ``rows.shape[1]``) are set to one,
    per the module convention.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("pack_rows expects a 2-D (rows, bits) array")
    n_rows, n_bits = rows.shape
    n_words = words_per_page(n_bits)
    if n_bits == n_words * WORD_BITS:
        padded = rows
    else:
        padded = np.ones((n_rows, n_words * WORD_BITS), dtype=np.uint8)
        padded[:, :n_bits] = rows
    return np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack one 0/1 page (1-D) into ``uint64`` words (ones-padded)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("pack_bits expects a 1-D bit array")
    return pack_rows(bits[np.newaxis, :])[0]


def unpack_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack a 2-D array of packed rows back to 0/1 ``uint8`` pages,
    truncating padding."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("unpack_rows expects a 2-D (rows, words) array")
    if words.shape[1] != words_per_page(n_bits):
        raise ValueError(
            f"packed page must have {words_per_page(n_bits)} words for "
            f"{n_bits} bits, got {words.shape[1]}"
        )
    flat = np.unpackbits(
        words.view(np.uint8), axis=-1, bitorder="little"
    )
    return flat[:, :n_bits]


def unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack one packed page (1-D words) to a 0/1 ``uint8`` array."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 1:
        raise ValueError("unpack_words expects a 1-D word array")
    return unpack_rows(words[np.newaxis, :], n_bits)[0]


def invert_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Bitwise complement of a packed page, restoring ones-padding."""
    return np.bitwise_not(words) | pad_mask(n_bits)


def ensure_padding(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Return ``words`` with padding bits forced to one (new array
    only when padding exists)."""
    mask = pad_mask(n_bits)
    if not mask.any():
        return words
    return words | mask


def parity_words(rows: np.ndarray, n_bits: int) -> np.ndarray:
    """Word-wise XOR of packed page rows (RAID-5 parity), ones-padded.

    One bulk XOR over the packed plane -- the exact primitive
    Flash-Cosmos computes in-flash -- so parity generation at ingest
    and reconstruction of a lost row (XOR of the survivors + parity)
    both ride the uint64 word pipeline.  XOR of the rows' one-padding
    flips with row count, so the result's padding is re-forced to the
    stored-page convention; data bits below ``n_bits`` are exact.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("parity_words expects a non-empty 2-D row array")
    return ensure_padding(np.bitwise_xor.reduce(rows, axis=0), n_bits)
