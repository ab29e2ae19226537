"""Page-level ECC: interleaved BCH codewords over a flash page.

SSD controllers do not protect a 16-KiB page with one giant codeword;
they split it into interleaved codewords sized to the correction
budget (Section 2.2).  ``PageCodec`` provides that layer: encode a
logical page into a (data + parity) flash page, decode with per-
codeword correction, and report uncorrectable sectors -- the
validator that read-retry loops consult.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.bch import BchCode


@dataclass(frozen=True)
class PageDecodeResult:
    data_bits: np.ndarray
    corrected_bits: int
    failed_codewords: int

    @property
    def ok(self) -> bool:
        return self.failed_codewords == 0


class PageCodec:
    """Splits pages into interleaved BCH codewords.

    ``logical_bits`` of user data become ``physical_bits`` of stored
    page (data plus parity); both derive from the codeword count.

    The interleave runs word-wide: the codewords become ``uint64``
    lanes and encode/syndrome work is a handful of masked XOR reduces
    (:meth:`BchCode.encode_batch` / :meth:`BchCode.decode_batch`),
    with only syndrome-dirty lanes falling back to the scalar decoder.
    The per-codeword loop over :meth:`BchCode.encode` /
    :meth:`BchCode.decode` is its test oracle (bit-identical results,
    identical failure accounting).
    """

    def __init__(self, code: BchCode, n_codewords: int) -> None:
        if n_codewords < 1:
            raise ValueError("n_codewords must be >= 1")
        self.code = code
        self.n_codewords = n_codewords

    @property
    def logical_bits(self) -> int:
        return self.code.k * self.n_codewords

    @property
    def physical_bits(self) -> int:
        return self.code.n * self.n_codewords

    @property
    def correctable_bits_per_page(self) -> int:
        return self.code.t * self.n_codewords

    def encode_page(self, data_bits: np.ndarray) -> np.ndarray:
        data = np.asarray(data_bits, dtype=np.uint8)
        if data.shape != (self.logical_bits,):
            raise ValueError(
                f"page payload must have {self.logical_bits} bits, "
                f"got {data.shape}"
            )
        # Interleave: codeword j takes data lanes j, j+N, j+2N, ... so
        # a burst of physical errors spreads across codewords.
        chunks = data.reshape(self.code.k, self.n_codewords)
        return self.code.encode_batch(chunks).reshape(-1)

    def decode_page(self, stored_bits: np.ndarray) -> PageDecodeResult:
        stored = np.asarray(stored_bits, dtype=np.uint8)
        if stored.shape != (self.physical_bits,):
            raise ValueError(
                f"stored page must have {self.physical_bits} bits, "
                f"got {stored.shape}"
            )
        words = stored.reshape(self.code.n, self.n_codewords)
        # A lane the decoder gives up on passes its systematic bits
        # through (best effort) and counts as failed.
        data, corrected_per_lane, failed_lanes = self.code.decode_batch(words)
        return PageDecodeResult(
            data_bits=data.reshape(-1),
            corrected_bits=int(corrected_per_lane.sum()),
            failed_codewords=int(failed_lanes.sum()),
        )
