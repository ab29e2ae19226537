"""Binary BCH encoder.

A binary BCH(n, k, t) code over GF(2^m) with n = 2^m - 1 corrects up
to t bit errors per codeword.  SSD controllers protect each page with
many interleaved BCH codewords (LDPC in newer drives; Section 2.2).

Encoding is systematic polynomial division by the generator.  That is
all the reproduction needs: Section 3.2's argument is that the AND/OR
of two stored codewords is not the codeword of the AND/OR of their
data, so the controller's ECC cannot repair an in-flash result and ESP
must keep the operands error-free.  ``tests/ecc`` and
``examples/reliability_study.py`` show it with :meth:`BchCode.encode`
alone.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro.ecc.gf import GaloisField
from repro.flash.packing import as_bits


class BchCode:
    """Systematic binary BCH code.

    Parameters
    ----------
    m:
        Field degree; the codeword length is n = 2^m - 1.
    t:
        Correction capability in bits per codeword.
    """

    def __init__(self, m: int, t: int) -> None:
        # True would build a t=1 code, 2.5 fail deep inside NumPy.
        if type(t) is not int or t < 1:
            raise ValueError(f"t must be an int >= 1, not {t!r}")
        self.field = GaloisField(m)
        self.n = self.field.order
        self.t = t
        self.generator = self._build_generator()
        self.n_parity = len(self.generator) - 1
        self.k = self.n - self.n_parity
        if self.k <= 0:
            raise ValueError(
                f"BCH(m={m}, t={t}) leaves no data bits (parity={self.n_parity})"
            )

    def _build_generator(self) -> list[int]:
        """g(x) = lcm of minimal polynomials of alpha^1..alpha^2t."""
        field = self.field
        seen_polys: list[tuple[int, ...]] = []
        for i in range(1, 2 * self.t + 1):
            poly = tuple(field.minimal_polynomial(field.exp(i)))
            if poly not in seen_polys:
                seen_polys.append(poly)
        product = reduce(
            lambda acc, p: field.poly_mul(acc, list(p)), seen_polys, [1]
        )
        if any(c not in (0, 1) for c in product):
            raise AssertionError("generator polynomial is not binary")
        return product

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode k data bits into an n-bit systematic codeword
        (data first, then parity)."""
        data = self._check_bits(data_bits, self.k, "data")
        # Polynomial division of data(x) * x^parity by g(x) over GF(2).
        # Convention: array index j holds the coefficient of x^(n-1-j),
        # so data[0] is the highest-degree coefficient and is fed into
        # the division register first.
        remainder = np.zeros(self.n_parity, dtype=np.uint8)
        gen = np.array(self.generator[:-1], dtype=np.uint8)  # monic: drop top
        for bit in data:
            feedback = bit ^ remainder[-1]
            remainder[1:] = remainder[:-1]
            remainder[0] = 0
            if feedback:
                remainder ^= gen * feedback
        # remainder[i] holds the x^i parity coefficient; reverse it so
        # the codeword keeps the index -> x^(n-1-index) convention.
        return np.concatenate([data, remainder[::-1]]).astype(np.uint8)

    @staticmethod
    def _check_bits(bits: np.ndarray, expected: int, label: str) -> np.ndarray:
        arr = as_bits(bits, label)
        if arr.shape != (expected,):
            raise ValueError(f"{label} must have {expected} bits, got {arr.shape}")
        return arr
