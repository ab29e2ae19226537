"""Galois field GF(2^m) arithmetic with log/antilog tables."""

from __future__ import annotations

#: Default primitive polynomials (as integers, LSB = x^0) for GF(2^m).
PRIMITIVE_POLYNOMIALS = {
    2: 0b111,           # x^2 + x + 1
    3: 0b1011,          # x^3 + x + 1
    4: 0b10011,         # x^4 + x + 1
    5: 0b100101,        # x^5 + x^2 + 1
    6: 0b1000011,       # x^6 + x + 1
    7: 0b10001001,      # x^7 + x^3 + 1
    8: 0b100011101,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,    # x^9 + x^4 + 1
    10: 0b10000001001,  # x^10 + x^3 + 1
    11: 0b100000000101, # x^11 + x^2 + 1
    12: 0b1000001010011, # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011, # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011, # x^14 + x^10 + x^6 + x + 1
}


class GaloisField:
    """GF(2^m) with exp/log tables for fast multiplication."""

    def __init__(self, m: int, primitive_poly: int | None = None) -> None:
        if m < 2 or m > 16:
            raise ValueError("m must be in [2, 16]")
        if primitive_poly is None:
            try:
                primitive_poly = PRIMITIVE_POLYNOMIALS[m]
            except KeyError:
                raise ValueError(f"no default primitive polynomial for m={m}")
        self.m = m
        self.size = 1 << m
        self.order = self.size - 1  # multiplicative group order
        self.primitive_poly = primitive_poly
        self._exp = [0] * (2 * self.order)
        self._log = [0] * self.size
        x = 1
        for i in range(self.order):
            self._exp[i] = x
            self._log[x] = i
            x <<= 1
            if x & self.size:
                x ^= primitive_poly
        if x != 1:
            raise ValueError(
                f"0x{primitive_poly:x} is not primitive for GF(2^{m})"
            )
        # Duplicate the exp table so exp(a+b) needs no modulo.
        for i in range(self.order, 2 * self.order):
            self._exp[i] = self._exp[i - self.order]

    # ------------------------------------------------------------------
    # Field operations (addition is XOR and needs no method)
    # ------------------------------------------------------------------

    def exp(self, power: int) -> int:
        """alpha ** power (power may be any integer)."""
        return self._exp[power % self.order]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    # ------------------------------------------------------------------
    # Polynomials over the field (lists of coefficients, index = degree)
    # ------------------------------------------------------------------

    def poly_mul(self, a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] ^= self.mul(ca, cb)
        return out

    def minimal_polynomial(self, element: int) -> list[int]:
        """Minimal polynomial of a field element over GF(2).

        Built from the element's conjugacy class {e, e^2, e^4, ...};
        coefficients are guaranteed to be 0/1.
        """
        conjugates = []
        current = element
        while current not in conjugates:
            conjugates.append(current)
            current = self.mul(current, current)
        poly = [1]
        for conj in conjugates:
            poly = self.poly_mul(poly, [conj, 1])
        if any(c not in (0, 1) for c in poly):
            raise AssertionError("minimal polynomial is not binary")
        return poly
