"""Tests for repro.ecc.gf."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.gf import GaloisField


def poly_eval(field, poly, x):
    """Horner's rule over the field (coefficient index = degree)."""
    result = 0
    for coeff in reversed(poly):
        result = field.mul(result, x) ^ coeff
    return result


@pytest.fixture(scope="module")
def gf16():
    return GaloisField(4)


@pytest.fixture(scope="module")
def gf256():
    return GaloisField(8)


class TestConstruction:
    def test_sizes(self, gf16):
        assert gf16.size == 16
        assert gf16.order == 15

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            GaloisField(1)
        with pytest.raises(ValueError):
            GaloisField(17)

    def test_rejects_non_primitive_polynomial(self):
        # x^4 + 1 is not primitive (it's not even irreducible).
        with pytest.raises(ValueError, match="not primitive"):
            GaloisField(4, primitive_poly=0b10001)

    def test_exp_enumerates_nonzero_elements(self, gf256):
        """alpha is primitive: its powers hit every nonzero element."""
        assert sorted(gf256.exp(i) for i in range(255)) == list(range(1, 256))

    def test_exp_is_periodic(self, gf16):
        assert gf16.exp(0) == 1
        assert gf16.exp(15) == 1
        assert gf16.exp(-1) == gf16.exp(14)


class TestFieldAxioms:
    @settings(max_examples=60)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_mul_commutative(self, gf256, a, b):
        assert gf256.mul(a, b) == gf256.mul(b, a)

    @settings(max_examples=60)
    @given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
    def test_mul_associative(self, gf256, a, b, c):
        assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))

    @settings(max_examples=60)
    @given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
    def test_distributive(self, gf256, a, b, c):
        assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)

    def test_zero_handling(self, gf16):
        assert gf16.mul(0, 7) == 0
        assert gf16.mul(7, 0) == 0


class TestPolynomials:
    def test_poly_mul_degree(self, gf16):
        out = gf16.poly_mul([1, 1], [1, 1])  # (1+x)^2 = 1 + x^2 over GF(2)
        assert out == [1, 0, 1]

    @given(x=st.integers(0, 15))
    def test_minimal_polynomial_annihilates(self, gf16, x):
        poly = gf16.minimal_polynomial(x)
        assert poly_eval(gf16, poly, x) == 0

    def test_minimal_polynomial_is_binary(self, gf256):
        poly = gf256.minimal_polynomial(gf256.exp(1))
        assert all(c in (0, 1) for c in poly)
        # alpha's minimal polynomial is the primitive polynomial itself.
        as_int = sum(c << i for i, c in enumerate(poly))
        assert as_int == gf256.primitive_poly
