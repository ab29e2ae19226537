"""Tests for repro.ecc.bch -- including the ECC/IFP non-commutativity
claim the paper builds on (Section 3.2)."""

from functools import reduce
from operator import xor

import numpy as np
import pytest

from repro.ecc.bch import BchCode


@pytest.fixture(scope="module")
def code():
    """BCH(15, 7, 2) -- small enough for exhaustive-ish testing."""
    return BchCode(m=4, t=2)


@pytest.fixture(scope="module")
def strong_code():
    """BCH(63, 45, 3) -- a realistic-shape code."""
    return BchCode(m=6, t=3)


def random_data(code, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, code.k, dtype=np.uint8)


def is_codeword(code, word):
    """Every syndrome S_i = r(alpha^i), i = 1..2t, is zero: the word's
    polynomial (index j holds the x^(n-1-j) coefficient) is divisible
    by every minimal polynomial in g(x), so by g(x) itself."""
    exponents = code.n - 1 - np.nonzero(word)[0]
    return not any(
        reduce(xor, (code.field.exp(i * int(e)) for e in exponents), 0)
        for i in range(1, 2 * code.t + 1)
    )


class TestConstruction:
    def test_bch_15_7_2(self, code):
        """The classic BCH(15,7) double-error-correcting code."""
        assert (code.n, code.k, code.t) == (15, 7, 2)

    def test_bch_63_45_3(self, strong_code):
        assert (strong_code.n, strong_code.k) == (63, 45)

    def test_rejects_zero_t(self):
        with pytest.raises(ValueError):
            BchCode(m=4, t=0)

    @pytest.mark.parametrize("t", [True, 2.5, 2.0, "2"])
    def test_rejects_non_int_t(self, t):
        """True is an int to Python and would build a t=1 code; 2.5
        used to fail deep inside NumPy without naming t."""
        with pytest.raises(ValueError, match="t must be an int"):
            BchCode(m=6, t=t)

    def test_rejects_overfull_code(self):
        """GF(4): t=2 forces the generator to absorb every bit."""
        with pytest.raises(ValueError, match="no data bits"):
            BchCode(m=2, t=2)


class TestEncoding:
    def test_systematic(self, code):
        data = random_data(code, 0)
        cw = code.encode(data)
        np.testing.assert_array_equal(cw[: code.k], data)
        assert cw.shape == (code.n,)

    def test_codeword_has_zero_syndromes(self, code):
        for seed in range(10):
            cw = code.encode(random_data(code, seed))
            assert is_codeword(code, cw)
            cw[seed] ^= 1
            assert not is_codeword(code, cw)

    def test_linear(self, code):
        a = random_data(code, 1)
        b = random_data(code, 2)
        cw_sum = code.encode(a ^ b)
        np.testing.assert_array_equal(cw_sum, code.encode(a) ^ code.encode(b))

    def test_input_validation(self, code):
        with pytest.raises(ValueError, match="bits"):
            code.encode(np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="0/1"):
            code.encode(np.full(code.k, 2, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [256, 257, 0.9, -1])
    def test_rejects_values_a_cast_would_make_bits(self, code, bad):
        """256 and 0.9 cast to uint8 as 0 and 257 as 1: the check runs
        on the values as given."""
        data = random_data(code, 4).astype(np.float64)
        data[3] = bad
        with pytest.raises(ValueError, match="data must be 0/1"):
            code.encode(data)


class TestNonCommutativityWithIfp:
    """Section 3.2: bitwise AND/OR of ECC-encoded pages is not the
    encoding of the AND/OR of the data, so in-flash bitwise results
    cannot be repaired by the controller's ECC."""

    def test_and_of_codewords_usually_not_a_codeword(self, code):
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(50):
            a = rng.integers(0, 2, code.k, dtype=np.uint8)
            b = rng.integers(0, 2, code.k, dtype=np.uint8)
            in_flash = code.encode(a) & code.encode(b)
            expected = code.encode(a & b)
            if not np.array_equal(in_flash, expected):
                violations += 1
        assert violations > 25  # almost always wrong

    def test_or_of_codewords_usually_not_a_codeword(self, code):
        rng = np.random.default_rng(6)
        violations = 0
        for _ in range(50):
            a = rng.integers(0, 2, code.k, dtype=np.uint8)
            b = rng.integers(0, 2, code.k, dtype=np.uint8)
            in_flash = code.encode(a) | code.encode(b)
            expected = code.encode(a | b)
            if not np.array_equal(in_flash, expected):
                violations += 1
        assert violations > 25

    def test_xor_of_codewords_is_a_codeword(self, code):
        """Linearity makes XOR the one operation ECC *does* commute
        with -- consistent with the paper's observation that image
        encryption (XOR-only) needs no ESP."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(0, 2, code.k, dtype=np.uint8)
            b = rng.integers(0, 2, code.k, dtype=np.uint8)
            np.testing.assert_array_equal(
                code.encode(a) ^ code.encode(b), code.encode(a ^ b)
            )

    def test_anded_pair_is_not_a_codeword(self, code):
        """The in-flash AND carries a & b in its data bits, but for most
        operand pairs its parity is no BCH parity at all: to the
        controller it looks like a corrupted page."""
        rng = np.random.default_rng(8)
        wrong = 0
        total = 50
        for _ in range(total):
            a = rng.integers(0, 2, code.k, dtype=np.uint8)
            b = rng.integers(0, 2, code.k, dtype=np.uint8)
            in_flash = code.encode(a) & code.encode(b)
            np.testing.assert_array_equal(in_flash[: code.k], a & b)
            if not is_codeword(code, in_flash):
                wrong += 1
        assert wrong > total // 2
