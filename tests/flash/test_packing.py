"""Tests for repro.flash.packing: the uint64 page representation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flash.packing import (
    FULL_WORD,
    WORD_BITS,
    as_bits,
    ensure_padding,
    invert_words,
    pack_bits,
    pack_rows,
    pad_mask,
    unpack_rows,
    unpack_words,
    words_per_page,
)


class TestShapes:
    @pytest.mark.parametrize(
        "n_bits,n_words", [(1, 1), (63, 1), (64, 1), (65, 2), (4096, 64)]
    )
    def test_words_per_page(self, n_bits, n_words):
        assert words_per_page(n_bits) == n_words

    def test_words_per_page_rejects_zero(self):
        with pytest.raises(ValueError):
            words_per_page(0)

    def test_pack_rows_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_rows(np.zeros(8, dtype=np.uint8))

    def test_unpack_word_count_checked(self):
        with pytest.raises(ValueError, match="words"):
            unpack_words(np.zeros(2, dtype=np.uint64), 64)


class TestAsBits:
    @pytest.mark.parametrize("bad", [2, 256, 257, 0.5, 0.9, -1])
    def test_rejects_values_a_cast_would_make_bits(self, bad):
        """uint8 casts 256 -> 0, 257 -> 1, 0.5 -> 0: check the values
        as given, and name what was passed."""
        values = np.array([0, 1, bad, 1])
        with pytest.raises(ValueError, match="page 'x' must be 0/1"):
            as_bits(values, "page 'x'")

    def test_rejects_out_of_range_uint8(self):
        with pytest.raises(ValueError, match="0/1"):
            as_bits(np.array([0, 1, 2], dtype=np.uint8), "bits")

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 1, 1, 0], dtype=np.uint8),
            np.array([False, True, True, False]),
            [0, 1, 1, 0],
            np.array([0.0, 1.0, 1.0, 0.0]),
        ],
    )
    def test_accepts_bits_of_any_dtype(self, values):
        out = as_bits(values, "bits")
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [0, 1, 1, 0])

    def test_accepts_empty(self):
        assert as_bits(np.zeros(0, dtype=np.uint8), "bits").size == 0


class TestRoundTrip:
    @given(
        n_bits=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    def test_bits_roundtrip(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape == (words_per_page(n_bits),)
        np.testing.assert_array_equal(unpack_words(words, n_bits), bits)

    @given(
        n_rows=st.integers(1, 8),
        n_bits=st.integers(1, 150),
        seed=st.integers(0, 2**16),
    )
    def test_rows_roundtrip(self, n_rows, n_bits, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, (n_rows, n_bits), dtype=np.uint8)
        np.testing.assert_array_equal(
            unpack_rows(pack_rows(rows), n_bits), rows
        )


class TestPaddingConvention:
    def test_padding_is_ones(self):
        """Stored pages pad with ones (the erased state) so padding is
        an AND identity and the all-ones freshness check holds."""
        bits = np.zeros(10, dtype=np.uint8)
        words = pack_bits(bits)
        assert words[0] == pad_mask(10)[0]

    def test_aligned_page_has_no_pad(self):
        assert not pad_mask(WORD_BITS).any()
        assert not pad_mask(4 * WORD_BITS).any()

    def test_all_ones_page_is_full_words(self):
        words = pack_bits(np.ones(70, dtype=np.uint8))
        assert (words == FULL_WORD).all()

    def test_ensure_padding_restores_ones(self):
        words = np.zeros(2, dtype=np.uint64)
        fixed = ensure_padding(words, 70)
        np.testing.assert_array_equal(
            unpack_words(fixed, 70), np.zeros(70, dtype=np.uint8)
        )
        assert fixed[1] != 0  # padding bits were re-set


class TestBitwiseEquivalence:
    @given(
        n_bits=st.integers(1, 130),
        seed=st.integers(0, 2**16),
    )
    def test_word_ops_match_bit_ops(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, n_bits, dtype=np.uint8)
        b = rng.integers(0, 2, n_bits, dtype=np.uint8)
        wa, wb = pack_bits(a), pack_bits(b)
        np.testing.assert_array_equal(unpack_words(wa & wb, n_bits), a & b)
        np.testing.assert_array_equal(unpack_words(wa | wb, n_bits), a | b)
        np.testing.assert_array_equal(unpack_words(wa ^ wb, n_bits), a ^ b)
        np.testing.assert_array_equal(
            unpack_words(invert_words(wa, n_bits), n_bits), 1 - a
        )

    @given(
        n_rows=st.integers(1, 6),
        n_bits=st.integers(1, 130),
        seed=st.integers(0, 2**16),
    )
    def test_reduce_matches_bit_reduce(self, n_rows, n_bits, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, (n_rows, n_bits), dtype=np.uint8)
        packed = pack_rows(rows)
        np.testing.assert_array_equal(
            unpack_words(np.bitwise_and.reduce(packed, axis=0), n_bits),
            np.bitwise_and.reduce(rows, axis=0),
        )
        np.testing.assert_array_equal(
            unpack_words(np.bitwise_or.reduce(packed, axis=0), n_bits),
            np.bitwise_or.reduce(rows, axis=0),
        )
