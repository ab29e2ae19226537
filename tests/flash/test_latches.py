"""Tests for repro.flash.latches (Figures 3, 4 and 6 semantics)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.flash.latches import LatchBank, LatchStateError
from repro.flash.packing import pack_bits


def bits(*values):
    return np.array(values, dtype=np.uint8)


@pytest.fixture
def bank():
    return LatchBank(4)


def page_strategy(n=4):
    return npst.arrays(np.uint8, n, elements=st.integers(0, 1))


class TestProtocol:
    def test_capture_requires_init(self, bank):
        with pytest.raises(LatchStateError, match="before initialization"):
            bank.capture(bits(1, 0, 1, 0))

    def test_inverse_requires_fresh_init(self, bank):
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0))
        with pytest.raises(LatchStateError, match="inverse"):
            bank.capture(bits(1, 1, 1, 1), inverse=True)

    def test_transfer_requires_both_latches(self, bank):
        with pytest.raises(LatchStateError, match="S-latch"):
            bank.transfer_to_cache()
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0))
        with pytest.raises(LatchStateError, match="C-latch"):
            bank.transfer_to_cache()

    def test_reading_empty_latches(self, bank):
        with pytest.raises(LatchStateError):
            _ = bank.sense_data
        with pytest.raises(LatchStateError):
            _ = bank.cache_data

    def test_page_size_validation(self, bank):
        bank.init_sense()
        with pytest.raises(ValueError, match="bits"):
            bank.capture(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError, match="0/1"):
            bank.capture(np.array([0, 1, 2, 0], dtype=np.uint8))

    def test_invalid_page_bits(self):
        with pytest.raises(ValueError):
            LatchBank(0)


class TestSenseSemantics:
    def test_normal_capture(self, bank):
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0))
        np.testing.assert_array_equal(bank.sense_data, bits(1, 0, 1, 0))

    def test_inverse_capture(self, bank):
        """Figure 4: inverse read stores the complement."""
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0), inverse=True)
        np.testing.assert_array_equal(bank.sense_data, bits(0, 1, 0, 1))

    def test_parabit_and_accumulation(self, bank):
        """Figure 6(b): sensing without re-init ANDs into the S-latch."""
        bank.init_sense()
        bank.capture(bits(1, 1, 0, 0))
        bank.capture(bits(1, 0, 1, 0))
        np.testing.assert_array_equal(bank.sense_data, bits(1, 0, 0, 0))

    @given(pages=st.lists(page_strategy(), min_size=1, max_size=6))
    def test_and_accumulation_equals_reduce(self, pages):
        bank = LatchBank(4)
        bank.init_sense()
        expected = np.ones(4, dtype=np.uint8)
        for page in pages:
            bank.capture(page)
            expected &= page
        np.testing.assert_array_equal(bank.sense_data, expected)


class TestCacheSemantics:
    def test_parabit_or_accumulation(self, bank):
        """Figure 6(c): transfer ORs the S-latch onto the C-latch."""
        bank.init_cache()
        bank.init_sense()
        bank.capture(bits(1, 0, 0, 0))
        bank.transfer_to_cache()
        bank.init_sense()
        bank.capture(bits(0, 1, 0, 0))
        bank.transfer_to_cache()
        np.testing.assert_array_equal(bank.cache_data, bits(1, 1, 0, 0))

    @given(pages=st.lists(page_strategy(), min_size=1, max_size=6))
    def test_or_accumulation_equals_reduce(self, pages):
        bank = LatchBank(4)
        bank.init_cache()
        expected = np.zeros(4, dtype=np.uint8)
        for page in pages:
            bank.init_sense()
            bank.capture(page)
            bank.transfer_to_cache()
            expected |= page
        np.testing.assert_array_equal(bank.cache_data, expected)

    def test_cache_isolated_until_transfer(self, bank):
        """The C-latch keeps its data while new senses occur -- the
        cache-read feature ParaBit builds on (Section 3.1)."""
        bank.init_cache()
        bank.init_sense()
        bank.capture(bits(1, 1, 1, 1))
        bank.transfer_to_cache()
        bank.init_sense()
        bank.capture(bits(0, 0, 0, 0))
        np.testing.assert_array_equal(bank.cache_data, bits(1, 1, 1, 1))

    def test_load_cache_overwrites(self, bank):
        bank.load_cache(bits(0, 1, 0, 1))
        np.testing.assert_array_equal(bank.cache_data, bits(0, 1, 0, 1))


class TestXor:
    def test_xor_into_cache(self, bank):
        """Section 6.1: on-chip XOR between the two latches."""
        bank.load_cache(bits(1, 1, 0, 0))
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0))
        bank.xor_into_cache()
        np.testing.assert_array_equal(bank.cache_data, bits(0, 1, 1, 0))

    def test_xor_requires_data(self, bank):
        with pytest.raises(LatchStateError, match="XOR"):
            bank.xor_into_cache()

    @given(a=page_strategy(), b=page_strategy())
    def test_xnor_via_inverse_read(self, a, b):
        """Equation 2: A XNOR B == (NOT A) XOR B, realized by an
        inverse read of one operand feeding the XOR logic."""
        bank = LatchBank(4)
        bank.load_cache(b)
        bank.init_sense()
        bank.capture(a, inverse=True)
        bank.xor_into_cache()
        expected = 1 - (a ^ b)
        np.testing.assert_array_equal(bank.cache_data, expected)


class TestPackedWords:
    """The packed uint64 word path: word-array capture, packed
    readout, and the ParaBit protocol against a NumPy oracle."""

    def test_capture_words_roundtrip(self):
        bank = LatchBank(4)
        bank.init_cache()
        bank.init_sense()
        bank.capture(pack_bits(bits(1, 0, 1, 0)))
        bank.transfer_to_cache()
        np.testing.assert_array_equal(bank.cache_data, bits(1, 0, 1, 0))
        np.testing.assert_array_equal(
            bank.cache_words, pack_bits(bits(1, 0, 1, 0))
        )

    def test_word_shape_validated(self):
        bank = LatchBank(4)
        bank.init_sense()
        with pytest.raises(ValueError, match="words"):
            bank.capture(np.zeros(2, dtype=np.uint64))

    def test_inverse_freshness_ignores_padding(self):
        """A 4-bit page packs into one word with 60 padding bits; the
        freshness check must consider only the data bits."""
        bank = LatchBank(4)
        bank.init_sense()
        bank.capture(bits(1, 0, 1, 0), inverse=True)
        np.testing.assert_array_equal(bank.sense_data, bits(0, 1, 0, 1))

    @given(pages=st.lists(page_strategy(), min_size=1, max_size=6))
    def test_packed_and_unpacked_banks_agree(self, pages):
        """Drive the bank through the ParaBit AND/OR + XOR protocol
        with 0/1 pages and require what the same protocol computes on
        unpacked NumPy bits -- the oracle of the retired byte bank."""
        bank = LatchBank(4)
        bank.init_cache()
        expected = np.zeros(4, dtype=np.uint8)
        for page in pages:
            bank.init_sense()
            bank.capture(page)
            bank.transfer_to_cache()
            expected |= page
        np.testing.assert_array_equal(bank.cache_data, expected)
        bank.xor_into_cache()
        expected ^= pages[-1]
        np.testing.assert_array_equal(bank.cache_data, expected)
        np.testing.assert_array_equal(bank.cache_words, pack_bits(expected))

    def test_load_cache_accepts_words(self):
        bank = LatchBank(4)
        bank.load_cache(pack_bits(bits(0, 1, 1, 0)))
        np.testing.assert_array_equal(bank.cache_data, bits(0, 1, 1, 0))

    def test_legacy_bank_accepts_words(self):
        """Words and 0/1 pages mix freely in one protocol: an inverse
        capture of words, then an AND-accumulating capture of bits."""
        bank = LatchBank(4)
        bank.init_sense()
        bank.capture(pack_bits(bits(1, 1, 0, 0)), inverse=True)
        bank.capture(bits(1, 0, 1, 0))
        np.testing.assert_array_equal(bank.sense_data, bits(0, 0, 1, 0))
