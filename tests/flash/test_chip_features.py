"""Tests for the chip features the paper builds on: erase verify,
copyback, read-retry, SET FEATURE, and MLC LSB-page computation."""

import numpy as np
import pytest

from repro.flash.chip import IscmFlags, NandFlashChip
from repro.flash.errors import OperatingCondition
from repro.flash.geometry import BlockAddress, ChipGeometry, WordlineAddress

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=1,
    wordlines_per_string=8,
    page_size_bits=256,
)


def page(n_bits=256, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random(n_bits) < density).astype(np.uint8)


@pytest.fixture
def chip():
    return NandFlashChip(GEOMETRY, inject_errors=False, seed=1)


class TestEraseVerify:
    def test_erased_block_verifies(self, chip):
        """Section 4.1: erase verify = intra-block MWS over all
        wordlines; a fresh block passes."""
        assert chip.erase_verify(BlockAddress(0, 0, 0))

    def test_programmed_block_fails_until_erased(self, chip):
        addr = WordlineAddress(0, 1, 0, 0)
        data = page(seed=2)
        assert (data == 0).any()
        chip.program_page(addr, data, randomize=False)
        assert not chip.erase_verify(BlockAddress(0, 1, 0))
        chip.erase_block(BlockAddress(0, 1, 0))
        assert chip.erase_verify(BlockAddress(0, 1, 0))

    def test_verify_counts_as_full_block_sense(self, chip):
        before = chip.counters.wordlines_sensed
        chip.erase_verify(BlockAddress(0, 2, 0))
        assert chip.counters.wordlines_sensed - before == (
            GEOMETRY.wordlines_per_string
        )

    def test_verify_is_an_on_chip_status_check(self, chip):
        """Regression: the verdict was read through ``output_cache``,
        which counts an off-chip transfer."""
        chip.program_page(WordlineAddress(0, 3, 0, 0), page(seed=9))
        for block, verdict in ((2, True), (3, False)):
            assert chip.erase_verify(BlockAddress(0, block, 0)) is verdict
        assert chip.counters.transfers_out == 0


class TestCopyback:
    def test_plain_page_roundtrip(self, chip):
        src = WordlineAddress(0, 0, 0, 0)
        dst = WordlineAddress(0, 1, 0, 3)
        data = page(seed=3)
        chip.program_page(src, data, randomize=False)
        chip.copyback(src, dst)
        np.testing.assert_array_equal(chip.read_page(dst), data)

    def test_randomized_page_keeps_source_keystream(self, chip):
        """The FTL hazard the model captures: copied cells carry the
        source page's keystream; reads at the destination must
        de-randomize with the recorded index."""
        src = WordlineAddress(0, 0, 0, 1)
        dst = WordlineAddress(0, 2, 0, 0)
        data = page(seed=4)
        chip.program_page(src, data, randomize=True)
        chip.copyback(src, dst)
        np.testing.assert_array_equal(chip.read_page(dst), data)
        dst_block = chip.plane_array.block(dst.block_address)
        meta = dst_block.metadata[dst.wordline]
        assert meta.randomizer_page_index == chip.page_index(src)

    def test_copyback_transfers_nothing_off_chip(self, chip):
        """Regression: copyback read its latch through
        ``output_cache``, counting an off-chip transfer for a page
        that never leaves the die.  The destination holds the source's
        raw cells (the randomized ones here)."""
        src = WordlineAddress(0, 3, 0, 0)
        dst = WordlineAddress(0, 4, 0, 5)
        chip.program_page(src, page(seed=10), randomize=True)
        chip.copyback(src, dst)
        assert chip.counters.transfers_out == 0
        np.testing.assert_array_equal(
            chip.stored_bits(dst), chip.stored_bits(src)
        )

    def test_cross_plane_rejected(self):
        geometry = GEOMETRY.scaled(planes_per_die=2)
        chip = NandFlashChip(geometry, inject_errors=False, seed=5)
        src = WordlineAddress(0, 0, 0, 0)
        chip.program_page(src, page(seed=5), randomize=False)
        with pytest.raises(ValueError, match="cross planes"):
            chip.copyback(src, WordlineAddress(1, 0, 0, 0))

    def test_copyback_propagates_errors(self):
        """Copyback moves raw cells: bit errors present at the read
        propagate to the destination (no ECC scrub)."""
        geometry = GEOMETRY.scaled(page_size_bits=16384)
        chip = NandFlashChip(geometry, inject_errors=True, seed=6)
        chip.set_condition(
            OperatingCondition(pe_cycles=10_000, retention_months=12.0,
                               randomized=False)
        )
        src = WordlineAddress(0, 0, 0, 0)
        dst = WordlineAddress(0, 1, 0, 0)
        data = page(16384, seed=7, density=0.99)
        chip.program_page(src, data, randomize=False)
        chip.copyback(src, dst)
        stored_at_dst = chip.stored_bits(dst)
        errors = int((stored_at_dst != data).sum())
        assert errors > 0


class TestReadRetry:
    def test_clean_page_needs_no_retry(self, chip):
        addr = WordlineAddress(0, 0, 0, 2)
        data = page(seed=8)
        chip.program_page(addr, data, randomize=False)
        bits, retries = chip.read_page_with_retry(
            addr, lambda raw: bool((raw == data).all())
        )
        assert retries == 0
        np.testing.assert_array_equal(bits, data)

    def test_retry_recovers_retention_shifted_page(self):
        """Retention drifts programmed cells down toward VREF; stepping
        VREF down restores the margin (the read-retry the paper cites
        [64]).  The firmware's acceptance criterion is ECC
        decodability, emulated here as an error budget of t = 16 bits
        per page."""
        from repro.flash.ispp import ProgramMode

        geometry = GEOMETRY.scaled(page_size_bits=8192)
        chip = NandFlashChip(geometry, inject_errors=True, seed=9)
        addr = WordlineAddress(0, 0, 0, 0)
        data = page(8192, seed=10, density=0.5)
        chip.program_page(addr, data, mode=ProgramMode.ESP, esp_extra=0.9,
                          randomize=False)
        # Emulate severe retention: programmed cells sag by 2.1 V
        # (past the ISPP verify floor, so the default VREF misreads
        # thousands of bits).
        block = chip.plane_array.block(addr.block_address)
        programmed = block.programmed_mask()[addr.wordline]
        block.vth[addr.wordline][programmed] -= 2.1

        def decodable(raw):
            return int((raw != data).sum()) <= 16

        # The default read fails the budget...
        chip.execute_sense([(addr.block_address, (0,))], IscmFlags())
        assert not decodable(chip.output_cache(0))
        # ...and retry with lowered VREF recovers it.
        bits, retries = chip.read_page_with_retry(
            addr, decodable, vref_offsets=(0.0, -0.25, -0.5, -0.75)
        )
        assert retries > 0
        assert decodable(bits)

    def test_exhaustion_raises(self, chip):
        addr = WordlineAddress(0, 0, 0, 3)
        chip.program_page(addr, page(seed=11), randomize=False)
        with pytest.raises(RuntimeError, match="read-retry exhausted"):
            chip.read_page_with_retry(addr, lambda raw: False,
                                      vref_offsets=(0.0, -0.1))


class TestSetFeature:
    def test_roundtrip(self, chip):
        chip.set_feature("vref_offset", -0.05)
        assert chip.get_feature("vref_offset") == -0.05
        chip.set_feature("esp_extra_default", 0.9)
        assert chip.get_feature("esp_extra_default") == 0.9

    def test_validation(self, chip):
        with pytest.raises(ValueError, match="unknown feature"):
            chip.set_feature("bogus", 1.0)
        with pytest.raises(ValueError, match="unknown feature"):
            chip.get_feature("bogus")
        with pytest.raises(ValueError):
            chip.set_feature("esp_extra_default", 2.0)
        with pytest.raises(ValueError):
            chip.set_feature("vref_offset", 5.0)


class TestMlcPages:
    def test_lsb_msb_roundtrip(self, chip):
        addr = WordlineAddress(0, 3, 0, 0)
        lsb = page(seed=12)
        msb = page(seed=13)
        chip.program_page_mlc(addr, lsb, msb, randomize=False)
        np.testing.assert_array_equal(chip.read_page(addr), lsb)
        np.testing.assert_array_equal(chip.read_msb_page(addr), msb)

    def test_randomized_mlc_roundtrip(self, chip):
        addr = WordlineAddress(0, 4, 0, 0)
        lsb = page(seed=14)
        msb = page(seed=15)
        chip.program_page_mlc(addr, lsb, msb, randomize=True)
        np.testing.assert_array_equal(chip.read_page(addr), lsb)
        np.testing.assert_array_equal(chip.read_msb_page(addr), msb)

    def test_mws_on_mlc_lsb_pages(self, chip):
        """Section 9, footnote 15: intra-block MWS over MLC LSB pages
        computes their AND, exactly as over SLC pages."""
        block = BlockAddress(0, 5, 0)
        lsbs = [page(seed=20 + i) for i in range(3)]
        msbs = [page(seed=30 + i) for i in range(3)]
        for wl, (lsb, msb) in enumerate(zip(lsbs, msbs)):
            chip.program_page_mlc(
                WordlineAddress(0, 5, 0, wl), lsb, msb, randomize=False
            )
        chip.execute_sense([(block, (0, 1, 2))], IscmFlags())
        result = chip.output_cache(0)
        expected = lsbs[0] & lsbs[1] & lsbs[2]
        np.testing.assert_array_equal(result, expected)

    def test_mixed_mlc_slc_mws_rejected(self, chip):
        block = BlockAddress(0, 6, 0)
        chip.program_page_mlc(
            WordlineAddress(0, 6, 0, 0), page(seed=40), page(seed=41),
            randomize=False,
        )
        chip.program_page(
            WordlineAddress(0, 6, 0, 1), page(seed=42), randomize=False
        )
        with pytest.raises(ValueError, match="mix MLC"):
            chip.execute_sense([(block, (0, 1))], IscmFlags())

    def test_mlc_lsb_error_prone_under_stress(self):
        """MLC LSB computation works but only at ParaBit-level
        reliability -- the margins cannot reach the ESP regime."""
        geometry = GEOMETRY.scaled(page_size_bits=16384)
        chip = NandFlashChip(geometry, inject_errors=True, seed=16)
        chip.set_condition(
            OperatingCondition(pe_cycles=10_000, retention_months=12.0,
                               randomized=False)
        )
        addr = WordlineAddress(0, 0, 0, 0)
        lsb = page(16384, seed=17)
        msb = page(16384, seed=18)
        chip.program_page_mlc(addr, lsb, msb, randomize=False)
        sensed = chip.read_page(addr)
        errors = int((sensed != lsb).sum())
        assert errors > 0

    def test_mlc_page_shape_validated(self, chip):
        with pytest.raises(ValueError, match="bits"):
            chip.program_page_mlc(
                WordlineAddress(0, 7, 0, 0),
                np.ones(3, dtype=np.uint8),
                np.ones(3, dtype=np.uint8),
                randomize=False,
            )

    def test_msb_read_requires_mlc(self, chip):
        addr = WordlineAddress(0, 7, 0, 1)
        chip.program_page(addr, page(seed=19), randomize=False)
        with pytest.raises(ValueError, match="MLC wordline"):
            chip.read_msb_page(addr)
