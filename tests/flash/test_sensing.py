"""Tests for repro.flash.sensing: reads, intra/inter-block MWS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.array import BlockArray
from repro.flash.errors import ErrorModel, OperatingCondition
from repro.flash.geometry import BlockAddress, ChipGeometry
from repro.flash.ispp import ProgramMode
from repro.flash.sensing import SensingEngine

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=4,
    subblocks_per_block=1,
    wordlines_per_string=8,
    page_size_bits=64,
)

PRISTINE = OperatingCondition()


def make_block(block_index=0, seed=0):
    # Noise-free array to pair with the error-injection-free engine.
    return BlockArray(
        GEOMETRY,
        BlockAddress(0, block_index, 0),
        rng=np.random.default_rng(seed),
        noise_enabled=False,
    )


def clean_engine():
    return SensingEngine(ErrorModel(), inject_errors=False)


def sense(engine, block, wordlines, condition=PRISTINE):
    """One string group's MWS: ``inter_block_mws`` with one target.  A
    regular page read is the one-wordline case."""
    return engine.inter_block_mws([(block, tuple(wordlines))], condition)


def program_pages(block, pages, *, esp_extra=0.0, randomized=False):
    mode = ProgramMode.ESP if esp_extra else ProgramMode.SLC
    for wl, page in enumerate(pages):
        block.program(wl, page, mode=mode, esp_extra=esp_extra,
                      randomized=randomized)


def random_pages(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)
        for _ in range(n)
    ]


class TestSingleRead:
    def test_read_returns_stored_bits(self):
        engine = clean_engine()
        block = make_block()
        pages = random_pages(3)
        program_pages(block, pages)
        for wl, page in enumerate(pages):
            outcome = sense(engine, block, (wl,))
            np.testing.assert_array_equal(outcome.bits, page)
            assert outcome.wordlines_sensed == 1
            assert outcome.blocks_sensed == 1

    def test_erased_page_reads_all_ones(self):
        engine = clean_engine()
        block = make_block()
        outcome = sense(engine, block, (5,))
        assert (outcome.bits == 1).all()

    def test_read_counts_disturb(self):
        engine = clean_engine()
        block = make_block()
        sense(engine, block, (0,))
        sense(engine, block, (0, 1, 2))
        assert block.reads_since_erase == 4


class TestIntraBlockMws:
    """Figure 9(a): simultaneous VREF on several wordlines of one
    string group computes their bitwise AND in a single sense."""

    @pytest.mark.parametrize("n_operands", [2, 3, 5, 8])
    def test_and_of_n_operands(self, n_operands):
        engine = clean_engine()
        block = make_block(seed=n_operands)
        pages = random_pages(n_operands, seed=n_operands)
        program_pages(block, pages)
        outcome = sense(engine, block, range(n_operands))
        expected = np.bitwise_and.reduce(np.stack(pages), axis=0)
        np.testing.assert_array_equal(outcome.bits, expected)
        assert outcome.wordlines_sensed == n_operands

    def test_subset_of_wordlines(self):
        engine = clean_engine()
        block = make_block(seed=9)
        pages = random_pages(6, seed=9)
        program_pages(block, pages)
        outcome = sense(engine, block, (1, 4))
        np.testing.assert_array_equal(outcome.bits, pages[1] & pages[4])

    def test_unprogrammed_wordlines_are_identity(self):
        """Erased wordlines hold all-ones: AND identity, like VPASS'd
        non-target wordlines."""
        engine = clean_engine()
        block = make_block(seed=3)
        pages = random_pages(2, seed=3)
        program_pages(block, pages)
        with_erased = sense(engine, block, (0, 1, 7))
        without = sense(engine, block, (0, 1))
        np.testing.assert_array_equal(with_erased.bits, without.bits)

    def test_requires_wordlines(self):
        engine = clean_engine()
        with pytest.raises(ValueError, match="at least one wordline"):
            sense(engine, make_block(), ())

    def test_esp_effort_mismatch_rejected(self):
        """MWS senses at one read reference; wordlines programmed with
        different ESP efforts need different references, so the sense
        is rejected -- with a message that names the actual problem
        (the efforts), not a 'programming mode' mismatch."""
        engine = clean_engine()
        block = make_block(seed=4)
        pages = random_pages(2, seed=4)
        block.program(0, pages[0], mode=ProgramMode.SLC)
        block.program(1, pages[1], mode=ProgramMode.ESP, esp_extra=0.9)
        with pytest.raises(ValueError, match="ESP programming effort"):
            sense(engine, block, (0, 1))

    def test_esp_effort_mismatch_between_esp_pages_rejected(self):
        """Two ESP pages with different extra efforts are just as
        unreadable at a single reference as SLC-vs-ESP."""
        engine = clean_engine()
        block = make_block(seed=5)
        pages = random_pages(2, seed=5)
        block.program(0, pages[0], mode=ProgramMode.ESP, esp_extra=0.5)
        block.program(1, pages[1], mode=ProgramMode.ESP, esp_extra=0.9)
        with pytest.raises(ValueError) as excinfo:
            sense(engine, block, (0, 1))
        assert "ESP programming effort" in str(excinfo.value)
        assert "0.5" in str(excinfo.value) and "0.9" in str(excinfo.value)

    def test_mlc_slc_mix_rejected_with_mode_message(self):
        """Mixing MLC and SLC-family wordlines in one sense raises the
        *mode* error (distinct from the ESP-effort mismatch)."""
        engine = clean_engine()
        block = make_block(seed=6)
        pages = random_pages(3, seed=6)
        block.program(0, pages[0], mode=ProgramMode.SLC)
        block.program_mlc(1, pages[1], pages[2])
        with pytest.raises(ValueError, match="cannot mix MLC"):
            sense(engine, block, (0, 1))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_and_for_any_selection(self, data):
        n_wl = GEOMETRY.wordlines_per_string
        selection = data.draw(
            st.lists(
                st.integers(0, n_wl - 1), min_size=1, max_size=n_wl, unique=True
            )
        )
        seed = data.draw(st.integers(0, 1000))
        engine = clean_engine()
        block = make_block(seed=seed)
        pages = random_pages(n_wl, seed=seed)
        program_pages(block, pages)
        outcome = sense(engine, block, tuple(selection))
        expected = np.bitwise_and.reduce(
            np.stack([pages[i] for i in selection]), axis=0
        )
        np.testing.assert_array_equal(outcome.bits, expected)


class TestInterBlockMws:
    """Figure 9(b): VREF on wordlines of different blocks sharing
    bitlines computes their bitwise OR in a single sense."""

    @pytest.mark.parametrize("n_blocks", [2, 3, 4])
    def test_or_across_blocks(self, n_blocks):
        engine = clean_engine()
        blocks = [make_block(i, seed=20 + i) for i in range(n_blocks)]
        pages = random_pages(n_blocks, seed=77)
        for block, page in zip(blocks, pages):
            block.program(0, page)
        outcome = engine.inter_block_mws(
            [(block, (0,)) for block in blocks], PRISTINE
        )
        expected = np.bitwise_or.reduce(np.stack(pages), axis=0)
        np.testing.assert_array_equal(outcome.bits, expected)
        assert outcome.blocks_sensed == n_blocks

    def test_equation_1_or_of_ands(self):
        """Equation 1: sensing all WLs of two blocks yields
        (A1...AN) OR (B1...BN) -- OR of the per-block ANDs."""
        engine = clean_engine()
        block_a = make_block(0, seed=31)
        block_b = make_block(1, seed=32)
        pages_a = random_pages(4, seed=31)
        pages_b = random_pages(4, seed=32)
        program_pages(block_a, pages_a)
        program_pages(block_b, pages_b)
        outcome = engine.inter_block_mws(
            [(block_a, (0, 1, 2, 3)), (block_b, (0, 1, 2, 3))], PRISTINE
        )
        and_a = np.bitwise_and.reduce(np.stack(pages_a), axis=0)
        and_b = np.bitwise_and.reduce(np.stack(pages_b), axis=0)
        np.testing.assert_array_equal(outcome.bits, and_a | and_b)

    def test_kcs_combined_and_plus_or(self):
        """The KCS pattern (Section 7): AND of k adjacency vectors in
        one block, OR'd with the clique vector in another block."""
        engine = clean_engine()
        adjacency_block = make_block(0, seed=41)
        clique_block = make_block(1, seed=42)
        adjacency = random_pages(5, seed=41)
        clique = random_pages(1, seed=43)[0]
        program_pages(adjacency_block, adjacency)
        clique_block.program(0, clique)
        outcome = engine.inter_block_mws(
            [(adjacency_block, (0, 1, 2, 3, 4)), (clique_block, (0,))],
            PRISTINE,
        )
        expected = np.bitwise_and.reduce(np.stack(adjacency), axis=0) | clique
        np.testing.assert_array_equal(outcome.bits, expected)

    def test_requires_targets(self):
        engine = clean_engine()
        with pytest.raises(ValueError, match="at least one target"):
            engine.inter_block_mws([], PRISTINE)


class TestErrorInjection:
    def test_esp_data_senses_error_free_under_worst_case(self):
        """The headline reliability result: ESP-programmed operands
        survive 10K PEC + 1-year retention with zero bit errors."""
        engine = SensingEngine(
            ErrorModel(), rng=np.random.default_rng(5), inject_errors=True
        )
        block = make_block(seed=50)
        pages = random_pages(8, seed=50)
        program_pages(block, pages, esp_extra=0.9, randomized=False)
        worst = OperatingCondition(
            pe_cycles=10_000, retention_months=12.0, randomized=False
        )
        outcome = sense(engine, block, tuple(range(8)), worst)
        expected = np.bitwise_and.reduce(np.stack(pages), axis=0)
        np.testing.assert_array_equal(outcome.bits, expected)

    def test_regular_slc_data_shows_errors_at_scale(self):
        """Without ESP the same sense suffers bit errors -- ParaBit's
        reliability problem (Section 3.2)."""
        geometry = GEOMETRY.scaled(page_size_bits=4096, wordlines_per_string=8)
        block = BlockArray(
            geometry, BlockAddress(0, 0, 0), rng=np.random.default_rng(6)
        )
        rng = np.random.default_rng(7)
        pages = [
            rng.integers(0, 2, geometry.page_size_bits, dtype=np.uint8)
            for _ in range(8)
        ]
        for wl, page in enumerate(pages):
            block.program(wl, page, randomized=False)
        engine = SensingEngine(
            ErrorModel(), rng=np.random.default_rng(8), inject_errors=True
        )
        worst = OperatingCondition(
            pe_cycles=10_000, retention_months=12.0, randomized=False
        )
        total_errors = 0
        for wl in range(8):
            sensed = sense(engine, block, (wl,), worst).bits
            total_errors += int((sensed != pages[wl]).sum())
        assert total_errors > 0
