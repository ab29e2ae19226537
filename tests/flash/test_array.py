"""Tests for repro.flash.array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.array import BlockArray, PlaneArray
from repro.flash.chip import NandFlashChip
from repro.flash.geometry import BlockAddress, ChipGeometry, WordlineAddress
from repro.flash.ispp import ProgramMode


@pytest.fixture
def block(tiny_geometry):
    return BlockArray(tiny_geometry, BlockAddress(0, 0, 0))


class TestBlockArray:
    def test_starts_erased(self, block, tiny_geometry):
        assert block.vth.shape == (
            tiny_geometry.wordlines_per_string,
            tiny_geometry.page_size_bits,
        )
        assert (block.written == 1).all()
        assert block.pe_cycles == 0
        assert not any(m.programmed for m in block.metadata)

    def test_program_stores_ground_truth(self, block, make_page, tiny_geometry):
        page = make_page(tiny_geometry.page_size_bits)
        block.program(0, page)
        np.testing.assert_array_equal(block.stored_bits(0), page)
        assert block.metadata[0].programmed

    def test_programmed_cells_have_high_vth(self, block, make_page, tiny_geometry):
        page = make_page(tiny_geometry.page_size_bits)
        block.program(3, page)
        programmed = page == 0
        assert (block.vth[3][programmed] > 0).all()
        assert (block.vth[3][~programmed] < 0).all()

    def test_double_program_rejected(self, block, make_page, tiny_geometry):
        page = make_page(tiny_geometry.page_size_bits)
        block.program(0, page)
        with pytest.raises(ValueError, match="already programmed"):
            block.program(0, page)

    def test_erase_increments_pe_and_clears(self, block, make_page, tiny_geometry):
        block.program(0, make_page(tiny_geometry.page_size_bits))
        block.erase()
        assert block.pe_cycles == 1
        assert (block.written == 1).all()
        assert not block.metadata[0].programmed
        # Re-programming after erase is allowed.
        block.program(0, make_page(tiny_geometry.page_size_bits))

    def test_wrong_page_size_rejected(self, block):
        with pytest.raises(ValueError, match="bits"):
            block.program(0, np.ones(3, dtype=np.uint8))

    def test_mlc_functional_programming_rejected(self, block, tiny_geometry):
        page = np.ones(tiny_geometry.page_size_bits, dtype=np.uint8)
        with pytest.raises(NotImplementedError):
            block.program(0, page, mode=ProgramMode.MLC)

    def test_esp_metadata_recorded(self, block, make_page, tiny_geometry):
        page = make_page(tiny_geometry.page_size_bits)
        block.program(2, page, mode=ProgramMode.ESP, esp_extra=0.9,
                      randomized=False)
        meta = block.metadata[2]
        assert meta.mode is ProgramMode.ESP
        assert meta.esp_extra == 0.9
        assert not meta.randomized
        assert block.wordline_esp_extra(2) == 0.9

    def test_programmed_mask(self, block, tiny_geometry):
        page = np.ones(tiny_geometry.page_size_bits, dtype=np.uint8)
        page[:5] = 0
        block.program(1, page)
        mask = block.programmed_mask()
        assert mask[1, :5].all()
        assert not mask[1, 5:].any()
        assert not mask[0].any()

    def test_note_read_accumulates(self, block):
        block.note_read(3)
        block.note_read()
        assert block.reads_since_erase == 4
        block.erase()
        assert block.reads_since_erase == 0

    def test_address_validated(self, tiny_geometry):
        with pytest.raises(IndexError):
            BlockArray(tiny_geometry, BlockAddress(9, 0, 0))


class TestPlaneArray:
    def test_lazy_materialization(self, tiny_geometry):
        plane = PlaneArray(tiny_geometry)
        assert plane.materialized() == ()
        addr = BlockAddress(0, 1, 0)
        block = plane.block(addr)
        assert addr in plane
        assert plane.block(addr) is block
        assert plane.materialized() == (addr,)

    def test_blocks_have_independent_reproducible_content(self, tiny_geometry):
        plane_a = PlaneArray(tiny_geometry, seed=5)
        plane_b = PlaneArray(tiny_geometry, seed=5)
        a1 = plane_a.block(BlockAddress(0, 1, 0))
        # Materialize in a different order in plane_b.
        b2 = plane_b.block(BlockAddress(0, 2, 0))
        b1 = plane_b.block(BlockAddress(0, 1, 0))
        a2 = plane_a.block(BlockAddress(0, 2, 0))
        np.testing.assert_array_equal(a1.vth, b1.vth)
        np.testing.assert_array_equal(a2.vth, b2.vth)
        assert not np.array_equal(a1.vth, a2.vth)

    def test_invalid_address_rejected(self, tiny_geometry):
        plane = PlaneArray(tiny_geometry)
        with pytest.raises(IndexError):
            plane.block(BlockAddress(0, 999, 0))


#: Two planes of two blocks of two sub-blocks, four wordlines each.
_SMALL = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=2,
    subblocks_per_block=2,
    wordlines_per_string=4,
    page_size_bits=80,
)
_WORDLINES = st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    st.integers(0, 3),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("program", "erase", "copyback")),
            _WORDLINES,
            _WORDLINES,
        ),
        max_size=30,
    ),
    seed=st.integers(0, 2**16),
)
def test_content_version_is_the_count_and_sum_of_layout_versions(ops, seed):
    """After any program / erase / copyback sequence the O(1) stamp is
    ``(n blocks, sum of their layout_version)``, the sum recomputed
    here from the blocks themselves."""
    chip = NandFlashChip(_SMALL, inject_errors=False, seed=seed)
    rng = np.random.default_rng(seed)
    plane = chip.plane_array
    for op, (p, b, s, w), (p2, b2, s2, w2) in ops:
        source = WordlineAddress(p, b, s, w)
        if op == "erase":
            chip.erase_block(source.block_address)
        elif not plane.block(source.block_address).metadata[w].programmed:
            bits = rng.integers(0, 2, _SMALL.page_size_bits, dtype=np.uint8)
            chip.program_page(source, bits)
        elif op == "copyback":
            target = WordlineAddress(p, b2, s2, w2)
            meta = plane.block(target.block_address).metadata[w2]
            if not meta.programmed:
                chip.copyback(source, target)
        blocks = [plane.block(a) for a in plane.materialized()]
        assert plane.content_version() == (
            len(blocks),
            sum(block.layout_version for block in blocks),
        )
