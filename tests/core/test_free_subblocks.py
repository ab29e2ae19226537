"""``FlashCosmos.free_subblocks`` counts; it builds no address.

The maintenance plane asks every chip for its free sub-blocks every
window, so the count is ``total - cursor`` less the retired sub-blocks
at or past the cursor, plus the GC free list.  The reference below is
the scan it replaced, one ``BlockAddress`` per sub-block ahead of the
cursor; the two must agree over any allocate / retire / release
sequence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import AllocationError, FlashCosmos
from repro.flash.chip import NandFlashChip
from repro.flash.geometry import BlockAddress, ChipGeometry

GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=5,
    subblocks_per_block=3,
    wordlines_per_string=4,
    page_size_bits=64,
)


def scanned_free_subblocks(fc: FlashCosmos, plane: int) -> int:
    """The address-building scan: every sub-block from the cursor on,
    checked against the retired set one address at a time."""
    g = fc.chip.geometry
    total = g.blocks_per_plane * g.subblocks_per_block
    index = fc._next_subblock.get(plane, 0)
    ahead = sum(
        1
        for i in range(index, total)
        if BlockAddress(
            plane=plane,
            block=i // g.subblocks_per_block,
            subblock=i % g.subblocks_per_block,
        )
        not in fc._retired_subblocks
    )
    return ahead + sum(1 for a in fc._free_subblocks if a.plane == plane)


addresses = st.builds(
    BlockAddress,
    plane=st.integers(0, 1),
    block=st.integers(0, GEOMETRY.blocks_per_plane - 1),
    subblock=st.integers(0, GEOMETRY.subblocks_per_block - 1),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(0, 1)),
        st.tuples(st.just("retire"), addresses),
        st.tuples(st.just("release"), addresses),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(steps=steps)
def test_free_count_is_the_address_scan(steps):
    fc = FlashCosmos(NandFlashChip(GEOMETRY, seed=0))
    handed_out = []
    for op, arg in steps:
        if op == "allocate":
            try:
                handed_out.append(fc._allocate_subblock(arg))
            except AllocationError:
                pass
        elif op == "retire":
            fc.retire_subblock(arg)
        else:
            # Release something allocated (what GC hands back), or the
            # drawn address as it stands.
            if handed_out and arg.block % 2:
                arg = handed_out.pop()
            fc.release_subblock(arg)
        for plane in (0, 1):
            assert fc.free_subblocks(plane) == scanned_free_subblocks(
                fc, plane
            )
