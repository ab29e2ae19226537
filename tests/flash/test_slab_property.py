"""A plane's packed rows live in one slab that grows by doubling.

Random histories of block materializations, programs and erases, each
crossing at least two slab growths.  After every step:

* every materialized block's ``_packed`` is a view of the current slab
  (growth re-pointed it), and ``row_of`` finds its rows there;
* every wordline's ``stored_bits`` equals a per-block shadow of what
  was programmed (ones where erased);
* ``SensingEngine.sense_batch_stacks``, gathering off the slab, equals
  the per-block reference kernel (``tests/reference_sense_path.py``)
  word for word on a window of intra-block ANDs and inter-block ORs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sense_path as reference
from repro.flash.array import FIRST_BLOCKS, PlaneArray, first_row
from repro.flash.errors import ErrorModel
from repro.flash.geometry import ChipGeometry, iter_blocks
from repro.flash.sensing import SensingEngine

#: 80-bit pages keep a padding word in play.
GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=5,
    subblocks_per_block=2,
    wordlines_per_string=4,
    page_size_bits=80,
)
ADDRESSES = list(iter_blocks(GEOMETRY))
N_WL = GEOMETRY.wordlines_per_string
#: The slab maps FIRST_BLOCKS blocks' rows first, then doubles (capped
#: at the chip's 20 blocks): the 17th block is past a second growth.
MIN_BLOCKS = 2 * FIRST_BLOCKS + 1


@st.composite
def histories(draw):
    """Materialize ``MIN_BLOCKS``.. distinct blocks in a random order,
    each followed by programs and erases of blocks materialized so
    far; every step carries a seed for its data and its sense window."""
    order = draw(st.permutations(range(len(ADDRESSES))))
    n_blocks = draw(st.integers(MIN_BLOCKS, len(ADDRESSES)))
    seed = st.integers(0, 2**32 - 1)
    steps = []
    for count, index in enumerate(order[:n_blocks], start=1):
        steps.append(("block", index, draw(seed)))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["program", "program", "erase"]))
            target = draw(st.sampled_from(order[:count]))
            steps.append((kind, target, draw(seed)))
    return steps


def _window(rng, plane, blocks):
    """A few senses over the materialized blocks: per sense one plane's
    blocks, each with a random wordline set."""
    by_plane = {}
    for index in blocks:
        by_plane.setdefault(ADDRESSES[index].plane, []).append(index)
    senses = []
    for _ in range(int(rng.integers(1, 6))):
        members = list(by_plane.values())[int(rng.integers(len(by_plane)))]
        picks = rng.permutation(members)[: int(rng.integers(1, 4))]
        senses.append(
            [
                (
                    plane.block(ADDRESSES[index]),
                    np.sort(
                        rng.permutation(N_WL)[: int(rng.integers(1, N_WL + 1))]
                    ),
                )
                for index in picks
            ]
        )
    return senses


def _check(plane, shadow, rng):
    for index, pages in shadow.items():
        block = plane.block(ADDRESSES[index])
        assert np.shares_memory(block._packed, plane.slab)
        first = first_row(GEOMETRY, ADDRESSES[index])
        rows = plane.row_of[first : first + N_WL]
        assert (plane.slab[rows] == block._packed).all()
        for wordline, bits in enumerate(pages):
            assert (block.stored_bits(wordline) == bits).all()
    senses = _window(rng, plane, list(shadow))
    rows = [
        np.concatenate(
            [first_row(GEOMETRY, b.address) + w for b, w in sense]
        )
        for sense in senses
    ]
    profiles = [tuple(len(w) for _, w in sense) for sense in senses]
    engine = SensingEngine(ErrorModel(), inject_errors=False)
    oracle = SensingEngine(ErrorModel(), inject_errors=False)
    out = engine.sense_batch_stacks(plane, rows, profiles)
    expected = reference.sense_batch_stacks(oracle, senses, profiles)
    assert out.dtype == expected.dtype and (out == expected).all()
    assert engine.restacked_tensors == oracle.restacked_tensors


@settings(max_examples=100, deadline=None)
@given(steps=histories())
def test_slab_growth_keeps_every_block_and_every_sense(steps):
    plane = PlaneArray(GEOMETRY, noise_enabled=False)
    erased = np.ones(GEOMETRY.page_size_bits, dtype=np.uint8)
    shadow: dict[int, list[np.ndarray]] = {}
    growths, capacity = 0, len(plane.slab)
    for kind, index, seed in steps:
        rng = np.random.default_rng(seed)
        if kind == "block":
            plane.block(ADDRESSES[index])
            shadow[index] = [erased] * N_WL
        elif kind == "erase":
            plane.block(ADDRESSES[index]).erase()
            shadow[index] = [erased] * N_WL
        else:
            pages = shadow[index]
            free = [w for w, bits in enumerate(pages) if bits is erased]
            if free:
                bits = rng.integers(0, 2, GEOMETRY.page_size_bits, np.uint8)
                plane.block(ADDRESSES[index]).program(free[0], bits)
                pages[free[0]] = bits
        if len(plane.slab) != capacity:  # the first map is no growth
            growths, capacity = growths + bool(capacity), len(plane.slab)
        _check(plane, shadow, rng)
    assert growths >= 2
    assert len(plane.materialized()) == len(shadow)
