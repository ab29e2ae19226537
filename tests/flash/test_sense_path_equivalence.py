"""The single-gather sensing kernel and the copy-not-fill latch replay
reproduce their predecessors (``tests/reference_sense_path.py``) word
for word: every comparison below is ``==``, never ``approx`` -- on the
output matrix and ``restacked_tensors`` for
``SensingEngine.sense_batch_stacks``; on the returned rows, the bank's
landed S/C words, ``ops`` and the exception (type, message, and the
step it fires at) for ``LatchBank.capture_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sense_path as reference
from repro.flash.array import BlockArray, PlaneArray, first_row
from repro.flash.chip import IscmFlags
from repro.flash.errors import ErrorModel
from repro.flash.geometry import BlockAddress, ChipGeometry
from repro.flash.latches import LatchBank, LatchStateError
from repro.flash.packing import pack_rows
from repro.flash.sensing import SensingEngine

#: A full 48-wordline string; 80-bit pages keep a padding word in play.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=4,
    subblocks_per_block=1,
    wordlines_per_string=48,
    page_size_bits=80,
)
PAGE_BITS = GEOMETRY.page_size_bits
#: Latch replays run ``padded`` (80 bits ride a padded last word) and
#: not (128 bits fill two words exactly: an all-zero padding mask).
REPLAY_BITS = {True: PAGE_BITS, False: 128}


#: The blocks' packed rows live in one slab, which the kernel gathers
#: from; the reference reads each block's own rows.
PLANE = PlaneArray(GEOMETRY, noise_enabled=False)


def _programmed_blocks() -> list[BlockArray]:
    rng = np.random.default_rng(2022)
    blocks = []
    for index in range(GEOMETRY.blocks_per_plane):
        block = PLANE.block(BlockAddress(0, index, 0))
        for wordline in range(GEOMETRY.wordlines_per_string):
            block.program(
                wordline, rng.integers(0, 2, PAGE_BITS, dtype=np.uint8)
            )
        blocks.append(block)
    return blocks


#: Sensing only reads the blocks, so every example shares one set.
BLOCKS = _programmed_blocks()


def _engine() -> SensingEngine:
    return SensingEngine(ErrorModel(), inject_errors=False)


# ----------------------------------------------------------------------
# (b) sense_batch_stacks
# ----------------------------------------------------------------------

WORDLINES = st.sets(
    st.integers(0, GEOMETRY.wordlines_per_string - 1),
    min_size=1,
    max_size=GEOMETRY.wordlines_per_string,
)
#: Small sets too, so that equal profiles (shared group tensors, both
#: adjacent and scattered through the window) are the common case.
FEW_WORDLINES = st.sets(
    st.integers(0, GEOMETRY.wordlines_per_string - 1), min_size=1, max_size=3
)


@st.composite
def sense_windows(draw):
    """1-12 senses x 1-4 blocks x 1-48 wordlines, profiles mixed."""
    window = []
    for _ in range(draw(st.integers(1, 12))):
        picks = draw(
            st.lists(
                st.integers(0, len(BLOCKS) - 1),
                min_size=1,
                max_size=len(BLOCKS),
                unique=True,
            )
        )
        window.append(
            [
                (BLOCKS[b], tuple(draw(st.one_of(FEW_WORDLINES, WORDLINES))))
                for b in picks
            ]
        )
    return window


def assert_same_senses(window):
    engine, oracle = _engine(), _engine()
    # What resolution hands the kernel: per sense its targets' sorted
    # address rows; the reference, per block its sorted rows.
    sources = [
        tuple((block, SensingEngine._rows(wls)) for block, wls in targets)
        for targets in window
    ]
    rows = [
        np.concatenate(
            [first_row(GEOMETRY, block.address) + r for block, r in source]
        )
        for source in sources
    ]
    profiles = [tuple(len(wls) for _, wls in targets) for targets in window]
    out = engine.sense_batch_stacks(PLANE, rows, profiles)
    expected = reference.sense_batch_stacks(oracle, sources, profiles)
    assert out.dtype == expected.dtype
    assert out.shape == expected.shape
    assert (out == expected).all()
    assert engine.restacked_tensors == oracle.restacked_tensors
    return out


@settings(max_examples=200, deadline=None)
@given(window=sense_windows())
def test_single_gather_kernel_equals_reference(window):
    assert_same_senses(window)


def test_scattered_and_adjacent_profile_groups():
    """Profile ``(2,)`` at positions 0, 1 and 3 (a group with a gap:
    reduced aside, stored by index) around a lone ``(1, 1)`` OR and a
    lone ``(2, 1)`` OR-of-ANDs (gap-free groups: reduced in place)."""
    b0, b1 = BLOCKS[0], BLOCKS[1]
    window = [
        [(b0, (3, 7))],
        [(b1, (0, 47))],
        [(b0, (5,)), (b1, (6,))],
        [(b0, (11, 12))],
        [(b0, (1, 2)), (b1, (9,))],
    ]
    out = assert_same_senses(window)
    # Against first principles too, not only against the old kernel.
    bits = [block.written for block in BLOCKS]
    expected_bits = np.stack(
        [
            bits[0][3] & bits[0][7],
            bits[1][0] & bits[1][47],
            bits[0][5] | bits[1][6],
            bits[0][11] & bits[0][12],
            (bits[0][1] & bits[0][2]) | bits[1][9],
        ]
    )
    assert (out == pack_rows(expected_bits)).all()


def test_empty_window_and_vth_plane_still_refused():
    with pytest.raises(ValueError, match="at least one sense"):
        _engine().sense_batch_stacks(PLANE, [], [])
    noisy = SensingEngine(ErrorModel(), inject_errors=True)
    with pytest.raises(RuntimeError, match="packed error-free plane"):
        noisy.sense_batch_stacks(PLANE, [], [])


# ----------------------------------------------------------------------
# (c) capture_batch
# ----------------------------------------------------------------------

#: A sense step's four ISCM flags, or ``None`` for the latch XOR.
STEP = st.one_of(
    st.none(),
    st.builds(
        IscmFlags,
        inverse=st.booleans(),
        init_sense=st.booleans(),
        init_cache=st.booleans(),
        transfer=st.booleans(),
    ),
)


@st.composite
def replays(draw):
    padded = draw(st.booleans())
    n_lanes = draw(st.integers(1, 4))
    steps = draw(st.lists(STEP, min_size=0, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrices = []
    for step in steps:
        if step is not None:
            shape = (n_lanes, REPLAY_BITS[padded])
            bits = rng.integers(0, 2, shape, dtype=np.uint8)
            matrices.append(pack_rows(bits))
    land_lane = draw(st.one_of(st.none(), st.integers(0, n_lanes - 1)))
    return padded, steps, matrices, land_lane


def _dirty_bank(padded: bool) -> LatchBank:
    """A bank whose persistent latches already hold a pattern, so a
    landing copy that fails to happen (or happens twice) shows."""
    bank = LatchBank(REPLAY_BITS[padded])
    bank.init_sense()
    bank.init_cache()
    bank.capture(np.arange(REPLAY_BITS[padded], dtype=np.uint8) % 2)
    bank.transfer_to_cache()
    return bank


def _outcome(capture, steps, matrices, land_lane):
    """The replay's rows, or its exception as ``(type, message)``."""
    try:
        return capture(steps, matrices, land_lane=land_lane)
    except (LatchStateError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_replay(padded, steps, matrices, land_lane):
    bank, oracle = _dirty_bank(padded), _dirty_bank(padded)
    got = _outcome(bank.capture_batch, steps, matrices, land_lane)
    expected = _outcome(
        lambda *args, **kwargs: reference.capture_batch(
            oracle, *args, **kwargs
        ),
        steps,
        matrices,
        land_lane,
    )
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert got.dtype == expected.dtype
        assert (got == expected).all()
    # A raise leaves the bank as it was, a landing rewrites it: the
    # same either way in both.
    assert bank.ops == oracle.ops
    assert (bank.sense_words == oracle.sense_words).all()
    assert (bank.cache_words == oracle.cache_words).all()
    return got


@settings(max_examples=400, deadline=None)
@given(case=replays())
def test_latch_replay_equals_reference(case):
    """Every prefix of the sequence too: equal outcomes on each pin
    the step an exception fires at, not only that it fires."""
    padded, steps, matrices, land_lane = case
    for end in range(len(steps) + 1):
        n_senses = sum(step is not None for step in steps[:end])
        assert_same_replay(
            padded, steps[:end], matrices[:n_senses], land_lane
        )


def flags(
    *, inverse=False, init_sense=False, init_cache=False, transfer=False
):
    """ISCM flags, all off unless named (``IscmFlags`` defaults the
    three non-inverse ones on)."""
    return IscmFlags(
        inverse=inverse,
        init_sense=init_sense,
        init_cache=init_cache,
        transfer=transfer,
    )


#: One-shot MWS: initialise both latches, capture, transfer.
FRESH = flags(init_sense=True, init_cache=True, transfer=True)
#: Re-initialise both latches and capture, but transfer nothing.
INIT_ONLY = flags(init_sense=True, init_cache=True)


def _matrices(padded, n_senses, n_lanes=3, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_senses):
        shape = (n_lanes, REPLAY_BITS[padded])
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        # No all-zero lane: a fill that was skipped must show.
        bits[:, 0] = 1
        out.append(pack_rows(bits))
    return out


@pytest.mark.parametrize("padded", [True, False])
class TestDirectedReplays:
    def test_one_shot_sense_is_the_sensed_rows(self, padded):
        (data,) = matrices = _matrices(padded, 1)
        rows = assert_same_replay(padded, [FRESH], matrices, 1)
        assert (rows == data).all()

    def test_inverse_after_init(self, padded):
        steps = [
            flags(
                inverse=True, init_sense=True, init_cache=True, transfer=True
            )
        ]
        (data,) = matrices = _matrices(padded, 1)
        rows = assert_same_replay(padded, steps, matrices, 0)
        assert (rows == (~data | LatchBank(REPLAY_BITS[padded])._pad)).all()

    def test_inverse_without_init_raises_at_its_step(self, padded):
        steps = [FRESH, flags(inverse=True, transfer=True)]
        matrices = _matrices(padded, 2)
        assert not isinstance(
            assert_same_replay(padded, steps[:1], matrices[:1], 0), tuple
        )
        assert assert_same_replay(padded, steps, matrices, 0) == (
            LatchStateError,
            "inverse sensing requires a freshly initialized S-latch",
        )

    def test_and_accumulate_without_any_init_raises(self, padded):
        got = assert_same_replay(
            padded, [flags(init_cache=True)], _matrices(padded, 1), None
        )
        assert got == (LatchStateError, "S-latch used before initialization")

    def test_transfer_with_no_init_cache_raises(self, padded):
        got = assert_same_replay(
            padded,
            [flags(init_sense=True, transfer=True)],
            _matrices(padded, 1),
            None,
        )
        assert got == (LatchStateError, "transfer with uninitialized C-latch")

    def test_xor_before_any_sense_raises(self, padded):
        got = assert_same_replay(padded, [None], [], None)
        assert got == (
            LatchStateError,
            "XOR requires both latches to hold data",
        )

    def test_xor_straight_after_an_init_only_step(self, padded):
        """Step 0 writes the C-latch, step 1 re-initialises it and
        transfers nothing, then the XOR: it must see the zeros of the
        init, not step 0's data.  Fails if the deferred zero fill is
        dropped before the XOR."""
        matrices = _matrices(padded, 2)
        rows = assert_same_replay(
            padded, [FRESH, INIT_ONLY, None], matrices, 2
        )
        assert (rows == matrices[1]).all()  # 0 XOR sensed

    def test_landing_after_an_init_only_step(self, padded):
        """The same sequence without the XOR: the rows returned and
        the C-latch landed in the bank are the init's zeros.  Fails if
        the deferred zero fill is dropped before the landing copy."""
        rows = assert_same_replay(
            padded, [FRESH, INIT_ONLY], _matrices(padded, 2), 0
        )
        assert (rows == LatchBank(REPLAY_BITS[padded])._pad).all()

    def test_or_accumulate_after_a_copy(self, padded):
        """The transfer after an init copies; the next one ORs."""
        steps = [FRESH, flags(init_sense=True, transfer=True)]
        matrices = _matrices(padded, 2)
        rows = assert_same_replay(padded, steps, matrices, None)
        assert (rows == (matrices[0] | matrices[1])).all()

    def test_and_accumulate_after_a_copy(self, padded):
        """The capture after an init copies; the next one ANDs."""
        steps = [INIT_ONLY, flags(transfer=True)]
        matrices = _matrices(padded, 2)
        rows = assert_same_replay(padded, steps, matrices, None)
        assert (rows == (matrices[0] & matrices[1])).all()

    def test_no_landing_leaves_the_bank_alone(self, padded):
        bank = _dirty_bank(padded)
        before = (bank.ops, bank.sense_words, bank.cache_words)
        bank.capture_batch([FRESH], _matrices(padded, 1))
        assert bank.ops == before[0]
        assert (bank.sense_words == before[1]).all()
        assert (bank.cache_words == before[2]).all()

    def test_wrong_matrix_shape_raises(self, padded):
        matrices = _matrices(padded, 2)
        matrices[1] = matrices[1][:2]
        got = assert_same_replay(padded, [FRESH, FRESH], matrices, None)
        assert got[0] is ValueError
