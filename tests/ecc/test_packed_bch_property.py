"""Randomized equivalence: packed (word-wide) BCH vs the byte-bit
oracle.

``BchCode.encode_batch`` / ``syndromes_batch`` / ``decode_batch`` and
``PageCodec`` run the interleave over ``uint64`` lane words.  These properties pin them to the scalar reference across
random payloads, injected error patterns up to (and beyond) t, and
lane counts that exercise zero-padding of the final lane word --
including the 80-lane configuration mirroring the 80-bit padded page
geometry used by the packed-plane suites.  Decode-failure accounting
must match exactly: a lane the scalar decoder rejects with
``BchDecodeFailure`` must be the same lane the packed path reports
failed, with identical passthrough bits.
"""

import numpy as np
import pytest

from repro.ecc.bch import BchCode, BchDecodeFailure, pack_lanes, unpack_lanes
from repro.ecc.page_codec import PageCodec

#: (m, t) grid: small fields for cheap exhaustive-ish loops, m=8/t=2
#: matching the full-page bench configuration.
CODES = [(4, 1), (5, 2), (6, 3), (8, 2)]

#: Lane counts: single lane, partial word, exactly one word, the
#: 80-lane padded configuration, and a multi-word count.
LANE_COUNTS = [1, 3, 64, 80, 130]


@pytest.fixture(params=CODES, ids=lambda mt: f"m{mt[0]}t{mt[1]}")
def code(request):
    return BchCode(*request.param)


def _flip(rng, word, n_errors):
    positions = rng.choice(len(word), size=n_errors, replace=False)
    word[positions] ^= 1
    return positions


def test_pack_lanes_roundtrip_zero_padding():
    """pack_lanes zero-pads (unlike the stored-page ones-padding) and
    unpack_lanes inverts it exactly."""
    rng = np.random.default_rng(7)
    for n_lanes in LANE_COUNTS:
        matrix = rng.integers(0, 2, size=(9, n_lanes)).astype(np.uint8)
        packed = pack_lanes(matrix)
        assert packed.shape == (9, -(-n_lanes // 64))
        assert np.array_equal(unpack_lanes(packed, n_lanes), matrix)
        # Padding lanes are zero: OR of all words has no bit past the
        # last real lane.
        if n_lanes % 64:
            tail = int(np.bitwise_or.reduce(packed[:, -1]))
            assert tail >> (n_lanes % 64) == 0


@pytest.mark.parametrize("n_lanes", LANE_COUNTS)
def test_encode_batch_matches_scalar(code, n_lanes):
    rng = np.random.default_rng(code.n * 1000 + n_lanes)
    data = rng.integers(0, 2, size=(code.k, n_lanes)).astype(np.uint8)
    batch = code.encode_batch(data)
    for j in range(n_lanes):
        assert np.array_equal(batch[:, j], code.encode(data[:, j]))


@pytest.mark.parametrize("n_lanes", LANE_COUNTS)
def test_syndromes_batch_matches_scalar(code, n_lanes):
    rng = np.random.default_rng(code.n * 2000 + n_lanes)
    data = rng.integers(0, 2, size=(code.k, n_lanes)).astype(np.uint8)
    received = code.encode_batch(data)
    # Perturb a third of the lanes with 1..2t errors so clean, dirty
    # and beyond-t syndromes all appear.
    for j in range(0, n_lanes, 3):
        _flip(rng, received[:, j], int(rng.integers(1, 2 * code.t + 1)))
    batch = code.syndromes_batch(received)
    assert batch.shape == (2 * code.t, n_lanes)
    for j in range(n_lanes):
        assert list(batch[:, j]) == code.syndromes(received[:, j])


@pytest.mark.parametrize("n_lanes", LANE_COUNTS)
def test_decode_batch_matches_scalar(code, n_lanes):
    """Per-lane decoded bits, correction counts, and failure flags all
    match the scalar decoder -- including which lanes raise
    BchDecodeFailure."""
    rng = np.random.default_rng(code.n * 3000 + n_lanes)
    data = rng.integers(0, 2, size=(code.k, n_lanes)).astype(np.uint8)
    received = code.encode_batch(data)
    for j in range(n_lanes):
        kind = j % 4
        if kind == 1:
            _flip(rng, received[:, j], int(rng.integers(1, code.t + 1)))
        elif kind == 2:
            # Beyond-t burst: usually detected-uncorrectable.
            _flip(rng, received[:, j], min(2 * code.t + 1, code.n))
        elif kind == 3:
            received[:, j] = rng.integers(0, 2, size=code.n)
    batch_data, corrected, failed = code.decode_batch(received)
    for j in range(n_lanes):
        try:
            decoded, n_errors = code.decode(received[:, j])
        except BchDecodeFailure:
            assert failed[j], f"lane {j}: scalar failed, packed did not"
            assert np.array_equal(
                batch_data[:, j], received[: code.k, j]
            ), f"lane {j}: failed lane must pass systematic bits through"
            assert corrected[j] == 0
            continue
        assert not failed[j], f"lane {j}: packed failed, scalar did not"
        assert np.array_equal(batch_data[:, j], decoded)
        assert corrected[j] == n_errors


def test_clean_page_decodes_without_scalar_fallback(code, monkeypatch):
    """An error-free page never reaches the scalar decoder: the
    all-zero syndrome test short-circuits every lane."""
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, size=(code.k, 64)).astype(np.uint8)
    received = code.encode_batch(data)

    def boom(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("scalar decode called on a clean page")

    monkeypatch.setattr(code, "decode", boom)
    batch_data, corrected, failed = code.decode_batch(received)
    assert np.array_equal(batch_data, data)
    assert corrected.sum() == 0 and not failed.any()


def _encode_page_per_codeword(code, n_codewords, page):
    """The page codec's interleaved encode, one codeword at a time."""
    chunks = page.reshape(code.k, n_codewords)
    words = [code.encode(chunks[:, j]) for j in range(n_codewords)]
    return np.stack(words, axis=1).reshape(-1)


def _decode_page_per_codeword(code, n_codewords, stored):
    """The page codec's decode, one codeword at a time: ``(data bits,
    corrected, failed)``; a codeword the scalar decoder rejects passes
    its systematic bits through."""
    words = stored.reshape(code.n, n_codewords)
    data = words[: code.k].copy()
    corrected = failed = 0
    for j in range(n_codewords):
        try:
            data[:, j], n = code.decode(words[:, j])
        except BchDecodeFailure:
            failed += 1
            continue
        corrected += n
    return data.reshape(-1), corrected, failed


@pytest.mark.parametrize("n_codewords", [1, 80])
def test_page_codec_packed_matches_oracle(code, n_codewords):
    """PageCodec is bit-identical to the per-codeword byte-bit loop:
    encoded pages, decoded payloads, corrected-bit counts, and failed
    codeword counts, across clean, correctable, and saturated pages."""
    packed = PageCodec(code, n_codewords)
    rng = np.random.default_rng(code.n * 4000 + n_codewords)
    for round_no in range(3):
        page = rng.integers(0, 2, size=packed.logical_bits).astype(np.uint8)
        stored_p = packed.encode_page(page)
        stored_o = _encode_page_per_codeword(code, n_codewords, page)
        assert np.array_equal(stored_p, stored_o)
        noisy = stored_p.copy()
        if round_no:
            n_flips = int(
                rng.integers(1, 2 * code.t * max(1, n_codewords // 2) + 2)
            )
            noisy[
                rng.choice(noisy.size, size=n_flips, replace=False)
            ] ^= 1
        result_p = packed.decode_page(noisy)
        data_o, corrected_o, failed_o = _decode_page_per_codeword(
            code, n_codewords, noisy
        )
        assert np.array_equal(result_p.data_bits, data_o)
        assert result_p.corrected_bits == corrected_o
        assert result_p.failed_codewords == failed_o
        assert result_p.ok == (failed_o == 0)
