"""Randomized equivalence: the packed uint64 word reduce vs the
per-cell V_TH comparison vs the NumPy oracle.

Every scenario is executed twice on one SSD -- through ``query`` (error-
free senses reduce packed word rows) and through
``reference_data_plane.vth_query`` (every sense evaluated through the
V_TH matrix, ``force_vth``, the way the retired one-byte-per-bit plane
sensed).  Results must be bit-identical to each other and to the NumPy
oracle, across expression shapes (AND groups, inverse-stored ORs,
inter-block ORs, mixed OR-of-AND, XOR commands), inverse senses
(``Not`` plans), and unaligned vector lengths that exercise the
zero-padded final chunk.  Cost accounting (sense counts, latency) must
also agree: how a sense is evaluated never changes the commands.
"""

import inspect

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    assembled,
    vth_query,
    window_tasks,
    drain,
)
from repro.core.expressions import (
    And,
    Not,
    Operand,
    Xor,
    and_all,
    evaluate,
    or_all,
)
from repro.ssd.controller import SmallSsd


PATTERNS = ("and_group", "or_inverse_group", "or_blocks", "mixed", "xor")


def build_pair(rng):
    """One random scenario materialized on twin SSDs with identical
    data (one per way of sensing), plus the oracle environment."""
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 6))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    seed = int(rng.integers(1 << 16))
    ssds = [
        SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed)
        for _ in range(2)
    ]
    pattern = PATTERNS[int(rng.integers(len(PATTERNS)))]
    n_ops = int(rng.integers(2, 5))
    names = [f"v{i}" for i in range(n_ops)]
    env = {
        name: rng.integers(0, 2, n_bits, dtype=np.uint8) for name in names
    }
    ops = [Operand(n) for n in names]

    def write(name, **kwargs):
        for ssd in ssds:
            ssd.write_vector(name, env[name], **kwargs)

    if pattern == "and_group":
        for name in names:
            write(name, group="g")
        expr = and_all(ops)
    elif pattern == "or_inverse_group":
        for name in names:
            write(name, group="g", inverse=True)
        expr = or_all(ops)
    elif pattern == "or_blocks":
        for name in names:
            write(name)
        expr = or_all(ops)
    elif pattern == "mixed":
        write(names[0], group="g")
        write(names[1], group="g")
        for name in names[2:]:
            write(name)
        expr = or_all([And(ops[0], ops[1])] + ops[2:])
    else:  # xor -- exercises the latch XOR command
        for name in names:
            write(name)
        expr = Xor(ops[0], ops[1])

    # A Not on top forces an inverse sense (or an inverted final
    # plan), covering the inverse-capture path.
    if pattern != "xor" and rng.random() < 0.4:
        expr = Not(expr)
    return ssds, env, expr


@pytest.mark.parametrize("seed", range(25))
def test_packed_backend_matches_uint8_path(seed):
    rng = np.random.default_rng(7000 + seed)
    (packed_ssd, plain_ssd), env, expr = build_pair(rng)
    expected = evaluate(expr, env)

    packed_result = packed_ssd.query(expr)
    plain_result = vth_query(plain_ssd, expr)

    np.testing.assert_array_equal(packed_result.bits, expected)
    np.testing.assert_array_equal(plain_result.bits, expected)
    np.testing.assert_array_equal(packed_result.bits, plain_result.bits)

    # The evaluation method is not the command stream: both issue
    # identical senses at identical modeled cost.
    assert packed_result.n_senses == plain_result.n_senses
    assert packed_result.latency_us == plain_result.latency_us
    assert packed_result.energy_nj == plain_result.energy_nj


@pytest.mark.parametrize("seed", range(10))
def test_packed_read_vector_matches_uint8_path(seed):
    rng = np.random.default_rng(8000 + seed)
    (packed_ssd, plain_ssd), env, _ = build_pair(rng)
    for name, bits in env.items():
        np.testing.assert_array_equal(packed_ssd.read_vector(name), bits)
        # A bare operand is a read: through the V_TH comparison here.
        np.testing.assert_array_equal(
            vth_query(plain_ssd, Operand(name)).bits, bits
        )


@pytest.mark.parametrize("seed", range(5))
def test_packed_batch_matches_uint8_path(seed):
    rng = np.random.default_rng(9000 + seed)
    (packed_ssd, plain_ssd), env, expr = build_pair(rng)
    expected = evaluate(expr, env)
    for result in packed_ssd.engine.query_batch([expr, expr]).results:
        np.testing.assert_array_equal(result.bits, expected)
    # The same stream on the V_TH plane: every chip on margin reads.
    window = [expr, expr]
    outcomes = drain(
        plain_ssd.engine,
        window_tasks(plain_ssd, window), degraded=range(len(plain_ssd.chips))
    )
    assert all(outcome.degraded for outcome in outcomes)
    for bits in assembled(plain_ssd, window, outcomes):
        np.testing.assert_array_equal(bits, expected)


def test_no_second_data_plane_option():
    """One data plane, no switch back: no constructor takes ``packed``
    and the drain takes no ``batch``."""
    from repro.ecc.page_codec import PageCodec
    from repro.flash.chip import NandFlashChip
    from repro.flash.latches import LatchBank
    from repro.flash.sensing import SensingEngine
    from repro.ssd.query_engine import QueryEngine

    for api in (
        SmallSsd,
        NandFlashChip,
        SensingEngine,
        LatchBank,
        PageCodec,
        QueryEngine.execute_tasks,
    ):
        parameters = inspect.signature(api).parameters
        assert not {"packed", "batch"} & parameters.keys(), api
