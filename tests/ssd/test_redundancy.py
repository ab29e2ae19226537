"""Parity-protected striping at the SSD/engine level.

The contract: with ``parity=True`` every rotation group of
``n_chips - 1`` data chunks carries one parity chunk (word-wise XOR,
computed on the packed plane at ingest) on a chip hosting none of the
group's members; ``reconstruct_chunk_bits`` rebuilds any chunk's
logical bits from survivors + parity, bit-exactly, even with the
chunk's chip offline; and ``execute_tasks(..., reconstruct=True)``
turns chip-loss failures into reconstructed results identical to the
NumPy oracle, while a parity-off SSD keeps its typed failure.
"""

import numpy as np
import pytest

from reference_data_plane import drain, query_result, tasks_of
from repro.core.expressions import And, Operand, evaluate
from repro.flash.errors import ChipUnavailableError, ReconstructionError
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.writes import parity_write_amplification

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)


def _build(n_chips=4, n_chunks=6, seed=3, parity=True):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed, parity=parity)
    n_bits = ssd.page_bits * n_chunks
    rng = np.random.default_rng(seed)
    env = {}
    for name in ("a", "b", "c"):
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


# ----------------------------------------------------------------------
# Placement and ingest
# ----------------------------------------------------------------------


def test_parity_chip_hosts_no_group_member():
    ssd, _ = _build()
    ftl = ssd.ftl
    record = ftl.lookup("a")
    for g in range(ftl.parity_group_count(record.n_chunks)):
        pchip = ftl.parity_chip(g)
        assert pchip is not None
        members = {
            ftl.chip_of_chunk(c)
            for c in ftl.group_data_chunks(g)
            if c < record.n_chunks
        }
        assert pchip not in members


def test_parity_page_is_wordwise_xor_of_group():
    ssd, env = _build()
    ftl = ssd.ftl
    record = ftl.lookup("a")
    # ``read_page`` returns logical bits, so the stored parity page
    # must equal the XOR of the group's logical bit rows -- the
    # bit-level view of the word-wise XOR computed at ingest.
    rows = env["a"].reshape(record.n_chunks, ssd.page_bits)
    for g in range(ftl.parity_group_count(record.n_chunks)):
        members = [
            c for c in ftl.group_data_chunks(g) if c < record.n_chunks
        ]
        expected = np.bitwise_xor.reduce(rows[members], axis=0)
        ctrl = ssd.controllers[ftl.parity_chip(g)]
        stored = ctrl.stored(f"a!p{g}")
        got = ctrl.chip.read_page(stored.address, inverse=stored.inverted)
        np.testing.assert_array_equal(got, expected)


def test_parity_requires_packed_plane_and_two_chips():
    with pytest.raises(ValueError, match="error-free chips"):
        SmallSsd(
            n_chips=4, geometry=GEOMETRY, inject_errors=True, parity=True
        )
    with pytest.raises(ValueError):
        SmallSsd(n_chips=1, geometry=GEOMETRY, parity=True)


def test_delete_vector_unregisters_parity_operands():
    ssd, _ = _build()
    ftl = ssd.ftl
    record = ftl.lookup("a")
    groups = range(ftl.parity_group_count(record.n_chunks))
    for g in groups:
        assert f"a!p{g}" in ssd.controllers[ftl.parity_chip(g)].directory.names()
    ssd.delete_vector("a")
    for g in groups:
        for ctrl in ssd.controllers:
            assert f"a!p{g}" not in ctrl.directory.names()


def test_parity_write_amplification():
    assert parity_write_amplification(2) == 2.0
    assert parity_write_amplification(4) == pytest.approx(4 / 3)
    assert parity_write_amplification(9) == pytest.approx(9 / 8)
    with pytest.raises(ValueError):
        parity_write_amplification(1)


# ----------------------------------------------------------------------
# Reconstruction primitive
# ----------------------------------------------------------------------


def test_reconstruct_every_chunk_bit_exact():
    ssd, env = _build()
    record = ssd.ftl.lookup("b")
    rows = env["b"].reshape(record.n_chunks, ssd.page_bits)
    for chunk in range(record.n_chunks):
        got = ssd.reconstruct_chunk_bits("b", chunk)
        np.testing.assert_array_equal(got, rows[chunk])


def test_reconstruct_survives_offline_chip():
    ssd, env = _build()
    record = ssd.ftl.lookup("a")
    victim = ssd.ftl.chip_of_chunk(0)
    ssd.kill_chip(victim)
    with pytest.raises(ChipUnavailableError):
        ssd.read_vector("a")
    rows = env["a"].reshape(record.n_chunks, ssd.page_bits)
    for chunk in range(record.n_chunks):
        if ssd.ftl.chip_of_chunk(chunk) != victim:
            continue
        got = ssd.reconstruct_chunk_bits("a", chunk)
        np.testing.assert_array_equal(got, rows[chunk])


def test_reconstruct_without_parity_raises_typed_error():
    ssd, _ = _build(parity=False)
    with pytest.raises(ReconstructionError):
        ssd.reconstruct_chunk_bits("a", 0)


def test_double_fault_raises_reconstruction_error():
    ssd, _ = _build()
    # Kill the chunk's chip *and* a surviving sibling's chip: parity
    # tolerates exactly one loss per rotation group.
    ftl = ssd.ftl
    g = ftl.group_of_chunk(0)
    members = [c for c in ftl.group_data_chunks(g) if c < 6]
    ssd.kill_chip(ftl.chip_of_chunk(members[0]))
    ssd.kill_chip(ftl.chip_of_chunk(members[1]))
    with pytest.raises(ReconstructionError):
        ssd.reconstruct_chunk_bits("a", members[0])


# ----------------------------------------------------------------------
# Engine: degraded read path
# ----------------------------------------------------------------------


def test_execute_tasks_reconstructs_lost_chip_results():
    ssd, env = _build()
    expr = And(And(Operand("a"), Operand("b")), Operand("c"))
    victim = ssd.ftl.chip_of_chunk(0)
    ssd.kill_chip(victim)
    prepared = ssd.engine.prepare(expr)
    outcomes = drain(
        ssd.engine,
        tasks_of(prepared, 0), reconstruct=True
    )
    pieces = [None] * prepared.n_chunks
    rebuilt = 0
    for outcome in outcomes:
        assert outcome.error is None
        pieces[outcome.task.chunk] = outcome.data
        if outcome.reconstructed:
            rebuilt += 1
            assert outcome.latency_us == 0.0
            # Survivor senses were charged to real, living chips.
            assert outcome.recovery_work
            for chip, busy_us in outcome.recovery_work:
                assert chip != victim
                assert busy_us > 0.0
    assert rebuilt > 0
    bits = query_result(ssd, prepared, pieces).bits
    np.testing.assert_array_equal(bits, evaluate(expr, env))
    stats = ssd.engine.stats
    assert stats.reconstructed_plans == rebuilt
    assert stats.reconstruction_senses > 0


def test_execute_tasks_without_parity_keeps_typed_failure():
    ssd, _ = _build(parity=False)
    expr = And(Operand("a"), Operand("b"))
    ssd.kill_chip(ssd.ftl.chip_of_chunk(0))
    prepared = ssd.engine.prepare(expr)
    outcomes = drain(
        ssd.engine,
        tasks_of(prepared, 0), reconstruct=True
    )
    errors = [o.error for o in outcomes if o.error is not None]
    assert errors
    assert all(isinstance(e, ChipUnavailableError) for e in errors)


# ----------------------------------------------------------------------
# Satellite: wear/error-history-driven placement
# ----------------------------------------------------------------------


def test_health_weights_skew_new_columns_away_from_sick_chip():
    ssd = SmallSsd(n_chips=4, geometry=GEOMETRY, seed=9, parity=True)
    # Sick chip 2 gets a fifth of the healthy weight *before* any
    # column exists; the stripe allocator should starve it.
    ssd.ftl.set_chip_health({0: 1.0, 1: 1.0, 2: 0.2, 3: 1.0})
    n_chunks = 12
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, ssd.page_bits * n_chunks, dtype=np.uint8)
    ssd.write_vector("v", bits, group="g")
    placed = [ssd.ftl.chip_of_chunk(c) for c in range(n_chunks)]
    counts = {chip: placed.count(chip) for chip in range(4)}
    assert counts[2] < min(counts[0], counts[1], counts[3])
    # Placement skew never breaks the distinctness invariant.
    for g in range(ssd.ftl.parity_group_count(n_chunks)):
        members = {
            ssd.ftl.chip_of_chunk(c)
            for c in ssd.ftl.group_data_chunks(g)
            if c < n_chunks
        }
        assert ssd.ftl.parity_chip(g) not in members
    np.testing.assert_array_equal(ssd.read_vector("v"), bits)


def test_uniform_health_weights_restore_pure_stripe():
    ssd = SmallSsd(n_chips=4, geometry=GEOMETRY, seed=9)
    ssd.ftl.set_chip_health({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, ssd.page_bits * 8, dtype=np.uint8)
    ssd.write_vector("v", bits, group="g")
    assert [ssd.ftl.chip_of_chunk(c) for c in range(8)] == [
        c % 4 for c in range(8)
    ]
