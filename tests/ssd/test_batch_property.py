"""Randomized equivalence: batched window execution vs the scalar
per-sense walk vs the ``SmallSsd.query`` oracle.

``QueryEngine.execute_tasks`` now executes each chip's deduplicated
queue through ``MwsExecutor.execute_batch`` -- whole-window tensor
senses plus lane-parallel latch replay.  These properties pin the
batch plane to the reference semantics over arbitrary plan mixes
(AND groups, inverse-stored ORs, inter-block ORs, OR-of-AND,
AND-of-inverse-OR, XOR commands, ``Not``-wrapped inverse senses),
random chip counts, chunk counts, share on/off, and both ways of
sensing:

* outcome data, shared flags, and sense counts must match the walk
  (``reference_data_plane.walk_tasks``) exactly;
* per-outcome latency/energy and the chips' cost counters must be
  *float-identical* (the batch path replays the scalar charge
  sequence, not an approximation of it);
* assembled per-query bits must equal both the NumPy oracle and a
  third SSD's synchronous ``query``;
* the latch end-state per plane must be what scalar execution leaves.

The 80-bit page geometry keeps padding words in play (pages that are
not a multiple of 64 bits are the packed representation's trickiest
configuration); ``vth`` runs serve every chip on the V_TH margin-read
route (``force_vth``, no extra ladder senses), which walks plan by plan
on both sides and must agree with the packed oracle bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    twin_expressions,
    twin_ssd,
    assembled,
    assert_chips_equal,
    assert_outcomes_equal,
    walk_tasks,
    window_tasks,
    drain,
)
from repro.core.expressions import And, Operand, evaluate
from repro.flash.faults import RecoveryPolicy
from repro.flash.latches import LatchStateError
from repro.flash.packing import pack_rows


def _scenario(seed):
    rng = np.random.default_rng(10_000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 5))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    ssd_seed = int(rng.integers(1 << 16))
    data_seed = int(rng.integers(1 << 16))
    pool = twin_expressions()
    window = [
        pool[int(rng.integers(len(pool)))]
        for _ in range(int(rng.integers(2, 9)))
    ]
    share = bool(rng.integers(2))
    return dict(
        n_chips=n_chips,
        n_bits=n_bits,
        ssd_seed=ssd_seed,
        data_seed=data_seed,
        window=window,
        share=share,
    )


@pytest.mark.parametrize("vth", [True, False])
@pytest.mark.parametrize("seed", range(14))
def test_batch_window_matches_scalar_loop_and_oracle(seed, vth):
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731 - twin factory
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    batch_ssd, env = build()
    loop_ssd, _ = build()
    oracle_ssd, _ = build()

    batch_tasks = window_tasks(batch_ssd, s["window"])
    route = dict(share=s["share"])
    if vth:
        route.update(
            degraded=range(s["n_chips"]),
            recovery=RecoveryPolicy(degraded_extra_senses=0),
        )
    batch_out = drain(batch_ssd.engine, batch_tasks, **route)
    loop_out = walk_tasks(
        loop_ssd.engine, window_tasks(loop_ssd, s["window"]), **route
    )
    # One dispatch per chip queue; margin reads walk, one per plan.
    chips = len({task.chip for task in batch_tasks})
    walked = loop_ssd.engine.stats.executor_dispatches
    assert batch_ssd.engine.stats.executor_dispatches == (
        walked if vth else chips
    )
    assert all(outcome.degraded == vth for outcome in batch_out)
    # Float-identical, not approximately equal: the batch path replays
    # the walk's charge sequence; the last plan's latch state lands.
    assert_outcomes_equal(batch_out, loop_out)
    assert_chips_equal(batch_ssd, loop_ssd)

    bits = assembled(batch_ssd, s["window"], batch_out)
    for expr, got in zip(s["window"], bits):
        expected = evaluate(expr, env)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(oracle_ssd.query(expr).bits, expected)


@pytest.mark.parametrize("seed", range(6))
def test_batch_dispatches_collapse_to_chip_count(seed):
    s = _scenario(seed)
    ssd, _ = twin_ssd(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    tasks = window_tasks(ssd, s["window"])
    chips_touched = len({t.chip for t in tasks})
    before = ssd.engine.stats.executor_dispatches
    drain(ssd.engine, tasks, share=True)
    assert (
        ssd.engine.stats.executor_dispatches - before == chips_touched
    )


def test_shared_subscribers_reference_executed_data():
    s = _scenario(3)
    ssd, _ = twin_ssd(
        s["data_seed"],
        n_chips=2,
        n_bits=2 * GEOMETRY.page_size_bits,
        ssd_seed=1,
    )
    expr = And(Operand("a0"), Operand("a1"))
    tasks = window_tasks(ssd, [expr, expr, expr])
    outcomes = drain(ssd.engine, tasks, share=True)
    executed = [o for o in outcomes if not o.shared]
    shared = [o for o in outcomes if o.shared]
    assert executed and shared
    assert len(executed) + len(shared) == len(outcomes)
    for o in shared:
        assert o.n_senses == 0 and o.latency_us == 0.0
        twin = next(
            e
            for e in executed
            if (e.task.chip, e.task.plan) == (o.task.chip, o.task.plan)
        )
        assert o.data is twin.data


# ----------------------------------------------------------------------
# Direct protocol-level properties of the batched primitives
# ----------------------------------------------------------------------


def test_sense_batch_refuses_vth_plane():
    ssd, _ = twin_ssd(
        1, n_chips=1, n_bits=80, ssd_seed=1, inject_errors=True
    )
    chip = ssd.chips[0]
    with pytest.raises(RuntimeError, match="packed error-free"):
        chip.execute_sense_batch([])
    with pytest.raises(RuntimeError, match="packed error-free"):
        chip.sensing.sense_batch_stacks(chip.plane_array, [], [])


def test_an_error_injecting_chip_has_no_batch():
    """Every sense of an error-injecting chip draws V_TH noise, and
    only the walk draws it: the probe says no, and the batch refuses
    before anything is drawn, sensed, counted or dispatched."""
    ssd, _ = twin_ssd(
        1, n_chips=1, n_bits=80, ssd_seed=1, inject_errors=True
    )
    chip, executor = ssd.chips[0], ssd.controllers[0].executor
    plans = [task.plan for task in window_tasks(ssd, twin_expressions())]
    array = chip.plane_array
    blocks = [array.block(address) for address in array.materialized()]

    def state():
        return (
            chip.sensing.rng.bit_generator.state,
            replace(chip.counters),
            executor.dispatches,
            [block.reads_since_erase for block in blocks],
        )

    before = state()
    assert not executor.batchable(plans)
    with pytest.raises(RuntimeError, match="no batched equivalent"):
        executor.execute_batch(plans)
    assert state() == before


@pytest.mark.parametrize("seed", range(4))
def test_sense_batch_rows_match_per_sense_outcomes(seed):
    """`NandFlashChip.resolve` + `SensingEngine.sense_batch_stacks` (the
    batch primitives, with the caller's read-disturb accounting as
    `execute_sense_batch` does it) must produce, row for row, the
    words the per-sense `inter_block_mws` path produces -- with
    identical read-disturb accounting."""
    from repro.core.commands import MwsCommand
    from repro.flash.chip import IscmFlags

    rng = np.random.default_rng(40_000 + seed)
    data_seed = int(rng.integers(1 << 16))
    batch_ssd, _ = twin_ssd(data_seed, n_chips=1, n_bits=80, ssd_seed=3)
    scalar_ssd, _ = twin_ssd(data_seed, n_chips=1, n_bits=80, ssd_seed=3)
    controller = batch_ssd.controllers[0]
    addr = lambda name: controller.stored(f"{name}@0").address  # noqa: E731
    block = lambda name: addr(name).block_address  # noqa: E731
    line = lambda name: addr(name).wordline  # noqa: E731
    senses = [
        # intra-block AND over the co-located group
        [(block("a0"), (line("a0"), line("a1")))],
        # single-wordline read
        [(block("solo"), (line("solo"),))],
        # inter-block OR-of-ANDs across distinct blocks
        [
            (block("a0"), (line("a0"), line("a2"))),
            (block("solo"), (line("solo"),)),
        ],
    ]

    def targets_for(ssd):
        block = ssd.chips[0].plane_array.block
        return [[(block(a), w) for a, w in sense] for sense in senses]

    condition = scalar_ssd.chips[0].condition
    chip = batch_ssd.chips[0]
    resolved = [
        chip.resolve(MwsCommand(IscmFlags(), tuple(sense))) for sense in senses
    ]
    for blocks, (_, profile, _) in resolved:
        for block, n_wordlines in zip(blocks, profile):
            block.note_read(n_wordlines)
    rows = chip.sensing.sense_batch_stacks(
        chip.plane_array,
        [shared[2] for _, shared in resolved],
        [shared[1] for _, shared in resolved],
    )
    for row, sense in zip(rows, targets_for(scalar_ssd)):
        outcome = scalar_ssd.chips[0].sensing.inter_block_mws(
            [(b, tuple(w)) for b, w in sense], condition
        )
        np.testing.assert_array_equal(row, outcome.words)
    for addr_b, addr_s in zip(
        batch_ssd.chips[0].plane_array.materialized(),
        scalar_ssd.chips[0].plane_array.materialized(),
    ):
        assert (
            batch_ssd.chips[0].plane_array.block(addr_b).reads_since_erase
            == scalar_ssd.chips[0]
            .plane_array.block(addr_s)
            .reads_since_erase
        )


def test_capture_batch_unpacked_matches_scalar_protocol():
    """The batched replay over packed rows of 0/1 matrices has the
    exact semantics of the scalar protocol fed the same pages
    unpacked, one lane at a time."""
    from repro.flash.chip import IscmFlags
    from repro.flash.latches import LatchBank

    rng = np.random.default_rng(11)
    steps = [
        IscmFlags(init_cache=True, init_sense=True, transfer=False),
        IscmFlags(init_sense=False, transfer=True),  # AND-accumulate
        IscmFlags(init_sense=True, inverse=True, transfer=False),
        None,  # latch XOR command
    ]
    matrices = [
        rng.integers(0, 2, (3, 80), dtype=np.uint8) for _ in range(3)
    ]
    batch_bank = LatchBank(80)
    out = batch_bank.capture_batch(
        steps, [pack_rows(m) for m in matrices], land_lane=2
    )
    for lane in range(3):
        bank = LatchBank(80)
        sensed = iter(m[lane] for m in matrices)
        for step in steps:
            if step is None:
                bank.xor_into_cache()
                continue
            if step.init_cache:
                bank.init_cache()
            if step.init_sense:
                bank.init_sense()
            bank.capture(next(sensed), inverse=step.inverse)
            if step.transfer:
                bank.transfer_to_cache()
        np.testing.assert_array_equal(out[lane], bank.cache_words)
        if lane == 2:
            np.testing.assert_array_equal(
                batch_bank.cache_data, bank.cache_data
            )
            np.testing.assert_array_equal(
                batch_bank.sense_data, bank.sense_data
            )


def test_capture_batch_protocol_errors_match_scalar():
    from repro.flash.chip import IscmFlags
    from repro.flash.latches import LatchBank

    bank = LatchBank(80)
    rows = np.zeros((2, 2), dtype=np.uint64)
    # Inverse capture without S-latch init: rejected like the scalar
    # protocol.
    with pytest.raises(LatchStateError, match="freshly initialized"):
        bank.capture_batch(
            [IscmFlags(inverse=True, init_sense=False)], [rows]
        )
    # XOR before any sense: both latches empty.
    with pytest.raises(LatchStateError, match="XOR requires"):
        bank.capture_batch([None], [])
