"""Randomized equivalence: the batched V_TH error plane vs the scalar
per-sense loop.

``MwsExecutor.execute_batch`` now batches error-injecting queues
through ``NandFlashChip.execute_sense_batch_vth``: the whole window's
V_TH perturbation and VREF compare run grouped per stress condition,
with one Gaussian block drawn for the window and split in the exact
(sense, block-target) order the scalar loop draws in.  The contract
these properties pin down:

* **Same draws, same bits** -- the chip RNG's draw *schedule* is
  preserved, so the corrupted words are the same corrupted words, the
  post-window RNG state is identical, and everything downstream
  (retry counts, recovery decisions) agrees bit for bit;
* **Float-identical accounting** -- per-outcome latency/energy and the
  chips' cost counters replay the scalar charge sequence exactly;
* **Degraded mode rides the batch plane** -- health-degraded chips
  batch their margin-read queues (``execute_degraded_batch``) with
  identical results, counters, and extra-sense ladder charges;
* **Fallbacks are exact and draw-free** -- MLC targets and injected
  bad blocks return the queue to the per-sense loop *before* any RNG
  draw or read-disturb side effect, so fallback windows are
  indistinguishable from never having tried to batch.
"""

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    assert_chips_equal,
    assert_outcomes_equal,
    twin_ssd,
    walk_tasks,
    window_tasks,
    drain,
)
from repro.core.expressions import And, Not, Operand, Xor, and_all, or_all
from repro.flash.array import BlockArray
from repro.flash.errors import ErrorModel, OperatingCondition
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.geometry import BlockAddress
from repro.flash.ispp import ProgramMode
from repro.flash.sensing import SensingEngine
from repro.ssd.controller import SmallSsd


#: A worn, retentive stress point so error injection actually corrupts
#: bits (pristine conditions decode error-free by construction).
STRESS = OperatingCondition(pe_cycles=3000, retention_months=6.0, reads=2000)


def _noisy_ssd(data_seed, **kwargs):
    """A twin SSD (no inverted operand) on the stressed V_TH plane."""
    return twin_ssd(
        data_seed,
        inverted=False,
        inject_errors=True,
        condition=STRESS,
        **kwargs,
    )


def _expression_pool():
    a0, a1, a2 = Operand("a0"), Operand("a1"), Operand("a2")
    solo = Operand("solo")
    return [
        and_all([a0, a1, a2]),
        Not(And(a0, a1)),
        or_all([And(a0, a1), solo]),
        Xor(a0, solo),
        And(a0, a1),
    ]


def _scenario(seed):
    rng = np.random.default_rng(52_000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 4))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    pool = _expression_pool()
    window = [
        pool[int(rng.integers(len(pool)))]
        for _ in range(int(rng.integers(2, 9)))
    ]
    return dict(
        n_chips=n_chips,
        n_bits=n_bits,
        ssd_seed=int(rng.integers(1 << 16)),
        data_seed=int(rng.integers(1 << 16)),
        window=window,
        share=bool(rng.integers(2)),
    )


@pytest.mark.parametrize("seed", range(8))
def test_error_window_batch_matches_per_sense_loop(seed):
    """An error-injecting window drained batch-first is bit- and
    float-identical to the per-sense loop: same corrupted words, same
    costs, same post-window RNG state."""
    s = _scenario(seed)
    build = lambda: _noisy_ssd(  # noqa: E731 - twin factory
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    batch_ssd, _ = build()
    loop_ssd, _ = build()
    batch_out = drain(
        batch_ssd.engine,
        window_tasks(batch_ssd, s["window"]), share=s["share"]
    )
    loop_out = walk_tasks(
        loop_ssd.engine,
        window_tasks(loop_ssd, s["window"]),
        share=s["share"],
    )
    assert_outcomes_equal(batch_out, loop_out)
    assert_chips_equal(batch_ssd, loop_ssd)


@pytest.mark.parametrize("seed", range(4))
def test_error_batch_collapses_dispatches(seed):
    """The batched V_TH plane really batches: one executor dispatch
    per chip touched, versus one per unique plan on the scalar loop."""
    s = _scenario(seed)
    ssd, _ = _noisy_ssd(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    tasks = window_tasks(ssd, s["window"])
    chips_touched = len({t.chip for t in tasks})
    before = ssd.engine.stats.executor_dispatches
    drain(ssd.engine, tasks, share=True)
    assert ssd.engine.stats.executor_dispatches - before == chips_touched


@pytest.mark.parametrize("seed", range(4))
def test_recovery_window_unaffected_by_batch_flag(seed):
    """With an active fault injector and a recovery policy the queue
    runs per plan (fault draws are per attempt); forcing the walk
    must not change outcomes, retry counts, stall charges, or the
    fault-draw schedule."""
    s = _scenario(seed)
    make_injector = lambda: FaultInjector(  # noqa: E731
        FaultConfig(sense_fault_rate=0.25, stall_rate=0.3, seed=seed)
    )
    batch_ssd, _ = _noisy_ssd(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=make_injector(),
    )
    loop_ssd, _ = _noisy_ssd(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=make_injector(),
    )
    policy = RecoveryPolicy()
    batch_out = drain(
        batch_ssd.engine,
        window_tasks(batch_ssd, s["window"]),
        share=s["share"],
        recovery=policy,
    )
    loop_out = walk_tasks(
        loop_ssd.engine,
        window_tasks(loop_ssd, s["window"]),
        share=s["share"],
        recovery=policy,
    )
    assert_outcomes_equal(batch_out, loop_out)
    assert_chips_equal(batch_ssd, loop_ssd)


@pytest.mark.parametrize("seed", range(4))
def test_degraded_chips_ride_the_batch_plane(seed):
    """Health-degraded chips batch their margin-read queues: results,
    counters (including the extra-sense ladder), and dispatch collapse
    all match the per-plan degraded loop."""
    s = _scenario(seed)
    build = lambda: SmallSsd(  # noqa: E731 - error-free twins
        n_chips=2, geometry=GEOMETRY, seed=s["ssd_seed"]
    )
    batch_ssd, loop_ssd = build(), build()
    rng = np.random.default_rng(s["data_seed"])
    for ssd in (batch_ssd, loop_ssd):
        r = np.random.default_rng(s["data_seed"])
        for i in range(3):
            ssd.write_vector(
                f"a{i}",
                r.integers(0, 2, s["n_bits"], dtype=np.uint8),
                group="g",
            )
        ssd.write_vector(
            "solo", r.integers(0, 2, s["n_bits"], dtype=np.uint8)
        )
    del rng
    policy = RecoveryPolicy(degraded_extra_senses=2)
    batch_out = drain(
        batch_ssd.engine,
        window_tasks(batch_ssd, s["window"]),
        share=s["share"],
        degraded=[0, 1],
        recovery=policy,
    )
    loop_out = walk_tasks(
        loop_ssd.engine,
        window_tasks(loop_ssd, s["window"]),
        share=s["share"],
        degraded=[0, 1],
        recovery=policy,
    )
    assert_outcomes_equal(batch_out, loop_out)
    assert_chips_equal(batch_ssd, loop_ssd)
    assert all(o.degraded for o in batch_out if o.error is None)
    chips_touched = len({o.task.chip for o in batch_out})
    assert (
        batch_ssd.engine.stats.executor_dispatches <= chips_touched
    )


def test_degraded_bad_block_falls_back_to_per_plan_faults():
    """A degraded queue touching an injected bad block must not batch:
    the per-plan loop's typed ``BadBlockFault`` outcomes (and the
    healthy plans' successes) are preserved exactly."""
    s = _scenario(1)
    build = lambda: SmallSsd(  # noqa: E731
        n_chips=2, geometry=GEOMETRY, seed=s["ssd_seed"]
    )
    ssds = []
    for _ in range(2):
        ssd = build()
        r = np.random.default_rng(s["data_seed"])
        for i in range(3):
            ssd.write_vector(
                f"a{i}",
                r.integers(0, 2, s["n_bits"], dtype=np.uint8),
                group="g",
            )
        ssd.write_vector(
            "solo", r.integers(0, 2, s["n_bits"], dtype=np.uint8)
        )
        addr = ssd.controllers[0].stored("a0@0").address
        ssd.attach_fault_injector(
            FaultInjector(
                FaultConfig(
                    seed=3,
                    bad_blocks=(
                        (0, addr.plane, addr.block, addr.subblock),
                    ),
                )
            )
        )
        ssds.append(ssd)
    batch_ssd, loop_ssd = ssds
    kwargs = dict(
        share=True, degraded=[0, 1], recovery=RecoveryPolicy()
    )
    batch_out = drain(
        batch_ssd.engine,
        window_tasks(batch_ssd, s["window"]), **kwargs
    )
    loop_out = walk_tasks(
        loop_ssd.engine, window_tasks(loop_ssd, s["window"]), **kwargs
    )
    assert_outcomes_equal(batch_out, loop_out)
    assert_chips_equal(batch_ssd, loop_ssd)
    assert any(o.error is not None for o in batch_out)


# ----------------------------------------------------------------------
# Direct properties of the batched V_TH primitive
# ----------------------------------------------------------------------


def _make_blocks(n, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(n):
        block = BlockArray(
            GEOMETRY,
            BlockAddress(0, b, 0),
            rng=np.random.default_rng(300 + b),
        )
        for wl in range(GEOMETRY.wordlines_per_string):
            page = rng.integers(
                0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
            )
            if b % 2:
                block.program(
                    wl, page, mode=ProgramMode.ESP, esp_extra=0.5
                )
            else:
                block.program(wl, page, mode=ProgramMode.SLC)
        block.pe_cycles = 500 * b
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("seed", range(5))
def test_sense_batch_vth_mixed_conditions_match_scalar(seed):
    """The sensing-level primitive: mixed stress conditions, mixed
    target shapes, SLC and ESP pages, per-block wear -- batched rows,
    post-batch RNG state, and read-disturb accounting all equal the
    sequential ``inter_block_mws`` loop."""
    conditions = [
        OperatingCondition(),
        OperatingCondition(pe_cycles=2000, retention_months=3.0),
        STRESS,
    ]
    rng = np.random.default_rng(60_000 + seed)
    window = []
    for _ in range(int(rng.integers(3, 9))):
        n_targets = int(rng.integers(1, 4))
        targets = []
        for _ in range(n_targets):
            b = int(rng.integers(6))
            wordlines = tuple(
                sorted(
                    map(
                        int,
                        rng.choice(
                            GEOMETRY.wordlines_per_string,
                            size=int(rng.integers(1, 4)),
                            replace=False,
                        ),
                    )
                )
            )
            targets.append((b, wordlines))
        window.append(
            (targets, conditions[int(rng.integers(len(conditions)))])
        )

    scalar_blocks = _make_blocks(6, seed)
    scalar_engine = SensingEngine(ErrorModel(), rng=np.random.default_rng(17))
    scalar_rows = [
        scalar_engine.inter_block_mws(
            [(scalar_blocks[b], wls) for b, wls in targets], condition
        ).bits
        for targets, condition in window
    ]

    batch_blocks = _make_blocks(6, seed)
    batch_engine = SensingEngine(ErrorModel(), rng=np.random.default_rng(17))
    out = batch_engine.sense_batch_vth(
        [
            [(batch_blocks[b], wls) for b, wls in targets]
            for targets, _ in window
        ],
        [condition for _, condition in window],
    )
    assert out is not None
    for i, row in enumerate(scalar_rows):
        np.testing.assert_array_equal(out[i], row)
    assert (
        scalar_engine.rng.bit_generator.state
        == batch_engine.rng.bit_generator.state
    )
    for b_s, b_b in zip(scalar_blocks, batch_blocks):
        assert b_s.reads_since_erase == b_b.reads_since_erase


def test_sense_batch_vth_mlc_falls_back_without_side_effects():
    """Any MLC target sends the whole window back to the per-sense
    loop *before* a single draw or read-disturb bump."""
    blocks = _make_blocks(2, 3)
    mlc = BlockArray(
        GEOMETRY, BlockAddress(0, 7, 0), rng=np.random.default_rng(9)
    )
    rng = np.random.default_rng(4)
    mlc.program_mlc(
        0,
        rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8),
        rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8),
    )
    engine = SensingEngine(ErrorModel(), rng=np.random.default_rng(17))
    state = engine.rng.bit_generator.state
    reads = [b.reads_since_erase for b in (*blocks, mlc)]
    out = engine.sense_batch_vth(
        [[(blocks[0], (0,))], [(mlc, (0,))], [(blocks[1], (1,))]],
        [OperatingCondition()] * 3,
    )
    assert out is None
    assert engine.rng.bit_generator.state == state
    assert [b.reads_since_erase for b in (*blocks, mlc)] == reads


def test_sense_batch_vth_refuses_packed_error_free_plane():
    engine = SensingEngine(ErrorModel(), inject_errors=False)
    with pytest.raises(RuntimeError, match="V_TH error plane"):
        engine.sense_batch_vth([], [])
