"""Randomized equivalence: batched window execution vs the scalar
per-sense loop vs the ``SmallSsd.query`` oracle.

``QueryEngine.execute_tasks`` now executes each chip's deduplicated
queue through ``MwsExecutor.execute_batch`` -- whole-window tensor
senses plus lane-parallel latch replay.  These properties pin the
batch plane to the reference semantics over arbitrary plan mixes
(AND groups, inverse-stored ORs, inter-block ORs, OR-of-AND,
AND-of-inverse-OR, XOR commands, ``Not``-wrapped inverse senses),
random chip counts, chunk counts, share on/off, and both data planes:

* outcome data, shared flags, and sense counts must match the scalar
  loop exactly;
* per-outcome latency/energy and the chips' cost counters must be
  *float-identical* (the batch path replays the scalar charge
  sequence, not an approximation of it);
* assembled per-query bits must equal both the NumPy oracle and a
  third SSD's synchronous ``query``;
* the latch end-state per plane must be what scalar execution leaves.

The 80-bit page geometry keeps padding words in play (pages that are
not a multiple of 64 bits are the packed representation's trickiest
configuration); ``packed=False`` runs exercise the batched V_TH plane
(``MwsExecutor.execute_batch`` on an unpacked chip), which must stay bit- and
float-identical to the per-sense loop too.
"""

import numpy as np
import pytest

from repro.core.expressions import (
    And,
    Not,
    Operand,
    Xor,
    and_all,
    evaluate,
    or_all,
)
from repro.flash.geometry import ChipGeometry
from repro.flash.latches import LatchStateError
from repro.ssd.controller import SmallSsd

#: 80-bit pages: every packed page carries padding bits.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)


def _build_one(rng_seed, *, n_chips, n_bits, ssd_seed, packed):
    """One SSD + operand environment, reproducible from the seeds so
    twin SSDs hold identical data."""
    rng = np.random.default_rng(rng_seed)
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=ssd_seed, packed=packed
    )
    env = {}
    for i in range(3):
        env[f"a{i}"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(f"a{i}", env[f"a{i}"], group="g")
    env["inv"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
    ssd.write_vector("inv", env["inv"], group="h", inverse=True)
    env["solo"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
    ssd.write_vector("solo", env["solo"])
    return ssd, env


def _expression_pool():
    """Every planner shape the batch plane must reproduce: direct AND
    accumulation, inverse senses (Not), inter-block OR, OR-of-AND,
    inverse-unit-first conjunctions, and the latch XOR command."""
    a0, a1, a2 = Operand("a0"), Operand("a1"), Operand("a2")
    inv, solo = Operand("inv"), Operand("solo")
    return [
        and_all([a0, a1, a2]),              # intra-block MWS
        Not(And(a0, a1)),                   # inverse sense
        or_all([And(a0, a1), solo]),        # OR-of-AND (Equation 1)
        or_all([inv, solo]),                # inverse unit + direct unit
        And(or_all([inv]), a0),             # inverse-first conjunction
        Xor(a0, solo),                      # latch XOR command
        Not(Xor(a1, solo)),                 # XNOR (inverse second half)
        And(a0, a1),                        # repeated light shape
    ]


def _scenario(seed):
    rng = np.random.default_rng(10_000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 5))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    ssd_seed = int(rng.integers(1 << 16))
    data_seed = int(rng.integers(1 << 16))
    pool = _expression_pool()
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


def _prepare_window(ssd, window):
    tasks, prepared = [], []
    for query, expr in enumerate(window):
        p = ssd.engine.prepare(expr)
        prepared.append(p)
        tasks.extend(p.tasks(query=query))
    return tasks, prepared


def _assemble(ssd, prepared, outcomes, query):
    pieces = [None] * prepared[query].n_chunks
    for outcome in outcomes:
        if outcome.task.query == query:
            pieces[outcome.task.chunk] = outcome.data
    return ssd.engine.assemble_bits(prepared[query], pieces)


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("seed", range(14))
def test_batch_window_matches_scalar_loop_and_oracle(seed, packed):
    s = _scenario(seed)
    build = lambda: _build_one(  # noqa: E731 - twin factory
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        packed=packed,
    )
    batch_ssd, env = build()
    loop_ssd, _ = build()
    oracle_ssd, _ = build()

    batch_tasks, prepared = _prepare_window(batch_ssd, s["window"])
    loop_tasks, _ = _prepare_window(loop_ssd, s["window"])

    batch_out = batch_ssd.engine.execute_tasks(
        batch_tasks, share=s["share"], batch=True
    )
    loop_out = loop_ssd.engine.execute_tasks(
        loop_tasks, share=s["share"], batch=False
    )

    assert len(batch_out) == len(loop_out) == len(batch_tasks)
    for b, l in zip(batch_out, loop_out):
        assert b.task.query == l.task.query
        assert b.shared == l.shared
        assert b.n_senses == l.n_senses
        # Float-identical, not approximately equal: the batch path
        # replays the scalar charge sequence.
        assert b.latency_us == l.latency_us
        assert b.energy_nj == l.energy_nj
        np.testing.assert_array_equal(b.data, l.data)

    for query, expr in enumerate(s["window"]):
        expected = evaluate(expr, env)
        bits = _assemble(batch_ssd, prepared, batch_out, query)
        np.testing.assert_array_equal(bits, expected)
        np.testing.assert_array_equal(
            oracle_ssd.query(expr).bits, expected
        )

    for chip_b, chip_l in zip(batch_ssd.chips, loop_ssd.chips):
        cb, cl = chip_b.counters, chip_l.counters
        assert cb.senses == cl.senses
        assert cb.wordlines_sensed == cl.wordlines_sensed
        assert cb.transfers_out == cl.transfers_out
        assert cb.busy_us == cl.busy_us
        assert cb.energy_nj == cl.energy_nj
        # Read-disturb accounting is per block and must agree too.
        for addr in chip_b.plane_array.materialized():
            assert (
                chip_b.plane_array.block(addr).reads_since_erase
                == chip_l.plane_array.block(addr).reads_since_erase
            )
        # The batched queue lands the last plan's latch state, so the
        # banks read back identically afterwards.
        for plane, bank_b in chip_b.latches.items():
            bank_l = chip_l.latches[plane]
            if bank_l._cache is None:
                assert bank_b._cache is None
            else:
                np.testing.assert_array_equal(
                    bank_b.cache_data, bank_l.cache_data
                )
                np.testing.assert_array_equal(
                    bank_b.sense_data, bank_l.sense_data
                )


@pytest.mark.parametrize("seed", range(6))
def test_batch_dispatches_collapse_to_chip_count(seed):
    s = _scenario(seed)
    ssd, _ = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        packed=True,
    )
    tasks, _ = _prepare_window(ssd, s["window"])
    chips_touched = len({t.chip for t in tasks})
    before = ssd.engine.stats.executor_dispatches
    ssd.engine.execute_tasks(tasks, share=True, batch=True)
    assert (
        ssd.engine.stats.executor_dispatches - before == chips_touched
    )


def test_shared_subscribers_reference_executed_data():
    s = _scenario(3)
    ssd, _ = _build_one(
        s["data_seed"],
        n_chips=2,
        n_bits=2 * GEOMETRY.page_size_bits,
        ssd_seed=1,
        packed=True,
    )
    expr = And(Operand("a0"), Operand("a1"))
    tasks, _ = _prepare_window(ssd, [expr, expr, expr])
    outcomes = ssd.engine.execute_tasks(tasks, share=True, batch=True)
    executed = [o for o in outcomes if not o.shared]
    shared = [o for o in outcomes if o.shared]
    assert executed and shared
    assert len(executed) + len(shared) == len(outcomes)
    for o in shared:
        assert o.n_senses == 0 and o.latency_us == 0.0
        twin = next(
            e for e in executed if e.task.share_key == o.task.share_key
        )
        assert o.data is twin.data


# ----------------------------------------------------------------------
# Direct protocol-level properties of the batched primitives
# ----------------------------------------------------------------------


def test_sense_batch_refuses_vth_plane():
    ssd, _ = _build_one(1, n_chips=1, n_bits=80, ssd_seed=1, packed=False)
    chip = ssd.chips[0]
    with pytest.raises(RuntimeError, match="packed error-free"):
        chip.execute_sense_batch([])
    with pytest.raises(RuntimeError, match="packed error-free"):
        chip.sensing.sense_batch_stacks([], [])


@pytest.mark.parametrize("seed", range(4))
def test_sense_batch_rows_match_per_sense_outcomes(seed):
    """`SensingEngine.resolve_sense` + `sense_batch_stacks` (the
    library-level batch primitives, with the caller's read-disturb
    accounting as the chip does it) must produce, row for row, the
    words the per-sense `inter_block_mws` path produces -- with
    identical read-disturb accounting."""
    rng = np.random.default_rng(40_000 + seed)
    data_seed = int(rng.integers(1 << 16))
    batch_ssd, _ = _build_one(
        data_seed, n_chips=1, n_bits=80, ssd_seed=3, packed=True
    )
    scalar_ssd, _ = _build_one(
        data_seed, n_chips=1, n_bits=80, ssd_seed=3, packed=True
    )

    def targets_for(ssd):
        controller = ssd.controllers[0]
        addr = lambda name: controller.stored(f"{name}@0").address  # noqa: E731
        block = lambda name: ssd.chips[0].plane_array.block(  # noqa: E731
            addr(name).block_address
        )
        return [
            # intra-block AND over the co-located group
            [(block("a0"), (addr("a0").wordline, addr("a1").wordline))],
            # single-wordline read
            [(block("solo"), (addr("solo").wordline,))],
            # inter-block OR-of-ANDs across distinct blocks
            [
                (block("a0"), (addr("a0").wordline, addr("a2").wordline)),
                (block("solo"), (addr("solo").wordline,)),
            ],
        ]

    condition = scalar_ssd.chips[0].condition
    sensing = batch_ssd.chips[0].sensing
    resolved = [sensing.resolve_sense(t) for t in targets_for(batch_ssd)]
    for source, profile in resolved:
        for (block, _), n_wordlines in zip(source, profile):
            block.note_read(n_wordlines)
    rows = sensing.sense_batch_stacks(*map(list, zip(*resolved)))
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
    """The unpacked bank replays the batched latch protocol over 0/1
    byte matrices with the scalar bank's exact semantics (the batched
    V_TH error plane's representation)."""
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
    batch_bank = LatchBank(80, packed=False)
    out = batch_bank.capture_batch(steps, matrices, land_lane=2)
    for lane in range(3):
        bank = LatchBank(80, packed=False)
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
        np.testing.assert_array_equal(out[lane], bank.cache_data)
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

    bank = LatchBank(80, packed=True)
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
