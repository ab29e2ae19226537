"""Randomized equivalence and invalidation properties of cross-window
stack reuse (``StackCache`` + ``MwsExecutor.execute_batch_reuse``).

The batched packed drain restacks every window's operand tensors from
scratch even when the window repeats (or overlaps) the previous one.
``QueryEngine.stack_cache`` memoizes each unique plan's raw packed
sense rows per chip so repeat plans replay them -- but reuse must be
*invisible*: the latch replay, cost charging, and read-disturb
accounting still run every window, so a reuse drain must stay bit-,
float-, and counter-identical to a fresh-stack drain.  These
properties pin that contract:

* repeat and partial-overlap windows with reuse on match a reuse-off
  twin exactly (outcomes, chip counters, per-block read disturb,
  latch end-state), with restacked-tensor and reuse-hit counters
  moving the right way;
* a reused stack is dropped on every stamp component -- FTL
  generation (vector churn), ``PlaneArray.content_version()``
  (program/erase, including blocks no plan touches), and
  fault-injector (re)attachment -- and post-invalidation windows
  still match the fresh twin;
* a churn property interleaves vector rewrites with windows and
  asserts bit-identity to the fresh-stack twin throughout;
* the V_TH plane's cached :class:`VthBatchSchedule` obeys the same
  contract: layout churn between error-plane windows never replays a
  stale schedule (batched stays draw-identical to the scalar loop);
* the stack cache, the chip's V_TH schedule memo, and the
  randomizer's keystream caches are bounded with clear-on-full
  semantics.
"""

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    twin_expressions,
    twin_ssd,
    assert_chips_equal,
    assert_outcomes_equal,
    walk_tasks,
    window_tasks,
    drain,
)
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import BlockAddress
from repro.flash.randomizer import LfsrRandomizer
from repro.ssd.query_engine import StackCache


def _scenario(seed):
    rng = np.random.default_rng(77_000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 5))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    pool = twin_expressions()
    windows = []
    for _ in range(int(rng.integers(2, 5))):
        windows.append(
            [
                pool[int(rng.integers(len(pool)))]
                for _ in range(int(rng.integers(2, 7)))
            ]
        )
    return dict(
        n_chips=n_chips,
        n_bits=n_bits,
        ssd_seed=int(rng.integers(1 << 16)),
        data_seed=int(rng.integers(1 << 16)),
        windows=windows,
    )


def _drain(ssd, window):
    return drain(ssd.engine, window_tasks(ssd, window))


@pytest.mark.parametrize("seed", range(8))
def test_reuse_windows_match_fresh_stack_twin(seed):
    """Repeat and partial-overlap windows with reuse on are bit-,
    float-, and counter-identical to a reuse-off twin; the reuse twin
    records hits and restacks strictly fewer tensors."""
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731 - twin factory
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False

    # Each window runs twice back to back (exact repeat), and the
    # window sequence itself shares plans across windows (partial
    # overlap: the pool repeats shapes).
    for window in s["windows"]:
        for _ in range(2):
            out_r = _drain(reuse_ssd, window)
            out_f = _drain(fresh_ssd, window)
            assert_outcomes_equal(out_r, out_f)
    assert_chips_equal(reuse_ssd, fresh_ssd)

    stats_r = reuse_ssd.engine.stats
    stats_f = fresh_ssd.engine.stats
    assert stats_r.stack_reuse_hits > 0
    assert stats_f.stack_reuse_hits == 0
    assert stats_r.restacked_tensors < stats_f.restacked_tensors
    assert reuse_ssd.engine.stack_cache.stats.hits > 0


@pytest.mark.parametrize("seed", range(4))
def test_reuse_invisible_to_scalar_loop_oracle(seed):
    """A reuse-on batched drain still matches the per-sense walk (the
    original oracle) across repeated windows."""
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    reuse_ssd, _ = build()
    loop_ssd, _ = build()
    window = s["windows"][0]
    for _ in range(3):
        out_r = _drain(reuse_ssd, window)
        out_l = walk_tasks(loop_ssd.engine, window_tasks(loop_ssd, window))
        assert_outcomes_equal(out_r, out_l)
    assert_chips_equal(reuse_ssd, loop_ssd)
    assert reuse_ssd.engine.stats.stack_reuse_hits > 0


def _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=1):
    for _ in range(repeats):
        out_r = _drain(reuse_ssd, window)
        out_f = _drain(fresh_ssd, window)
        assert_outcomes_equal(out_r, out_f)


def test_ftl_generation_churn_drops_reused_stacks():
    """Any vector (un)registration moves the FTL generation; cached
    stacks must drop, and post-churn windows must stay identical to
    the fresh twin (whose operand placement changed identically)."""
    s = _scenario(1)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"], n_chips=2, n_bits=s["n_bits"], ssd_seed=3
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False
    window = s["windows"][0]
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.hits > 0

    rng = np.random.default_rng(9)
    churn = rng.integers(0, 2, s["n_bits"], dtype=np.uint8)
    for ssd in (reuse_ssd, fresh_ssd):
        ssd.write_vector("churn", churn)
    before = reuse_ssd.engine.stack_cache.stats.invalidations
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.invalidations > before
    assert_chips_equal(reuse_ssd, fresh_ssd)


def test_content_version_bump_drops_reused_stacks():
    """A program on *any* block of a chip -- even one no window plan
    reads -- moves ``content_version()`` and drops that chip's cached
    stacks (GC relocation, wear leveling, and migration all reduce to
    program/erase, so this is the maintenance-plane contract)."""
    s = _scenario(2)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"], n_chips=1, n_bits=s["n_bits"], ssd_seed=5
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False
    window = s["windows"][0]
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.hits > 0

    # Program a spare block untouched by any plan, on both twins.
    spare = BlockAddress(
        plane=0, block=GEOMETRY.blocks_per_plane - 1, subblock=1
    )
    page = np.ones(GEOMETRY.page_size_bits, dtype=np.uint8)
    for ssd in (reuse_ssd, fresh_ssd):
        block = ssd.chips[0].plane_array.block(spare)
        block.erase()
        block.program(0, page)
    before = reuse_ssd.engine.stack_cache.stats.invalidations
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.invalidations > before
    assert_chips_equal(reuse_ssd, fresh_ssd)


def test_injector_attach_drops_reused_stacks():
    """(Re)attaching a fault injector changes bad-block resolution
    validity; the stamp carries the injector identity so cached
    stacks drop on both twins' next window."""
    s = _scenario(3)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"], n_chips=2, n_bits=s["n_bits"], ssd_seed=7
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False
    window = s["windows"][0]
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.hits > 0

    # An idle injector (no fault rates) changes no outcome -- only
    # the stamp.  Both twins attach the same config.
    for ssd in (reuse_ssd, fresh_ssd):
        ssd.attach_fault_injector(FaultInjector(FaultConfig(seed=11)))
    before = reuse_ssd.engine.stack_cache.stats.invalidations
    _run_twin_windows(reuse_ssd, fresh_ssd, window, repeats=2)
    assert reuse_ssd.engine.stack_cache.stats.invalidations > before
    assert_chips_equal(reuse_ssd, fresh_ssd)


@pytest.mark.parametrize("seed", range(6))
def test_churn_property_interleaved_writes_stay_bit_identical(seed):
    """Interleave vector rewrites with windows: every post-churn
    window must be bit-identical to the fresh-stack twin, never a
    stale replay."""
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False
    rng = np.random.default_rng(55_000 + seed)
    for step, window in enumerate(s["windows"] * 2):
        if rng.integers(2):
            # Rewriting a *live operand* changes the data plans read:
            # a stale stack would surface immediately as a bit flip.
            name = f"a{int(rng.integers(3))}"
            bits = rng.integers(0, 2, s["n_bits"], dtype=np.uint8)
            for ssd in (reuse_ssd, fresh_ssd):
                ssd.delete_vector(name)
                ssd.write_vector(name, bits, group="g")
        _run_twin_windows(reuse_ssd, fresh_ssd, window)
    assert_chips_equal(reuse_ssd, fresh_ssd)


@pytest.mark.parametrize("seed", range(6))
def test_alternating_windows_keep_latch_landing_exact(seed):
    """The steady-state window memo skips latch replay only when the
    landing planes are untouched since (``LatchBank.ops`` marks).
    Alternating two windows -- so the banks land a *different*
    window's state in between -- must never surface a stale landing:
    outcomes and latch end-state stay identical to the fresh twin
    after every window."""
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    reuse_ssd, _ = build()
    fresh_ssd, _ = build()
    fresh_ssd.engine.stack_reuse = False
    w1 = s["windows"][0]
    w2 = s["windows"][1]
    for window in (w1, w1, w2, w1, w2, w2, w1):
        _run_twin_windows(reuse_ssd, fresh_ssd, window)
        assert_chips_equal(reuse_ssd, fresh_ssd)
    assert reuse_ssd.engine.stats.stack_reuse_hits > 0


@pytest.mark.parametrize("seed", range(4))
def test_vth_schedule_cache_survives_layout_churn(seed):
    """The V_TH plane memoizes only its draw-independent schedule;
    layout churn between error-plane windows must re-derive it, so
    the batched drain stays draw-identical to the scalar loop."""
    s = _scenario(seed)
    build = lambda: twin_ssd(  # noqa: E731
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        inject_errors=True,
    )
    batch_ssd, _ = build()
    loop_ssd, _ = build()
    rng = np.random.default_rng(66_000 + seed)
    window = s["windows"][0]
    for _ in range(3):
        out_b = _drain(batch_ssd, window)
        out_l = walk_tasks(loop_ssd.engine, window_tasks(loop_ssd, window))
        assert_outcomes_equal(out_b, out_l)
        name = f"a{int(rng.integers(3))}"
        bits = rng.integers(0, 2, s["n_bits"], dtype=np.uint8)
        for ssd in (batch_ssd, loop_ssd):
            ssd.delete_vector(name)
            ssd.write_vector(name, bits, group="g")
    # Same draw schedule consumed, corrupted bits and all.
    assert_chips_equal(batch_ssd, loop_ssd)


# ----------------------------------------------------------------------
# Bounded-cache semantics (clear-on-full like the sensing row cache)
# ----------------------------------------------------------------------


def test_stack_cache_clears_on_full():
    s = _scenario(4)
    ssd, _ = twin_ssd(
        s["data_seed"], n_chips=1, n_bits=s["n_bits"], ssd_seed=9
    )
    small = StackCache(ssd, capacity=2)
    ssd.engine.stack_cache = small
    pool = twin_expressions()
    # Distinct single-plan windows fill the 2-entry per-chip map; the
    # third insert clears it and starts over.
    for expr in (pool[0], pool[5], pool[1]):
        _drain(ssd, [expr])
    assert small.entries(0) == 1
    assert small.stats.entries == 1
    # Repeating the surviving window still hits.
    before = small.stats.hits
    _drain(ssd, [pool[1]])
    assert small.stats.hits > before
    small.clear()
    assert small.stats.entries == 0
    with pytest.raises(ValueError):
        StackCache(ssd, capacity=0)


def test_vth_schedule_memo_clears_on_full():
    s = _scenario(5)
    ssd, _ = twin_ssd(
        s["data_seed"],
        n_chips=1,
        n_bits=GEOMETRY.page_size_bits,
        ssd_seed=13,
        inject_errors=True,
    )
    chip = ssd.chips[0]
    window = [twin_expressions()[0]]
    _drain(ssd, window)
    assert len(chip._vth_schedules) == 1
    # Saturate the memo with synthetic keys; the next batched window
    # must clear it rather than grow past the bound.
    for i in range(4096 - len(chip._vth_schedules)):
        chip._vth_schedules[-(i + 1)] = (None,) * 5
    assert len(chip._vth_schedules) == 4096
    # Schedules are keyed on the window's commands by value, so only
    # a window of different commands is a new entry (a rebind of the
    # same window after an unrelated write is a valid hit).
    fresh = [twin_expressions()[1]]
    _drain(ssd, fresh)
    assert len(chip._vth_schedules) == 1


def test_randomizer_keystream_caches_clear_on_full():
    """Both keystream views (bit-level and packed word-level) are
    bounded at 4096 page entries with clear-on-full semantics."""
    randomizer = LfsrRandomizer(device_seed=21)
    page = np.zeros(16, dtype=np.uint8)
    packed = np.zeros(1, dtype=np.uint64)
    for index in range(4096):
        randomizer.randomize(page, index)
        randomizer.randomize(packed, index, n_bits=16)
    assert len(randomizer._cache) == 4096
    assert len(randomizer._word_cache) == 4096
    randomizer.randomize(page, 4096)
    randomizer.randomize(packed, 4096, n_bits=16)
    assert len(randomizer._cache) == 1
    assert len(randomizer._word_cache) == 1
    # Cached streams stay correct after the clear: involution holds.
    np.testing.assert_array_equal(
        randomizer.derandomize(randomizer.randomize(page, 4096), 4096),
        page,
    )
    np.testing.assert_array_equal(
        randomizer.derandomize(
            randomizer.randomize(packed, 4096, n_bits=16),
            4096,
            n_bits=16,
        ),
        packed,
    )
