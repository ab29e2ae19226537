"""Cross-window stack reuse vs restacking every window from scratch.

The batched packed drain (PR 7) collapsed Python dispatch to one per
chip, but every window still re-gathers and re-concatenates its
operand tensors (``SensingEngine.sense_batch_stacks``) and replays
the latch protocol from them -- even when the window repeats plans
the previous window just sensed, which is the steady state of a
query service: consecutive admission windows share most of their
plan population.  The :class:`~repro.ssd.query_engine.StackCache`
memoizes each unique plan's raw packed sense rows per chip, so a
window sharing any subset of a previous window's plans replays those
rows and restacks only the new plans; an exact steady-state repeat
additionally skips the latch replay through the executor's window
memo (``MwsExecutor.execute_batch_reuse``).  Reuse stays bit-,
float-, and counter-identical to a fresh drain: cost charging and
read-disturb accounting run every window, and the ``ResultCache`` by
contrast helps only exact plan repeats and reports hits at zero
flash cost.

The workload is a wide-page archive scan -- 32K-bit pages, 24-day
retention windows -- where the stacked tensors dominate the window
(the regime the stack cache targets; narrow-page point-query windows
are dominated by per-plan charging, which reuse deliberately leaves
untouched).  Twin SSDs -- ``stack_reuse`` on vs off -- measure:

* exact equivalence of every outcome and chip counter across a
  window-A / partial-overlap-window-B sequence, asserted before any
  timing;
* restacked-tensor accounting on the first partial-overlap window:
  reuse restacks *some* tensors (the new plans) but strictly fewer
  than the fresh twin, and records reuse hits;
* wall-clock speedup of the steady-state repeat window (gated, >= 2x
  locally).

``measure_stack_reuse`` returns a plain dict so
``tools/bench_record.py`` snapshots ``stack_reuse_speedup`` into the
``BENCH_kernels.json`` trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.expressions import And, Operand, Or, and_all
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import TaskColumns

#: Required wall-clock speedup of the reused repeat window.  Local/dev
#: runs use the full 2x gate; noisy shared CI runners may relax it via
#: the environment (bit-exactness is asserted unconditionally).
SPEEDUP_GATE = float(os.environ.get("STACK_REUSE_SPEEDUP_GATE", "2.0"))

ROUNDS = 7

#: Wide archive pages: the stacked operand tensors (24 wordlines x
#: 512 words per heavy sense) dominate the window, which is the
#: regime restack-skipping targets.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=64,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=32768,
)
N_CHIPS = 4
N_CHUNKS = 4
N_DAYS = 24


def _archive_ssd(seed: int = 1) -> SmallSsd:
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed + 1)
    n_bits = N_CHUNKS * GEOMETRY.page_size_bits
    for i in range(N_DAYS):
        ssd.write_vector(
            f"day{i}",
            rng.integers(0, 2, n_bits, dtype=np.uint8),
            group="days",
        )
    for j in range(2):
        members = np.zeros(n_bits, dtype=np.uint8)
        members[rng.choice(n_bits, size=8, replace=False)] = 1
        ssd.write_vector(f"clique{j}", members)
    return ssd


def _window(lo: int, hi: int):
    return and_all([Operand(f"day{d}") for d in range(lo, hi)])


def _base_stream() -> list:
    """Window A: the archive scan mix (heavy retention ANDs, light
    point queries, AND-OR stars)."""
    heavy = _window(0, N_DAYS)
    light = _window(0, 2)
    star0 = Or(_window(4, 7), Operand("clique0"))
    mid = _window(2, 8)
    pair = And(Operand("day3"), Operand("day9"))
    return [
        heavy, light, star0, mid, heavy, pair,
        star0, light, heavy, mid, light, heavy,
    ]


def _overlap_stream() -> list:
    """Window B: shares most of its plan population with window A
    (the service steady state) but adds shapes A never sensed, so B
    is a *partial* overlap -- reuse must replay the shared plans and
    sense only the new ones."""
    heavy = _window(0, N_DAYS)
    light = _window(0, 2)
    star0 = Or(_window(4, 7), Operand("clique0"))
    fresh_mid = _window(1, 5)
    fresh_tail = _window(6, 10)
    fresh_star = Or(_window(8, 11), Operand("clique1"))
    fresh_pair = And(Operand("day2"), Operand("day7"))
    return [
        heavy, fresh_mid, star0, light, fresh_star, heavy,
        fresh_tail, star0, fresh_pair, light, heavy, fresh_mid,
    ]


def _window_tasks(ssd, stream):
    tasks = TaskColumns()
    for query, expr in enumerate(stream):
        tasks.add(query, ssd.engine.prepare(expr))
    return tasks


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_equal_windows(result_r, result_f):
    # Nothing is cached: every task comes back an outcome.
    out_r, out_f = result_r.outcomes, result_f.outcomes
    assert len(out_r) == len(out_f)
    for r, f in zip(out_r, out_f):
        assert r.n_senses == f.n_senses
        assert r.latency_us == f.latency_us
        assert r.energy_nj == f.energy_nj
        assert r.shared == f.shared
        np.testing.assert_array_equal(r.data, f.data)


def measure_stack_reuse() -> dict:
    """Run the A / partial-overlap-B window sequence with reuse on and
    off; verify exact equivalence and restack accounting, then time
    the steady-state repeat window."""
    stream_a = _base_stream()
    stream_b = _overlap_stream()

    # --- equivalence + accounting on fresh twins --------------------
    reuse_ssd = _archive_ssd()
    fresh_ssd = _archive_ssd()
    fresh_ssd.engine.stack_reuse = False

    tasks_a_r = _window_tasks(reuse_ssd, stream_a)
    tasks_a_f = _window_tasks(fresh_ssd, stream_a)
    _assert_equal_windows(
        reuse_ssd.engine.execute_tasks(tasks_a_r),
        fresh_ssd.engine.execute_tasks(tasks_a_f),
    )
    # Exact repeat of A: the steady-state fast path must stay
    # equivalent too.
    _assert_equal_windows(
        reuse_ssd.engine.execute_tasks(tasks_a_r),
        fresh_ssd.engine.execute_tasks(tasks_a_f),
    )

    restacked_r0 = reuse_ssd.engine.stats.restacked_tensors
    restacked_f0 = fresh_ssd.engine.stats.restacked_tensors
    tasks_b_r = _window_tasks(reuse_ssd, stream_b)
    tasks_b_f = _window_tasks(fresh_ssd, stream_b)
    _assert_equal_windows(
        reuse_ssd.engine.execute_tasks(tasks_b_r),
        fresh_ssd.engine.execute_tasks(tasks_b_f),
    )
    restacked_b_reuse = (
        reuse_ssd.engine.stats.restacked_tensors - restacked_r0
    )
    restacked_b_fresh = (
        fresh_ssd.engine.stats.restacked_tensors - restacked_f0
    )
    reuse_hits = reuse_ssd.engine.stats.stack_reuse_hits
    for chip_r, chip_f in zip(reuse_ssd.chips, fresh_ssd.chips):
        assert chip_r.counters.busy_us == chip_f.counters.busy_us
        assert chip_r.counters.energy_nj == chip_f.counters.energy_nj
        for addr in chip_f.plane_array.materialized():
            assert (
                chip_r.plane_array.block(addr).reads_since_erase
                == chip_f.plane_array.block(addr).reads_since_erase
            )

    # --- wall-clock on warmed twins (steady-state repeat window) ----
    reuse_ssd = _archive_ssd()
    fresh_ssd = _archive_ssd()
    fresh_ssd.engine.stack_reuse = False
    for ssd in (reuse_ssd, fresh_ssd):
        ssd.engine.execute_tasks(_window_tasks(ssd, stream_a))
    tasks_r = _window_tasks(reuse_ssd, stream_b)
    tasks_f = _window_tasks(fresh_ssd, stream_b)
    run_reuse = lambda: reuse_ssd.engine.execute_tasks(  # noqa: E731
        tasks_r
    )
    run_fresh = lambda: fresh_ssd.engine.execute_tasks(  # noqa: E731
        tasks_f
    )
    run_reuse()
    run_fresh()
    reuse_s = _time(run_reuse, ROUNDS)
    fresh_s = _time(run_fresh, ROUNDS)

    return {
        "n_queries": len(stream_b),
        "n_overlap_queries": len(set(stream_a) & set(stream_b)),
        "restacked_overlap_reuse": restacked_b_reuse,
        "restacked_overlap_fresh": restacked_b_fresh,
        "stack_reuse_hits": reuse_hits,
        "stack_reuse_s": reuse_s,
        "stack_fresh_s": fresh_s,
        "stack_reuse_speedup": fresh_s / reuse_s,
    }


def test_stack_reuse_beats_fresh_restacking():
    m = measure_stack_reuse()
    print(
        f"\n{m['n_queries']} queries x {N_CHUNKS} chunks "
        f"({GEOMETRY.page_size_bits}-bit pages), "
        f"partial-overlap window: "
        f"fresh restack {m['stack_fresh_s'] * 1e3:.2f} ms "
        f"({m['restacked_overlap_fresh']} tensors), "
        f"reused {m['stack_reuse_s'] * 1e3:.2f} ms "
        f"({m['restacked_overlap_reuse']} tensors, "
        f"{m['stack_reuse_hits']} plan hits), "
        f"speedup {m['stack_reuse_speedup']:.1f}x"
    )
    # Partial overlap: the new plans restack (non-zero), the shared
    # plans do not (strictly fewer than the fresh twin).
    assert 0 < m["restacked_overlap_reuse"] < m["restacked_overlap_fresh"]
    assert m["stack_reuse_hits"] > 0
    assert m["stack_reuse_speedup"] >= SPEEDUP_GATE, (
        f"expected >= {SPEEDUP_GATE}x stack-reuse speedup, "
        f"got {m['stack_reuse_speedup']:.2f}x"
    )
