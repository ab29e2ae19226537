"""Batched V_TH error plane vs the per-sense perturb/compare loop.

PR 7 batched the packed *error-free* plane, but reliability work --
error-injecting SSDs, read-retry studies, the degraded fallback --
still evaluated the V_TH comparison one sense at a time: slice the
float32 V_TH matrix, draw Gaussian noise, perturb, compare, per
target, per sense, per plan.  The batched error plane
(``SensingEngine.sense_batch_vth`` under
``MwsExecutor.execute_batch`` on an error-injecting chip) runs the whole window's
perturbation and compare grouped per stress condition, drawing one
Gaussian block for the window split in the scalar loop's exact
(sense, target) order -- so the corrupted bits are the *same* bits,
float for float, and only the Python dispatch count changes.

This bench pushes one 64-chunk, 16-query reliability window (the
``bench_service`` stream on an error-injecting, stress-conditioned
SSD) through ``execute_tasks``, walks the same window's unique plans
one by one through the public ``MwsExecutor.execute`` on a twin SSD,
and measures:

* wall-clock speedup of the batched error window over the walk
  (gated, >= 3x locally);
* bit-exactness of every outcome against the walk, float-identical
  latency/energy, and *identical post-window RNG state* (the draw
  schedule is part of the contract), asserted before any timing;
* executor dispatches per window (chips vs unique plans).

The ``measure_error_batch`` helper returns a plain dict so
``tools/bench_record.py`` snapshots ``error_batch_speedup`` into the
``BENCH_kernels.json`` trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.bench_batch_sense import dispatches, unique_queues, walk

# The exact bench_service workload geometry and query stream: the
# reliability window is the same shape, on the error-injecting plane.
from benchmarks.bench_service import (
    GEOMETRY,
    N_CHIPS,
    N_CHUNKS,
    N_DAYS,
    _mixed_stream,
)
from repro.flash.errors import OperatingCondition
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import TaskColumns

#: Required wall-clock speedup of the batched error window.  Local/dev
#: runs use the full 3x gate; noisy shared CI runners may relax it via
#: the environment (bit-exactness is asserted unconditionally).
SPEEDUP_GATE = float(os.environ.get("ERROR_BATCH_SPEEDUP_GATE", "3.0"))

ROUNDS = 5

#: A worn, retentive stress point: the error plane draws real noise
#: and flips real bits, as a reliability sweep would.
STRESS = OperatingCondition(pe_cycles=3000, retention_months=6.0, reads=2000)


def _error_ssd(seed: int = 1) -> SmallSsd:
    """The bench_service workload rebuilt on the V_TH error plane."""
    ssd = SmallSsd(
        n_chips=N_CHIPS,
        geometry=GEOMETRY,
        seed=seed,
        inject_errors=True,
        condition=STRESS,
    )
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


def measure_error_batch() -> dict:
    """Run the identical reliability window batched and walked; verify
    exact equivalence (bits, floats, RNG schedule), then time both."""
    stream = _mixed_stream()

    # --- equivalence on fresh twins (same seeds, same draws) --------
    batch_ssd = _error_ssd()
    walk_ssd = _error_ssd()
    d0 = dispatches(batch_ssd)
    # Nothing is cached: every task comes back an outcome.
    batch_out = batch_ssd.engine.execute_tasks(
        _window_tasks(batch_ssd, stream), share=True
    ).outcomes
    dispatches_batch = dispatches(batch_ssd) - d0
    d0 = dispatches(walk_ssd)
    walked = walk(walk_ssd, unique_queues(_window_tasks(walk_ssd, stream)))
    dispatches_loop = dispatches(walk_ssd) - d0

    for outcome in batch_out:
        if outcome.shared:
            continue
        reference = walked[(outcome.task.chip, outcome.task.plan)]
        assert outcome.n_senses == reference.n_senses
        assert outcome.latency_us == reference.latency_us
        assert outcome.energy_nj == reference.energy_nj
        # Same draw schedule -> the same corrupted words.
        np.testing.assert_array_equal(outcome.data, reference.words)
    for chip_b, chip_w in zip(batch_ssd.chips, walk_ssd.chips):
        assert (
            chip_b.sensing.rng.bit_generator.state
            == chip_w.sensing.rng.bit_generator.state
        )
        assert chip_b.counters == chip_w.counters

    # --- wall-clock on a warmed SSD (bound plans + memos hot) -------
    ssd = _error_ssd()
    tasks = _window_tasks(ssd, stream)
    queues = unique_queues(tasks)
    run_batch = lambda: ssd.engine.execute_tasks(  # noqa: E731
        tasks, share=True
    )
    run_walk = lambda: walk(ssd, queues)  # noqa: E731
    run_batch()
    run_walk()
    batch_s = _time(run_batch, ROUNDS)
    walk_s = _time(run_walk, ROUNDS)

    return {
        "n_queries": len(stream),
        "n_tasks": len(batch_out),
        "n_unique_plans": len(walked),
        "error_batch_s": batch_s,
        "error_per_sense_s": walk_s,
        "error_batch_speedup": walk_s / batch_s,
        "dispatches_per_window": dispatches_batch,
        "dispatches_per_window_loop": dispatches_loop,
    }


def test_batched_error_window_beats_per_sense_loop():
    m = measure_error_batch()
    print(
        f"\n{m['n_queries']} queries x {N_CHUNKS} chunks "
        f"({m['n_tasks']} tasks, {m['n_unique_plans']} unique plans, "
        f"V_TH error plane): "
        f"walk {m['error_per_sense_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window_loop']} dispatches), "
        f"batched {m['error_batch_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window']} dispatches), "
        f"speedup {m['error_batch_speedup']:.1f}x"
    )
    assert m["dispatches_per_window"] == N_CHIPS, (
        "batched error window must dispatch once per chip, got "
        f"{m['dispatches_per_window']}"
    )
    assert m["dispatches_per_window_loop"] == m["n_unique_plans"]
    assert m["error_batch_speedup"] >= SPEEDUP_GATE, (
        f"expected >= {SPEEDUP_GATE}x batched error-plane speedup, "
        f"got {m['error_batch_speedup']:.2f}x"
    )
