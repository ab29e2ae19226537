"""Parity-protected striping under a permanent mid-trace chip loss.

The scenario: a 4-chip SSD serves a fixed query trace; halfway
through, one chip fail-stops for good (``kill_chip``).  Three twins
run:

* **no-parity** -- the loss is fatal for every query touching the
  dead chip's columns.  The bench asserts it provably fails (typed
  ``ChipUnavailableError``): if this twin ever completes, the trace
  stopped proving parity is load-bearing.
* **parity** -- identical trace with parity striping: the racing
  windows answer by XOR-reconstruction from the surviving rotation-
  group peers, the maintenance plane's paced rebuild re-materializes
  the lost columns, and 100% of queries complete bit-identical to the
  healthy oracle.
* **healthy** -- the parity layout with no kill: the latency floor
  the degraded run is compared against, gated by
  ``REDUNDANCY_P99_GATE`` (default 8.0x, env-relaxable; the kill
  rounds really do pay survivor reads -- the drain/rebuild background
  jobs yield to foreground in the event sweep, 1.9x measured), plus a
  completion gate ``REDUNDANCY_COMPLETION_GATE`` (default 1.0 -- the
  parity twin must complete everything).

``measure_redundancy`` returns a plain dict so
``tools/bench_record.py`` snapshots the numbers into the
``redundancy`` section of ``BENCH_kernels.json``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.expressions import And, Operand, Xor, and_all, evaluate
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.writes import parity_write_amplification

P99_GATE = float(os.environ.get("REDUNDANCY_P99_GATE", "8.0"))
COMPLETION_GATE = float(os.environ.get("REDUNDANCY_COMPLETION_GATE", "1.0"))

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=256,
)

N_CHIPS = 4
N_CHUNKS = 8
N_BITS = N_CHUNKS * GEOMETRY.page_size_bits
VICTIM = 1
ROUNDS = 12
KILL_AFTER_ROUND = 5
QUERIES_PER_ROUND = 6


def _env_and_ssd(parity: bool) -> tuple[SmallSsd, dict[str, np.ndarray]]:
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=GEOMETRY, seed=7, parity=parity)
    rng = np.random.default_rng(303)
    env = {}
    for i in range(4):
        name = f"v{i}"
        env[name] = rng.integers(0, 2, N_BITS, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _round_queries(round_index: int):
    v = [Operand(f"v{i}") for i in range(4)]
    pool = [
        And(v[0], v[1]),
        and_all(v),
        Xor(v[1], v[3]),
        And(And(v[0], v[2]), v[3]),
        Xor(And(v[0], v[1]), v[2]),
        And(v[2], v[3]),
    ]
    base = round_index * 1000.0
    return [
        (pool[i % len(pool)], base + 40.0 * i)
        for i in range(QUERIES_PER_ROUND)
    ]


def _run_trace(parity: bool, kill: bool) -> dict:
    ssd, env = _env_and_ssd(parity)
    service = ssd.service(window_us=150.0, maintenance=True)
    latencies: list[float] = []
    completed = 0
    failed = 0
    reconstructed = 0
    reconstruction_us = 0.0
    rebuilt = 0
    mismatched = 0
    for r in range(ROUNDS):
        if kill and r == KILL_AFTER_ROUND:
            ssd.kill_chip(VICTIM)
        for expr, at_us in _round_queries(r):
            service.submit(expr, at_us=at_us)
        report = service.run()
        stats = report.stats
        reconstructed += stats.reconstructed_plans
        reconstruction_us += stats.reconstruction_overhead_us
        rebuilt += stats.columns_rebuilt
        for query in report.queries:
            if query.error is not None:
                failed += 1
                continue
            completed += 1
            latencies.append(query.latency_us)
            if not np.array_equal(
                query.result.bits, evaluate(query.expr, env)
            ):
                mismatched += 1
    total = ROUNDS * QUERIES_PER_ROUND
    return {
        "total": total,
        "completed": completed,
        "failed": failed,
        "completion_rate": completed / total,
        "mismatched": mismatched,
        "reconstructed_chunks": reconstructed,
        "reconstruction_us": reconstruction_us,
        "columns_rebuilt": rebuilt,
        "pending_rebuild": (
            len(service.maintenance.pending_rebuild)
            if service.maintenance is not None
            else 0
        ),
        "p99_us": (
            float(np.percentile(latencies, 99)) if latencies else 0.0
        ),
        "mean_us": float(np.mean(latencies)) if latencies else 0.0,
    }


def measure_redundancy() -> dict:
    no_parity = _run_trace(parity=False, kill=True)
    parity = _run_trace(parity=True, kill=True)
    healthy = _run_trace(parity=True, kill=False)
    return {
        "rounds": ROUNDS,
        "queries": parity["total"],
        "kill_after_round": KILL_AFTER_ROUND,
        "noparity_completion_rate": no_parity["completion_rate"],
        "noparity_failed": no_parity["failed"],
        "parity_completion_rate": parity["completion_rate"],
        "parity_failed": parity["failed"],
        "parity_mismatched": parity["mismatched"],
        "reconstructed_chunks": parity["reconstructed_chunks"],
        "reconstruction_us": parity["reconstruction_us"],
        "columns_rebuilt": parity["columns_rebuilt"],
        "pending_rebuild": parity["pending_rebuild"],
        "write_amplification": parity_write_amplification(N_CHIPS),
        "healthy_p99_us": healthy["p99_us"],
        "degraded_p99_us": parity["p99_us"],
        "p99_ratio": (
            parity["p99_us"] / healthy["p99_us"]
            if healthy["p99_us"]
            else 0.0
        ),
    }


def test_parity_survives_the_chip_loss_the_bare_twin_cannot():
    m = measure_redundancy()
    print(
        f"\n{m['queries']} queries, chip {VICTIM} killed after round "
        f"{m['kill_after_round']}: no-parity twin completed "
        f"{m['noparity_completion_rate']:.0%} ({m['noparity_failed']} "
        f"failed); parity twin completed "
        f"{m['parity_completion_rate']:.0%} bit-identically "
        f"({m['reconstructed_chunks']} chunks reconstructed, "
        f"{m['reconstruction_us']:.0f} us survivor time, "
        f"{m['columns_rebuilt']} columns rebuilt, write amp "
        f"{m['write_amplification']:.2f}x); p99 "
        f"{m['healthy_p99_us']:.0f} -> {m['degraded_p99_us']:.0f} us "
        f"(ratio {m['p99_ratio']:.2f})"
    )
    assert m["noparity_failed"] > 0, (
        "the no-parity twin completed the whole trace -- the workload "
        "no longer proves parity is load-bearing; aim the kill at a "
        "chip the queries actually touch"
    )
    assert m["parity_completion_rate"] >= COMPLETION_GATE, (
        f"parity twin completed only "
        f"{m['parity_completion_rate']:.0%}, below the "
        f"{COMPLETION_GATE:.0%} gate (relax with "
        "REDUNDANCY_COMPLETION_GATE)"
    )
    assert m["parity_mismatched"] == 0
    assert m["reconstructed_chunks"] > 0
    assert m["columns_rebuilt"] > 0
    assert m["pending_rebuild"] == 0
    assert m["p99_ratio"] <= P99_GATE, (
        f"degraded p99 is {m['p99_ratio']:.2f}x the healthy baseline, "
        f"above the {P99_GATE:.1f}x gate (relax with "
        "REDUNDANCY_P99_GATE)"
    )
