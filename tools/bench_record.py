#!/usr/bin/env python
"""Record / check the repository's kernel performance trajectory.

``record`` runs the library's own kernel benchmarks
(``benchmarks/bench_simulator_kernels.py`` via pytest-benchmark), the
query-service throughput kernel (``benchmarks/bench_service.py``), the batched
window-execution kernel (``benchmarks/bench_batch_sense.py``), the
cross-window stack-reuse
kernel (``benchmarks/bench_stack_reuse.py``), and
the cross-window result-cache + SLO kernels
(``benchmarks/bench_result_cache.py``), the fault-tolerance
retention kernel
(``benchmarks/bench_fault_tolerance.py``), and the
garbage-collection-under-churn kernel (``benchmarks/bench_gc.py``),
then writes a condensed
``BENCH_kernels.json`` snapshot -- the checked-in baseline of the
perf trajectory.

``check`` re-measures and compares against the committed baseline
with a multiplicative tolerance: kernel means may not exceed
``baseline * tolerance``, and the service's scheduling/sharing
gains, and the batched-window speedup
may not fall below ``baseline / tolerance`` (``dispatches_per_window``
is exact -- a count, not a timing).  Exit status 1 reports a
regression (CI runs this as a *soft* guard -- shared runners are
noisy, so the step is non-blocking there; the tolerance is what keeps
it useful).

Usage::

    PYTHONPATH=src python tools/bench_record.py record
    PYTHONPATH=src python tools/bench_record.py check --tolerance 3.0
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SNAPSHOT = REPO_ROOT / "BENCH_kernels.json"
KERNEL_BENCH = REPO_ROOT / "benchmarks" / "bench_simulator_kernels.py"


def _run_kernel_bench() -> dict[str, dict[str, float]]:
    """Run the pytest-benchmark kernel suite, return name -> stats."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                str(KERNEL_BENCH),
                f"--benchmark-json={json_path}",
            ],
            cwd=REPO_ROOT,
            check=True,
        )
        raw = json.loads(json_path.read_text())
    kernels = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        kernels[bench["name"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
    return kernels


def _run_service_bench() -> dict[str, float]:
    """Run the service-throughput kernel in-process.

    The makespans are event-simulated (deterministic), so the
    scheduling gain and dedup ratio are exact; only
    ``throughput_qps`` reflects simulated (virtual-clock) time.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_service import measure_service

    m = measure_service()
    return {
        "fifo_makespan_us": m["fifo_makespan_us"],
        "service_makespan_us": m["service_makespan_us"],
        "makespan_gain": m["makespan_gain"],
        "sense_reduction": m["sense_reduction"],
        "dedup_ratio": m["dedup_ratio"],
        "throughput_qps": m["throughput_qps"],
    }


def _run_batch_bench() -> dict[str, float]:
    """Run the batched window-execution kernel in-process.

    ``dispatches_per_window`` counts Python executor dispatches for
    one admission window (one per chip on the batched path) and is
    deterministic; ``batch_speedup`` is wall-clock.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_batch_sense import measure_batch

    m = measure_batch()
    return {
        "batch_s": m["batch_s"],
        "per_sense_s": m["per_sense_s"],
        "batch_speedup": m["batch_speedup"],
        "dispatches_per_window": m["dispatches_per_window"],
        "dispatches_per_window_loop": m["dispatches_per_window_loop"],
    }


#: Counts of the result-cache section that ``check`` holds exactly: the
#: warm window's executor dispatches (0), what the shared-results
#: run's report holds (128 queries, 16 packed result blocks,
#: 16 x n_bits / 8 bytes) and the entries left after a rewrite and one
#: more window (that window's 64 puts).
RESULT_CACHE_EXACT = (
    "warm_dispatches",
    "shared_queries",
    "distinct_results",
    "result_bytes",
    "entries_after_rewrite",
)


def _run_result_cache_bench() -> dict[str, float]:
    """Run the cross-window result-cache kernel in-process.

    ``hit_rate``, the sense and dispatch counts, the shared-results
    counts and the entry counts around a rewrite are deterministic
    (the warm window must serve entirely from cache; a repeated result
    is assembled once per run; a rewrite drops every entry at the next
    window); ``repeat_speedup`` is wall-clock: recorded for the
    trajectory, never gated.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_result_cache import (
        measure_result_cache,
        measure_rewrite,
        measure_shared_results,
    )

    m = measure_result_cache()
    return {
        "cold_s": m["cold_s"],
        "warm_s": m["warm_s"],
        "repeat_speedup": m["repeat_speedup"],
        "cold_senses": m["cold_senses"],
        "warm_senses": m["warm_senses"],
        "warm_dispatches": m["warm_dispatches"],
        "hit_rate": m["hit_rate"],
        **measure_shared_results(),
        **measure_rewrite(),
    }


def _run_slo_bench() -> dict[str, float]:
    """Run the mixed-priority SLO kernel in-process.

    Everything here is event-simulated: deadline counts and p99s are
    exact, so `check` compares the deadline counts without tolerance.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_result_cache import measure_slo

    m = measure_slo()
    return {
        "n_deadlines": m["n_deadlines"],
        "fifo_deadlines_met": m["fifo_deadlines_met"],
        "edf_deadlines_met": m["edf_deadlines_met"],
        "fifo_point_p99_us": m["fifo_point_p99_us"],
        "edf_point_p99_us": m["edf_point_p99_us"],
        "point_p99_gain": m["point_p99_gain"],
    }


def _run_stack_reuse_bench() -> dict[str, float]:
    """Run the cross-window stack-reuse kernel in-process.

    Bit-/float-/counter-identity against the fresh-stacking twin and
    the partial-overlap restack accounting are asserted inside the
    bench; the restacked-tensor counts and reuse hits are exact,
    ``stack_reuse_speedup`` is wall-clock.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_stack_reuse import measure_stack_reuse

    m = measure_stack_reuse()
    return {
        "n_queries": m["n_queries"],
        "restacked_overlap_reuse": m["restacked_overlap_reuse"],
        "restacked_overlap_fresh": m["restacked_overlap_fresh"],
        "stack_reuse_hits": m["stack_reuse_hits"],
        "stack_reuse_s": m["stack_reuse_s"],
        "stack_fresh_s": m["stack_fresh_s"],
        "stack_reuse_speedup": m["stack_reuse_speedup"],
    }


def _run_faults_bench() -> dict[str, float]:
    """Run the fault-tolerance kernel in-process.

    Completion counts are exact (every faulted query must finish);
    retention and conformance come from the deterministic event
    simulation, so ``check`` floors them with tolerance only for
    robustness against future workload retuning.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_fault_tolerance import measure_faults

    m = measure_faults()
    return {
        "fault_rate": m["fault_rate"],
        "n_queries": m["n_queries"],
        "completed_faulted": m["completed_faulted"],
        "throughput_retention": m["throughput_retention"],
        "faulted_deadline_conformance": m["faulted_deadline_conformance"],
        "faults_injected": m["faults_injected"],
        "fault_retries": m["fault_retries"],
        "fault_overhead_us": m["fault_overhead_us"],
    }


#: What suspension by forward progress delivers with erases owning
#: the dies (``bench_gc._run_saturated``): exact for the code.
GC_CHURN_EXACT = (
    "churn_deadlines_met",
    "churn_p99_us",
    "churn_suspensions",
    "churn_guard_waits",
    "churn_maintenance_lag_us",
)


def _run_gc_bench() -> dict[str, float]:
    """Run the GC-under-churn kernel in-process.

    Round counts and reclaim counts are exact: the no-GC twin must
    keep exhausting the plane where it exhausted before, and the GC
    twin must keep completing the whole trace.  Only ``p99_ratio`` is
    floored/ceilinged with tolerance (it compares two event-simulated
    p99s, so retuning the workload may legitimately shift it).  The
    ``churn_*`` values of the saturated-die run (:data:`GC_CHURN_EXACT`)
    come off the deterministic virtual clock and are gated as exact.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_gc import measure_gc

    m = measure_gc()
    return {
        "rounds": m["rounds"],
        "nogc_rounds_completed": m["nogc_rounds_completed"],
        "nogc_exhausted": m["nogc_exhausted"],
        "gc_rounds_completed": m["gc_rounds_completed"],
        "blocks_reclaimed": m["blocks_reclaimed"],
        "pages_migrated": m["pages_migrated"],
        "gc_cycles": m["gc_cycles"],
        "background_us": m["background_us"],
        "wear_spread": m["wear_spread"],
        "clean_p99_us": m["clean_p99_us"],
        "gc_p99_us": m["gc_p99_us"],
        "p99_ratio": m["p99_ratio"],
        **{key: m[key] for key in GC_CHURN_EXACT},
    }


def _run_redundancy_bench() -> dict[str, float]:
    """Run the chip-loss redundancy kernel in-process.

    Completion rates are exact: the no-parity twin must keep failing
    once the chip dies, and the parity twin must keep completing
    everything bit-identically with an empty rebuild queue.  Only
    ``p99_ratio`` is ceilinged with tolerance (degraded vs healthy
    event-simulated p99s shift when the workload is retuned).
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.bench_redundancy import measure_redundancy

    m = measure_redundancy()
    return {
        "queries": m["queries"],
        "noparity_completion_rate": m["noparity_completion_rate"],
        "noparity_failed": m["noparity_failed"],
        "parity_completion_rate": m["parity_completion_rate"],
        "parity_mismatched": m["parity_mismatched"],
        "reconstructed_chunks": m["reconstructed_chunks"],
        "reconstruction_us": m["reconstruction_us"],
        "columns_rebuilt": m["columns_rebuilt"],
        "pending_rebuild": m["pending_rebuild"],
        "write_amplification": m["write_amplification"],
        "healthy_p99_us": m["healthy_p99_us"],
        "degraded_p99_us": m["degraded_p99_us"],
        "p99_ratio": m["p99_ratio"],
    }


def measure() -> dict:
    import numpy

    return {
        "schema": 1,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "kernels": _run_kernel_bench(),
        "service": _run_service_bench(),
        "batch_sense": _run_batch_bench(),
        "stack_reuse": _run_stack_reuse_bench(),
        "result_cache": _run_result_cache_bench(),
        "slo": _run_slo_bench(),
        "faults": _run_faults_bench(),
        "gc": _run_gc_bench(),
        "redundancy": _run_redundancy_bench(),
    }


def record(output: Path) -> None:
    snapshot = measure()
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")


def check(baseline_path: Path, tolerance: float) -> int:
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run 'record' first")
        return 1
    baseline = json.loads(baseline_path.read_text())
    fresh = measure()
    failures: list[str] = []

    for name, base in baseline.get("kernels", {}).items():
        now = fresh["kernels"].get(name)
        if now is None:
            failures.append(f"kernel {name} missing from fresh run")
            continue
        limit = base["mean_s"] * tolerance
        if now["mean_s"] > limit:
            failures.append(
                f"kernel {name}: {now['mean_s']:.6f}s > "
                f"{tolerance:.1f}x baseline {base['mean_s']:.6f}s"
            )

    base_svc = baseline.get("service", {})
    fresh_svc = fresh["service"]
    for key in ("makespan_gain", "sense_reduction", "dedup_ratio"):
        if key not in base_svc:
            continue
        floor = base_svc[key] / tolerance
        if fresh_svc[key] < floor:
            failures.append(
                f"service {key}: {fresh_svc[key]:.2f} < "
                f"baseline {base_svc[key]:.2f} / {tolerance:.1f}"
            )

    base_batch = baseline.get("batch_sense", {})
    fresh_batch = fresh["batch_sense"]
    if "batch_speedup" in base_batch:
        floor = base_batch["batch_speedup"] / tolerance
        if fresh_batch["batch_speedup"] < floor:
            failures.append(
                f"batch_sense batch_speedup: "
                f"{fresh_batch['batch_speedup']:.2f} < "
                f"baseline {base_batch['batch_speedup']:.2f} / "
                f"{tolerance:.1f}"
            )
    if "dispatches_per_window" in base_batch:
        # A dispatch count, not a timing: exact, no tolerance.
        if (
            fresh_batch["dispatches_per_window"]
            > base_batch["dispatches_per_window"]
        ):
            failures.append(
                f"batch_sense dispatches_per_window: "
                f"{fresh_batch['dispatches_per_window']} > "
                f"baseline {base_batch['dispatches_per_window']}"
            )

    base_sr = baseline.get("stack_reuse", {})
    if "stack_reuse_speedup" in base_sr:
        fresh_sr = fresh["stack_reuse"]
        floor = base_sr["stack_reuse_speedup"] / tolerance
        if fresh_sr["stack_reuse_speedup"] < floor:
            failures.append(
                f"stack_reuse stack_reuse_speedup: "
                f"{fresh_sr['stack_reuse_speedup']:.2f} < "
                f"baseline {base_sr['stack_reuse_speedup']:.2f} / "
                f"{tolerance:.1f}"
            )
        # Restack counts are exact: the reused partial-overlap window
        # must keep restacking no more tensors than the baseline did.
        if (
            fresh_sr["restacked_overlap_reuse"]
            > base_sr["restacked_overlap_reuse"]
        ):
            failures.append(
                f"stack_reuse restacked_overlap_reuse: "
                f"{fresh_sr['restacked_overlap_reuse']} > "
                f"baseline {base_sr['restacked_overlap_reuse']}"
            )

    base_rc = baseline.get("result_cache", {})
    fresh_rc = fresh["result_cache"]
    if "hit_rate" in base_rc and fresh_rc["hit_rate"] < base_rc["hit_rate"]:
        # A count ratio, not a timing (``repeat_speedup`` is the
        # timing: a ratio of two ~10 ms wall-clocks, recorded only).
        failures.append(
            f"result_cache hit_rate: {fresh_rc['hit_rate']:.2f} < "
            f"baseline {base_rc['hit_rate']:.2f}"
        )
    if "warm_senses" in base_rc:
        # A sense count, not a timing: the warm window must stay at
        # exactly zero executed senses.
        if fresh_rc["warm_senses"] > base_rc["warm_senses"]:
            failures.append(
                f"result_cache warm_senses: {fresh_rc['warm_senses']} > "
                f"baseline {base_rc['warm_senses']}"
            )
    for key in RESULT_CACHE_EXACT:
        # Counts, not timings: exact, no tolerance.
        if key in base_rc and fresh_rc[key] != base_rc[key]:
            failures.append(
                f"result_cache {key}: {fresh_rc[key]!r} != "
                f"baseline {base_rc[key]!r}"
            )

    base_slo = baseline.get("slo", {})
    fresh_slo = fresh["slo"]
    if "point_p99_gain" in base_slo:
        floor = base_slo["point_p99_gain"] / tolerance
        if fresh_slo["point_p99_gain"] < floor:
            failures.append(
                f"slo point_p99_gain: {fresh_slo['point_p99_gain']:.2f} "
                f"< baseline {base_slo['point_p99_gain']:.2f} / "
                f"{tolerance:.1f}"
            )
    if "edf_deadlines_met" in base_slo:
        # Deadline counts come from the exact event simulation: no
        # tolerance, EDF must keep meeting what it met.  (FIFO's
        # count is recorded for the trajectory but not gated -- FIFO
        # getting *better* is not a regression.)
        if fresh_slo["edf_deadlines_met"] < base_slo["edf_deadlines_met"]:
            failures.append(
                f"slo edf_deadlines_met: {fresh_slo['edf_deadlines_met']} "
                f"< baseline {base_slo['edf_deadlines_met']}"
            )

    base_ft = baseline.get("faults", {})
    fresh_ft = fresh["faults"]
    if "completed_faulted" in base_ft:
        # A completion count, not a timing: recovery must keep
        # finishing every query it finished before.
        if fresh_ft["completed_faulted"] < base_ft["completed_faulted"]:
            failures.append(
                f"faults completed_faulted: "
                f"{fresh_ft['completed_faulted']} < baseline "
                f"{base_ft['completed_faulted']}"
            )
    for key in ("throughput_retention", "faulted_deadline_conformance"):
        if key not in base_ft:
            continue
        floor = base_ft[key] / tolerance
        if fresh_ft[key] < floor:
            failures.append(
                f"faults {key}: {fresh_ft[key]:.3f} < "
                f"baseline {base_ft[key]:.3f} / {tolerance:.1f}"
            )

    base_gc = baseline.get("gc", {})
    fresh_gc = fresh["gc"]
    if "gc_rounds_completed" in base_gc:
        # Round/reclaim counts are exact: GC must keep carrying the
        # churn trace it carried before, and the no-GC twin must keep
        # proving the workload needs it.
        if fresh_gc["gc_rounds_completed"] < base_gc["gc_rounds_completed"]:
            failures.append(
                f"gc gc_rounds_completed: "
                f"{fresh_gc['gc_rounds_completed']} < baseline "
                f"{base_gc['gc_rounds_completed']}"
            )
        if not fresh_gc["nogc_exhausted"]:
            failures.append(
                "gc nogc_exhausted: the no-GC twin completed the trace"
            )
        if fresh_gc["blocks_reclaimed"] < base_gc["blocks_reclaimed"]:
            failures.append(
                f"gc blocks_reclaimed: {fresh_gc['blocks_reclaimed']} "
                f"< baseline {base_gc['blocks_reclaimed']}"
            )
    if "p99_ratio" in base_gc:
        ceiling = base_gc["p99_ratio"] * tolerance
        if fresh_gc["p99_ratio"] > ceiling:
            failures.append(
                f"gc p99_ratio: {fresh_gc['p99_ratio']:.2f} > "
                f"baseline {base_gc['p99_ratio']:.2f} x {tolerance:.1f}"
            )
    for key in GC_CHURN_EXACT:
        if key in base_gc and abs(fresh_gc[key] - base_gc[key]) > (
            1e-9 * abs(base_gc[key])
        ):
            failures.append(
                f"gc {key}: {fresh_gc[key]!r} != baseline {base_gc[key]!r}"
            )

    base_red = baseline.get("redundancy", {})
    if "parity_completion_rate" in base_red:
        fresh_red = fresh["redundancy"]
        if fresh_red["noparity_failed"] == 0:
            failures.append(
                "redundancy noparity_failed: the no-parity twin "
                "survived the chip loss"
            )
        if (
            fresh_red["parity_completion_rate"]
            < base_red["parity_completion_rate"]
        ):
            failures.append(
                f"redundancy parity_completion_rate: "
                f"{fresh_red['parity_completion_rate']:.2f} < baseline "
                f"{base_red['parity_completion_rate']:.2f}"
            )
        if fresh_red["parity_mismatched"] > 0:
            failures.append(
                f"redundancy parity_mismatched: "
                f"{fresh_red['parity_mismatched']} reconstructed "
                "results diverged from the oracle"
            )
        if fresh_red["pending_rebuild"] > 0:
            failures.append(
                f"redundancy pending_rebuild: "
                f"{fresh_red['pending_rebuild']} columns never rebuilt"
            )
        if "p99_ratio" in base_red:
            ceiling = base_red["p99_ratio"] * tolerance
            if fresh_red["p99_ratio"] > ceiling:
                failures.append(
                    f"redundancy p99_ratio: "
                    f"{fresh_red['p99_ratio']:.2f} > baseline "
                    f"{base_red['p99_ratio']:.2f} x {tolerance:.1f}"
                )

    if failures:
        print("perf regression(s) vs baseline:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"perf trajectory ok: {len(baseline.get('kernels', {}))} kernels, "
        f"service, batch-sense, stack-reuse, result-cache, SLO, "
        f"fault-tolerance, GC, and redundancy "
        f"metrics within {tolerance:.1f}x of baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "command", choices=("record", "check"), nargs="?", default="record"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_SNAPSHOT,
        help="snapshot path for 'record'",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_SNAPSHOT,
        help="baseline path for 'check'",
    )
    parser.add_argument(
        "--tolerance", type=float, default=3.0,
        help="multiplicative slack for 'check' (default 3.0)",
    )
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.output)
        return 0
    return check(args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
