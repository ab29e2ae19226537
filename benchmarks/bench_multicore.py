"""Concurrent multi-chip execution and preemptive arbitration gains.

Two measurements, one per layer of the concurrent execution plane:

* **Multicore scaling** -- the ``bench_service`` 64-chunk mixed
  window drained sequentially (``workers=1``) vs concurrently
  (``workers=N`` per-chip threads; the batched path's NumPy reduces
  release the GIL).  Bit-/float-identity between the two drains is
  asserted unconditionally; the wall-clock scaling gate is
  environment-relaxable (``MULTICORE_SCALING_GATE``) and relaxes
  *automatically* on machines without real parallelism
  (``os.cpu_count() <= 1``) -- threads cannot beat sequential on one
  core, and a wall-clock gate that ignores that would make CI red on
  small runners while saying nothing about the code.

* **Preemption benefit** -- the deterministic collision from the
  exact event simulation: a window of bulk scans owns the only chip,
  an urgent deadline point query arrives one window later while the
  first bulk sense is in flight, and EDF-with-preemption meets a
  deadline EDF-without-preemption provably misses.  Without
  preemption the die's queue already lets the urgent sense past the
  bulk senses still *waiting*; what is left for suspension to buy is
  the rest of the one in flight.  Everything in this half is
  virtual-clock exact -- no wall clocks, no tolerance.

``measure_multicore``/``measure_preemption`` return plain dicts so
``tools/bench_record.py`` snapshots them as the ``multicore`` and
``preemption`` sections of ``BENCH_kernels.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.expressions import And, Operand, and_all
from repro.flash.geometry import ChipGeometry
from repro.service.service import QueryService
from repro.ssd.controller import SmallSsd

# The exact bench_service workload: same SSD contents, same 16-query
# 64-chunk window, so the scaling number composes with the batch and
# service trajectories.
from benchmarks.bench_service import N_CHIPS, N_CHUNKS, _loaded_ssd, _mixed_stream

#: Worker count of the concurrent drain under test.
WORKERS = min(N_CHIPS, max(2, os.cpu_count() or 1))

#: Required wall-clock scaling of the concurrent drain.  On a
#: single-core machine threads cannot scale, so the gate drops to
#: "merely not pathological"; multi-core machines must show a real
#: speedup.  Override with MULTICORE_SCALING_GATE for noisy runners.
_DEFAULT_GATE = "1.05" if (os.cpu_count() or 1) > 1 else "0.0"
SCALING_GATE = float(
    os.environ.get("MULTICORE_SCALING_GATE", _DEFAULT_GATE)
)

ROUNDS = 5

#: Preemption-benefit scenario (mirrors tests/service/test_preemption):
#: deadline chosen between the urgent query's two exact completion
#: times (~66 us suspending the bulk sense in flight vs ~77.6 us
#: waiting it out).
PREEMPT_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)
PREEMPT_DEADLINE_US = 72.0


def _window_tasks(ssd, stream):
    tasks, prepared = [], []
    for query, expr in enumerate(stream):
        p = ssd.engine.prepare(expr)
        prepared.append(p)
        tasks.extend(p.tasks(query=query))
    return tasks, prepared


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_multicore() -> dict:
    """Drain the identical window sequentially and concurrently;
    verify exact identity, then time both on warmed twins."""
    stream = _mixed_stream()

    # --- identity on fresh twins (counter bases identical) ----------
    seq_ssd = _loaded_ssd()
    par_ssd = _loaded_ssd()
    seq_tasks, _ = _window_tasks(seq_ssd, stream)
    par_tasks, _ = _window_tasks(par_ssd, stream)
    seq_out = seq_ssd.engine.execute_tasks(seq_tasks, workers=1)
    par_out = par_ssd.engine.execute_tasks(par_tasks, workers=WORKERS)
    for s, p in zip(seq_out, par_out):
        assert s.n_senses == p.n_senses
        assert s.latency_us == p.latency_us
        assert s.energy_nj == p.energy_nj
        assert s.shared == p.shared
        np.testing.assert_array_equal(s.data, p.data)
    for chip_s, chip_p in zip(seq_ssd.chips, par_ssd.chips):
        assert chip_s.counters.busy_us == chip_p.counters.busy_us
        assert chip_s.counters.energy_nj == chip_p.counters.energy_nj
        assert chip_s.counters.senses == chip_p.counters.senses

    # --- wall-clock on a warmed SSD (bound plans + pool hot) --------
    ssd = _loaded_ssd()
    tasks, _ = _window_tasks(ssd, stream)
    run_seq = lambda: ssd.engine.execute_tasks(tasks, workers=1)  # noqa: E731
    run_par = lambda: ssd.engine.execute_tasks(  # noqa: E731
        tasks, workers=WORKERS
    )
    run_seq()
    run_par()
    serial_s = _time(run_seq, ROUNDS)
    concurrent_s = _time(run_par, ROUNDS)
    return {
        "n_queries": len(stream),
        "n_tasks": len(seq_tasks),
        "workers": WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "serial_s": serial_s,
        "concurrent_s": concurrent_s,
        "scaling": serial_s / concurrent_s,
    }


def _preempt_service(*, preemption: bool) -> QueryService:
    ssd = SmallSsd(n_chips=1, geometry=PREEMPT_GEOMETRY, seed=0)
    rng = np.random.default_rng(100)
    for name in "abcdef":
        ssd.write_vector(
            name,
            rng.integers(
                0, 2, 2 * PREEMPT_GEOMETRY.page_size_bits, dtype=np.uint8
            ),
            group="g",
        )
    kwargs = dict(policy="edf", window_us=10.0)
    if preemption:
        kwargs.update(
            preemption=True, suspend_cost_us=1.0, resume_cost_us=1.0
        )
    svc = QueryService(ssd, **kwargs)
    svc.submit(
        and_all([Operand(n) for n in "abcdef"]), at_us=1.0, client="bulk"
    )
    svc.submit(
        and_all([Operand(n) for n in "abcde"]), at_us=2.0, client="bulk"
    )
    svc.submit(
        and_all([Operand(n) for n in "abcd"]), at_us=3.0, client="bulk"
    )
    svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="pt",
        deadline_us=PREEMPT_DEADLINE_US,
    )
    return svc


def measure_preemption() -> dict:
    """Exact virtual-clock benefit of preemptive arbitration: the same
    collision served with and without suspend/resume."""
    results = {}
    for label, preemption in (("fcfs", False), ("preempt", True)):
        report = _preempt_service(preemption=preemption).run()
        urgent = [
            q for q in report.queries if q.deadline_us is not None
        ][0]
        results[label] = (report, urgent)
    base_report, base_urgent = results["fcfs"]
    pre_report, pre_urgent = results["preempt"]
    return {
        "deadline_us": PREEMPT_DEADLINE_US,
        "n_deadlines": pre_report.stats.n_deadlines,
        "fcfs_deadlines_met": base_report.stats.deadlines_met,
        "preempt_deadlines_met": pre_report.stats.deadlines_met,
        "fcfs_urgent_completed_us": base_urgent.completed_us,
        "preempt_urgent_completed_us": pre_urgent.completed_us,
        "urgent_gain": (
            base_urgent.completed_us / pre_urgent.completed_us
        ),
        "preemptions": pre_report.stats.preemptions,
        "preemption_overhead_us": (
            pre_report.stats.preemption_overhead_us
        ),
    }


def test_concurrent_drain_scales_and_stays_identical():
    m = measure_multicore()
    print(
        f"\n{m['n_queries']} queries x {N_CHUNKS} chunks "
        f"({m['n_tasks']} tasks) on {N_CHIPS} chips: "
        f"serial {m['serial_s'] * 1e3:.2f} ms, "
        f"{m['workers']} workers {m['concurrent_s'] * 1e3:.2f} ms, "
        f"scaling {m['scaling']:.2f}x "
        f"(gate {SCALING_GATE:.2f}, {m['cpu_count']} cpus)"
    )
    assert m["scaling"] >= SCALING_GATE, (
        f"concurrent drain scaled {m['scaling']:.2f}x < gate "
        f"{SCALING_GATE:.2f}x (override via MULTICORE_SCALING_GATE)"
    )


def test_preemption_meets_deadline_fcfs_misses():
    m = measure_preemption()
    print(
        f"\nurgent query: {m['fcfs_urgent_completed_us']:.1f} us "
        f"queueing vs {m['preempt_urgent_completed_us']:.1f} us "
        f"preempting (deadline {m['deadline_us']:.0f} us, "
        f"{m['preemptions']} preemptions, "
        f"{m['preemption_overhead_us']:.1f} us overhead)"
    )
    assert m["fcfs_deadlines_met"] == 0
    assert m["preempt_deadlines_met"] == m["n_deadlines"] == 1
    assert m["preempt_urgent_completed_us"] <= m["deadline_us"]
    assert m["fcfs_urgent_completed_us"] > m["deadline_us"]
    assert m["preemptions"] >= 1
