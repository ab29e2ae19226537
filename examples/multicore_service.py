"""Concurrent multi-chip execution and preemptive channel/way
arbitration, end to end.

Part 1 -- **scaling**: one 64-chunk mixed admission window is drained
through ``QueryEngine.execute_tasks`` at increasing worker counts.
Chips are independent dies and the batched data plane's NumPy reduces
release the GIL, so per-chip drains overlap on real cores; results,
latch end-state, and every float counter stay bit-identical at any
worker count (asserted here, not just claimed).  On a single-core
machine the wall-clock ratio hovers around 1.0 -- the point of the
printout is that *identity holds while wall-clock varies*.

Part 2 -- **deadline conformance**: a window of bulk scans owns the
only chip when an urgent deadline point query arrives one window
later, the first bulk sense still in flight.  The exact event
simulation is run twice -- EDF scheduling without preemption, where
the die lets the urgent sense past the bulk senses still waiting but
not past the one in flight, then EDF with suspend/resume arbitration
-- and the printout shows the urgent query provably missing its
deadline in the first run and meeting it in the second, plus the
preemption counts and per-resource utilization the service reports.

Run with::

    PYTHONPATH=src python examples/multicore_service.py
"""

import time

import numpy as np

from repro.core.expressions import And, Operand, and_all
from repro.flash.geometry import ChipGeometry
from repro.service import QueryService
from repro.ssd import SmallSsd

# ----------------------------------------------------------------------
# Part 1: concurrent window drain, bit-identical at every worker count.
# ----------------------------------------------------------------------

SCALE_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=64,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=512,
)
N_CHIPS = 4
N_CHUNKS = 16


def build_scaling_ssd():
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=SCALE_GEOMETRY, seed=7)
    rng = np.random.default_rng(11)
    n_bits = N_CHUNKS * SCALE_GEOMETRY.page_size_bits
    for name in "abcdefgh":
        ssd.write_vector(
            name, rng.integers(0, 2, n_bits, dtype=np.uint8), group="g"
        )
    return ssd


def scaling_demo():
    print("=== Concurrent window drain ===")
    operands = [Operand(n) for n in "abcdefgh"]
    window = [
        and_all(operands[:k]) for k in (2, 3, 4, 5, 6, 2, 3, 4)
    ] * 2
    reference = None
    for workers in (1, 2, 4):
        ssd = build_scaling_ssd()
        tasks = []
        for query, expr in enumerate(window):
            tasks.extend(ssd.engine.prepare(expr).tasks(query=query))
        ssd.engine.execute_tasks(tasks, workers=workers)  # warm
        start = time.perf_counter()
        outcomes = ssd.engine.execute_tasks(tasks, workers=workers)
        elapsed = time.perf_counter() - start
        fingerprint = [
            (o.task.query, o.task.chunk, o.data.tobytes(), o.latency_us)
            for o in outcomes
        ]
        if reference is None:
            reference = fingerprint
        else:
            assert fingerprint == reference  # bit-identical drains
        print(
            f"  workers={workers}: {len(tasks)} chunk tasks in "
            f"{elapsed * 1e3:.2f} ms wall-clock "
            f"({'reference' if workers == 1 else 'bit-identical'})"
        )
    print()


# ----------------------------------------------------------------------
# Part 2: suspension meets the deadline the die's queue alone misses.
# ----------------------------------------------------------------------

PREEMPT_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)
#: Between the two completions: ~66 us suspending, ~77.6 us queueing.
DEADLINE_US = 72.0


def build_preempt_service(*, preemption):
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
    for at_us, names in ((1.0, "abcdef"), (2.0, "abcde"), (3.0, "abcd")):
        svc.submit(
            and_all([Operand(n) for n in names]),
            at_us=at_us,
            client="bulk",
        )
    svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="dashboard",
        deadline_us=DEADLINE_US,
    )
    return svc


def preemption_demo():
    print("=== Preemptive channel/way arbitration ===")
    for label, preemption in (
        ("EDF, no preemption", False),
        ("EDF + preemption  ", True),
    ):
        report = build_preempt_service(preemption=preemption).run()
        urgent = [
            q for q in report.queries if q.deadline_us is not None
        ][0]
        verdict = "MET" if urgent.deadline_met else "MISSED"
        print(
            f"  {label}: urgent query done at "
            f"{urgent.completed_us:7.1f} us "
            f"(deadline {DEADLINE_US:.0f} us -> {verdict}), "
            f"{report.stats.preemptions} preemptions"
        )
        if preemption:
            util = ", ".join(
                f"{name}={value:.0%}"
                for name, value in sorted(
                    report.stats.resource_utilization.items()
                )
            )
            print(
                f"  overhead "
                f"{report.stats.preemption_overhead_us:.1f} us; "
                f"utilization: {util}"
            )
            print(f"  stats: {report.stats.describe()}")
    print()


if __name__ == "__main__":
    scaling_demo()
    preemption_demo()
