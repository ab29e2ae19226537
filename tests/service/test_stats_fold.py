"""``ServiceStats`` is a fold of the served queries.

Every total that a per-query counter also carries is *derived* from
``report.queries``, not counted a second time -- so on any run, however
many planes collide in it, the stats equal the sums over the queries.
The shape is the chaos soak's (transient faults + stalls, overwrite
churn driving GC, a chip killed mid-trace on a parity-striped SSD) with
the result cache on, under all three scheduling policies.
"""

import math

import numpy as np
import pytest

from repro.core.expressions import And, Operand, Xor, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import LatencySummary, ServiceStats
from repro.ssd.controller import SmallSsd
from repro.ssd.maintenance import MaintenanceConfig

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)
N_CHUNKS = 6
VICTIM = 2
#: Watermarks just under the plane's 32-sub-block pool: every
#: overwrite round trips GC.
CHURNY = MaintenanceConfig(gc_low_watermark=31, gc_high_watermark=32)


def _traffic(start_us, n=8):
    """Eight queries 20 us apart over a pool of four shapes: a 100 us
    window holds a shape twice, so freshly invalidated plans share.
    Every other query states a deadline, half of them too tight."""
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), or_all([And(a, b), c]), Xor(b, d), And(And(a, c), d)]
    trace = []
    for i in range(n):
        at_us = start_us + 20.0 * i
        deadline_us = None
        if i % 2 == 0:
            deadline_us = at_us + (5000.0 if i % 4 == 0 else 150.0)
        expr = pool[i % len(pool)]
        trace.append((at_us, "tenant", expr, i % 3, deadline_us))
    return trace


def _soak_reports(policy):
    injector = FaultInjector(
        FaultConfig(seed=17, sense_fault_rate=0.02, stall_rate=0.02)
    )
    ssd = SmallSsd(
        n_chips=4,
        geometry=GEOMETRY,
        seed=17,
        parity=True,
        fault_injector=injector,
    )
    rng = np.random.default_rng(18)
    env = {
        name: rng.integers(0, 2, ssd.page_bits * N_CHUNKS, dtype=np.uint8)
        for name in "abcd"
    }
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    service = ssd.service(
        window_us=100.0,
        policy=policy,
        result_cache=True,
        maintenance=CHURNY,
    )
    reports = [service.run()]  # nothing submitted yet: the empty run
    clock = 0.0
    for round_index in range(8):
        if round_index == 3:
            ssd.kill_chip(VICTIM)
        elif round_index < 3:
            ssd.delete_vector("a")
            ssd.write_vector("a", env["a"], group="g")
        service.submit_traffic(_traffic(clock))
        reports.append(service.run())
        clock += 1000.0
    return reports


@pytest.mark.parametrize("policy", ("fifo", "balanced", "edf"))
def test_stats_are_the_sums_over_the_served_queries(policy):
    empty, *reports = _soak_reports(policy)
    for report in reports:
        stats, queries = report.stats, report.queries
        with_deadline = [q for q in queries if q.deadline_us is not None]
        assert stats.n_queries == len(queries)
        assert stats.n_senses == sum(q.result.n_senses for q in queries)
        assert stats.shared_plans == sum(q.shared_chunks for q in queries)
        assert stats.cached_plans == sum(q.cached_chunks for q in queries)
        assert stats.fault_retries == sum(q.retries for q in queries)
        assert stats.reconstructed_plans == sum(
            q.reconstructed_chunks for q in queries
        )
        assert stats.queries_failed == sum(q.failed for q in queries)
        assert stats.template_hits == sum(
            q.result.template_hit for q in queries
        )
        assert stats.n_deadlines == len(with_deadline)
        assert stats.deadlines_met == sum(
            q.deadline_met for q in with_deadline
        )
        # The two float totals accumulate outcome by outcome across
        # the whole run, the per-query ones query by query: the same
        # addends in a different order, so equal only to rounding.
        assert math.isclose(
            stats.fault_overhead_us,
            sum(q.fault_overhead_us for q in queries),
            rel_tol=1e-9,
            abs_tol=0.0,
        )
        assert math.isclose(
            stats.reconstruction_overhead_us,
            sum(q.reconstruction_us for q in queries),
            rel_tol=1e-9,
            abs_tol=0.0,
        )
    # The soak exercised every plane the identities cross.
    totals = {
        name: sum(getattr(r.stats, name) for r in reports)
        for name in (
            "cached_plans", "shared_plans", "fault_retries",
            "reconstructed_plans", "blocks_reclaimed", "columns_rebuilt",
            "n_deadlines", "deadlines_met",
        )
    }
    assert all(totals.values()), totals
    assert totals["deadlines_met"] < totals["n_deadlines"]
    assert sum(r.stats.fault_overhead_us for r in reports) > 0.0
    assert sum(r.stats.reconstruction_overhead_us for r in reports) > 0.0

    # A run over nothing folds to all-zero stats: the required fields
    # zero, every other field its default.
    expected = ServiceStats(
        n_queries=0,
        n_windows=0,
        n_chunk_tasks=0,
        n_senses=0,
        shared_plans=0,
        shared_senses=0,
        cached_plans=0,
        cached_senses=0,
        template_hits=0,
        n_deadlines=0,
        deadlines_met=0,
        latency=LatencySummary(
            n=0, mean_us=0.0, p50_us=0.0, p99_us=0.0, max_us=0.0
        ),
        throughput_qps=0.0,
        span_us=0.0,
        makespan_us=0.0,
        bottleneck="idle",
    )
    assert empty.queries == ()
    assert repr(empty.stats) == repr(expected)
