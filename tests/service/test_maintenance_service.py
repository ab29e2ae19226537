"""Service-level maintenance: probation drain under query traffic.

The acceptance scenario: a chip whose persistent (but transient-class)
sense faults trip the health breaker is quarantined mid-run, the
maintenance plane drains its live chunk columns to the surviving
chips, and every query -- before, during, and after the drain --
answers bit-identically to the NumPy oracle.  The sick chip ends the
run holding no live data, so probation re-admission starts empty.
"""

import numpy as np
import pytest

from repro.core.expressions import And, Operand, Xor, evaluate, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import QUARANTINED, HealthConfig
from repro.ssd.maintenance import MaintenanceConfig

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)


def _build(n_chips=3, n_bits=400, seed=5):
    from repro.ssd.controller import SmallSsd

    # Chip 0 faults on every sense attempt: recovery answers each
    # query on the degraded V_TH path (still exact), while the error
    # EWMA sprints to quarantine.
    injector = FaultInjector(
        FaultConfig(seed=seed, chip_sense_fault_rates={0: 1.0})
    )
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed,
        fault_injector=injector,
    )
    rng = np.random.default_rng(77)
    env = {}
    for name in ("a", "b", "c", "d"):
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _traffic(n=12):
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), or_all([And(a, b), c]), Xor(b, d), And(And(a, c), d)]
    return [
        (50.0 * i, "tenant", pool[i % len(pool)]) for i in range(n)
    ]


def _run(ssd, **kwargs):
    service = ssd.service(
        window_us=120.0,
        health=HealthConfig(ewma_alpha=0.8, probation_windows=50),
        maintenance=True,
        **kwargs,
    )
    service.submit_traffic(_traffic())
    return service, service.run()


@pytest.mark.parametrize("workers", (1, 4))
def test_probation_drain_keeps_queries_exact(workers):
    ssd, env = _build()
    service, report = _run(ssd, workers=workers)
    stats = report.stats
    # The breaker tripped and the maintenance plane drained the chip.
    assert stats.quarantines >= 1
    assert service.health.state(0) == QUARANTINED
    assert stats.chips_drained == 1
    assert stats.pages_migrated > 0
    assert ssd.ftl.live_pages(0) == 0
    # Nothing failed: pre-drain windows recovered on the degraded
    # path, post-drain windows answered from healthy silicon.
    assert stats.queries_failed == 0
    for query in report.queries:
        assert query.error is None
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


def test_drain_routes_columns_to_survivors_only():
    ssd, env = _build()
    _, report = _run(ssd)
    assert report.stats.chips_drained == 1
    for chunk, chip in ssd.ftl.chunk_overrides().items():
        assert chip != 0
    # Every vector still reads back exactly through the overlay.
    for name, bits in env.items():
        np.testing.assert_array_equal(ssd.read_vector(name), bits)


def test_drain_emits_background_jobs_and_overhead():
    ssd, _ = _build()
    _, report = _run(ssd)
    assert report.stats.maintenance_overhead_us > 0.0
    assert "chips drained" in report.stats.describe()


def test_result_cache_pruned_across_drain():
    """Cached results stamped against the pre-drain placement are
    bulk-pruned when maintenance moves data, and post-drain traffic
    re-fills the cache against the new world -- never serving a stale
    word."""
    ssd, env = _build()
    service, report = _run(ssd, result_cache=True)
    assert report.stats.chips_drained == 1
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
    cache = service.engine.result_cache
    assert cache is not None
    # Every surviving entry is fresh against the current layout.
    assert cache.prune_stale() == 0


def test_explicit_manager_and_config_forms():
    ssd, env = _build()
    config = MaintenanceConfig(gc_low_watermark=1, gc_high_watermark=2)
    manager = ssd.maintenance(config)
    service = ssd.service(
        window_us=120.0,
        health=HealthConfig(ewma_alpha=0.8, probation_windows=50),
        maintenance=manager,
    )
    assert service.maintenance is manager
    service.submit_traffic(_traffic(6))
    report = service.run()
    assert report.stats.chips_drained == 1
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


# ----------------------------------------------------------------------
# Background work yields inside the event replay
# ----------------------------------------------------------------------


def _capture_replay(monkeypatch, sweep=None):
    """Record every ``(jobs, report)`` the service replays, optionally
    through a substitute sweep."""
    import repro.service.service as service_module

    real = service_module.simulate_stages
    replays = []

    def recording(jobs, **kwargs):
        report = real(jobs, **kwargs) if sweep is None else sweep(jobs)
        replays.append((list(jobs), report))
        return report

    monkeypatch.setattr(service_module, "simulate_stages", recording)
    return replays


def test_background_jobs_finish_inside_the_run_and_report_their_lag(
    monkeypatch,
):
    replays = _capture_replay(monkeypatch)
    ssd, _ = _build()
    _, report = _run(ssd)
    ((jobs, replay),) = replays
    background = [
        (job, done)
        for job, done in zip(jobs, replay.completion_times)
        if job.background
    ]
    assert background
    for job, done in background:
        assert job.ready_at + job.durations[0] <= done * (1 + 1e-12)
        assert done <= replay.makespan
    assert report.stats.maintenance_lag_us == pytest.approx(
        max(done - job.ready_at for job, done in background) * 1e6
    )
    assert report.stats.maintenance_lag_us > 0.0
    assert "lag" in report.stats.describe()


def test_no_maintenance_no_lag():
    ssd, _ = _build()
    service = ssd.service(window_us=120.0)
    service.submit_traffic(_traffic(4))
    assert service.run().stats.maintenance_lag_us == 0.0


CHURN_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=256,
)
CHURN_BITS = 2 * CHURN_GEOMETRY.page_size_bits


def _churn_run(monkeypatch, sweep=None, rounds=20, spacing_us=110.0):
    """``write_churn`` in small: every round writes six fresh vectors,
    deletes the previous six and serves a window stream, half of it
    under deadline, on a near-full SSD with GC pacing on."""
    from repro.core.expressions import and_all
    from repro.ssd.controller import SmallSsd

    replays = _capture_replay(monkeypatch, sweep)
    ssd = SmallSsd(n_chips=2, geometry=CHURN_GEOMETRY, seed=9)
    rng = np.random.default_rng(404)
    env = {}
    for i in range(4):
        env[f"s{i}"] = rng.integers(0, 2, CHURN_BITS, dtype=np.uint8)
        ssd.write_vector(f"s{i}", env[f"s{i}"], group="stable")
    stable = [Operand(f"s{i}") for i in range(4)]
    service = ssd.service(
        window_us=200.0, policy="edf", result_cache=True, maintenance=True
    )
    served = []
    for r in range(rounds):
        for i in range(6):
            env[f"c{r}_{i}"] = rng.integers(0, 2, CHURN_BITS, dtype=np.uint8)
            ssd.write_vector(f"c{r}_{i}", env[f"c{r}_{i}"], group=f"r{r}")
        if r:
            for i in range(6):
                ssd.delete_vector(f"c{r - 1}_{i}")
                del env[f"c{r - 1}_{i}"]
        fresh = [Operand(f"c{r}_{i}") for i in range(6)]
        for i in range(16):
            at_us = r * 4000.0 + spacing_us * i
            expr = (
                and_all(stable[i % 3 :])
                if i % 2
                else and_all(fresh[i % 4 : i % 4 + 2])
            )
            service.submit(
                expr,
                at_us=at_us,
                deadline_us=at_us + 1500.0 if i % 4 < 2 else None,
            )
        report = service.run()
        for query in report.queries:
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
        served.append(report)
    return ssd, service, served, replays


def test_yielding_background_changes_timings_only(monkeypatch):
    """The twin whose replay is the frozen first-come-first-served
    sweep ends in the same functional state -- placement, free lists,
    wear, GC counters, every result's bits and flash work -- and only
    the timeline differs: background suspended, foreground sooner."""
    import reference_control_path as reference

    ssd, service, served, replays = _churn_run(monkeypatch)
    with monkeypatch.context() as patch:
        twin_ssd, twin_service, twin_served, _ = _churn_run(
            patch, sweep=reference.simulate_stages_fcfs
        )

    assert service.maintenance.stats.blocks_reclaimed > 0
    mine, theirs = service.maintenance.stats, twin_service.maintenance.stats
    assert (
        mine.blocks_reclaimed, mine.pages_migrated, mine.gc_cycles,
        mine.busy_us,
    ) == (
        theirs.blocks_reclaimed, theirs.pages_migrated, theirs.gc_cycles,
        theirs.busy_us,
    )
    assert ssd.wear_summary() == twin_ssd.wear_summary()
    assert ssd.ftl.generation == twin_ssd.ftl.generation
    for a, b in zip(ssd.controllers, twin_ssd.controllers):
        assert a.free_subblocks(0) == b.free_subblocks(0)
        assert a.directory.generation == b.directory.generation
        assert {
            name: a.directory.lookup(name).address
            for name in a.directory.names()
        } == {
            name: b.directory.lookup(name).address
            for name in b.directory.names()
        }
        assert a.chip.counters == b.chip.counters
    suspensions = 0
    sooner = 0
    for report, twin in zip(served, twin_served):
        suspensions += report.stats.preemptions
        for query, other in zip(report.queries, twin.queries):
            np.testing.assert_array_equal(
                query.result.bits, other.result.bits
            )
            assert query.result.n_senses == other.result.n_senses
            assert query.result.energy_nj == other.result.energy_nj
            assert query.result.latency_us == other.result.latency_us
            assert query.cached_chunks == other.cached_chunks
            assert query.completed_us <= other.completed_us * (1 + 1e-12)
            sooner += query.completed_us < other.completed_us
        assert report.stats.n_senses == twin.stats.n_senses
        assert report.stats.maintenance_overhead_us == (
            twin.stats.maintenance_overhead_us
        )
    assert any(
        job.background for jobs, _ in replays for job in jobs
    )
    assert suspensions > 0
    assert sooner > 0


def test_no_sense_waits_for_an_erase_and_gc_does_the_same_work(monkeypatch):
    """``write_churn`` in small, its windows dense enough that the
    next one closes while a resumed erase is still protected: every
    deadline is met and no query takes a millisecond, let alone the
    3.5 of an erase -- an arrival waits out the previous burst at
    most -- while GC does the work it does under the frozen
    first-come-first-served sweep."""
    import reference_control_path as reference

    _, service, served, replays = _churn_run(monkeypatch, spacing_us=30.0)
    with monkeypatch.context() as patch:
        _, twin_service, _, _ = _churn_run(
            patch, sweep=reference.simulate_stages_fcfs, spacing_us=30.0
        )
    queries = [query for report in served for query in report.queries]
    assert all(
        query.deadline_met
        for query in queries
        if query.deadline_us is not None
    )
    assert max(query.latency_us for query in queries) < 1000.0
    assert sum(report.stats.preemptions for report in served) > 0
    assert any(replay.resource_guard_waits for _, replay in replays)
    assert service.maintenance.stats == twin_service.maintenance.stats
    assert service.maintenance.stats.blocks_reclaimed > 0
