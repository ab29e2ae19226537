"""Service-level fault tolerance: recovery, health tracking, and
quarantine.

The acceptance contract: with a 1% transient sense-fault rate the
service completes 100% of queries bit-identical to the NumPy oracle
(retry + degraded re-execution absorb every fault), a chip whose
error EWMA crosses threshold is quarantined (and its directory
generation bumped so bound plans rebind), and the fault-free path
stays float-exact against a no-injector twin at any worker count.
"""

import numpy as np
import pytest

from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash.errors import BadBlockFault, ChipUnavailableError
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.geometry import ChipGeometry
from repro.service import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    ChipHealthTracker,
    HealthConfig,
    ServiceStats,
    schedule_window,
)
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)


def _build(n_chips=2, n_bits=300, seed=1, injector=None):
    ssd = SmallSsd(
        n_chips=n_chips,
        geometry=GEOMETRY,
        seed=seed,
        fault_injector=injector,
    )
    rng = np.random.default_rng(42)
    env = {}
    for name in ("a", "b", "c"):
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _traffic():
    a, b, c = Operand("a"), Operand("b"), Operand("c")
    pool = [
        And(a, b),
        or_all([And(a, b), c]),
        Not(And(a, c)),
        Xor(b, c),
        And(And(a, b), c),
    ]
    return [
        (37.0 * i, "tenant", pool[i % len(pool)], 0, 37.0 * i + 4000.0)
        for i in range(10)
    ]


def _run_service(ssd, *, workers=1, **kwargs):
    service = ssd.service(window_us=120.0, workers=workers, **kwargs)
    service.submit_traffic(_traffic())
    return service, service.run()


# ----------------------------------------------------------------------
# Acceptance: 1% transient faults, 100% correct completion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 4))
def test_one_percent_fault_rate_completes_all_queries_exactly(workers):
    injector = FaultInjector(
        FaultConfig(seed=13, sense_fault_rate=0.01, stall_rate=0.01)
    )
    ssd, env = _build(injector=injector)
    _, report = _run_service(ssd, workers=workers)
    assert report.stats.n_queries == len(_traffic())
    assert report.stats.queries_failed == 0
    for query in report.queries:
        assert query.error is None
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


@pytest.mark.parametrize("rate", (0.2, 0.6))
def test_heavy_fault_rates_still_complete_exactly(rate):
    injector = FaultInjector(
        FaultConfig(seed=29, sense_fault_rate=rate, stall_rate=0.1)
    )
    ssd, env = _build(injector=injector)
    _, report = _run_service(ssd)
    assert report.stats.queries_failed == 0
    assert report.stats.faults_injected > 0
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
    # Recovery cost is visible: retries or degraded senses happened
    # and their time was stamped into the simulation.
    stats = report.stats
    assert stats.fault_retries > 0 or stats.degraded_senses > 0
    assert stats.fault_overhead_us >= 0.0


# ----------------------------------------------------------------------
# Fault-free path float-exact vs no-injector twin
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 4))
def test_fault_free_service_float_exact_vs_twin(workers):
    bare_ssd, _ = _build()
    twin_ssd, _ = _build(injector=FaultInjector(FaultConfig(seed=99)))
    _, bare = _run_service(bare_ssd, workers=workers)
    _, twin = _run_service(twin_ssd, workers=workers)
    assert len(bare.queries) == len(twin.queries)
    for a, b in zip(bare.queries, twin.queries):
        np.testing.assert_array_equal(a.result.bits, b.result.bits)
        assert a.completed_us == b.completed_us
        assert a.result.latency_us == b.result.latency_us
        assert a.result.energy_nj == b.result.energy_nj
        assert a.retries == 0 and b.retries == 0
    assert bare.stats.makespan_us == twin.stats.makespan_us
    assert twin.stats.faults_injected == 0
    assert twin.stats.fault_overhead_us == 0.0


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------


def _poison_chip0(ssd):
    """Mark every block chip 0 serves as stuck-bad (post-ingest), so
    its errors persist through degraded mode and the EWMA must climb
    to quarantine."""
    directory = ssd.controllers[0].directory
    bad = tuple(
        (0, s.address.plane, s.address.block, s.address.subblock)
        for s in (directory.lookup(n) for n in directory.names())
    )
    injector = FaultInjector(FaultConfig(seed=3, bad_blocks=bad))
    ssd.attach_fault_injector(injector)
    return injector


def test_quarantine_trips_on_persistent_chip_errors():
    ssd, _ = _build()
    _poison_chip0(ssd)
    service, report = _run_service(
        ssd, health=HealthConfig(probation_windows=8)
    )
    assert report.stats.quarantines >= 1
    assert service.health.state(0) == QUARANTINED
    assert service.health.state(1) == HEALTHY
    errors = {
        type(q.error).__name__ for q in report.queries if q.error is not None
    }
    assert errors <= {"BadBlockFault", "ChipUnavailableError"}
    assert "ChipUnavailableError" in errors
    assert report.stats.queries_failed == sum(
        1 for q in report.queries if q.failed
    )


def test_quarantine_transition_bumps_directory_generation():
    ssd, _ = _build()
    _poison_chip0(ssd)
    before = [c.directory.generation for c in ssd.controllers]
    service, report = _run_service(
        ssd, health=HealthConfig(probation_windows=8)
    )
    after = [c.directory.generation for c in ssd.controllers]
    assert report.stats.quarantines >= 1
    assert after[0] > before[0]  # placement event: rebind required
    assert after[1] == before[1]


def test_probation_readmits_chip_as_degraded():
    tracker = ChipHealthTracker(
        2, HealthConfig(ewma_alpha=0.8, probation_windows=2)
    )
    transitions = tracker.observe_window({0: (4, 4), 1: (4, 0)})
    assert (0, HEALTHY, QUARANTINED) in transitions
    assert tracker.state(0) == QUARANTINED
    assert tracker.offline == frozenset({0})
    tracker.observe_window({1: (4, 0)})
    assert tracker.state(0) == QUARANTINED
    transitions = tracker.observe_window({1: (4, 0)})
    assert (0, QUARANTINED, DEGRADED) in transitions
    assert tracker.degraded == frozenset({0})
    # Clean service on the V_TH path earns it back to healthy.
    transitions = tracker.observe_window({0: (4, 0), 1: (4, 0)})
    assert (0, DEGRADED, HEALTHY) in transitions
    assert tracker.quarantines == 1


def test_health_tracker_degrades_then_heals():
    tracker = ChipHealthTracker(1, HealthConfig())
    tracker.observe_window({0: (10, 4)})  # EWMA 0.14 -> degraded
    assert tracker.state(0) == DEGRADED
    for _ in range(6):
        tracker.observe_window({0: (10, 0)})
    assert tracker.state(0) == HEALTHY
    assert tracker.quarantines == 0


def test_health_config_validation():
    with pytest.raises(ValueError):
        HealthConfig(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        HealthConfig(degrade_threshold=0.6, quarantine_threshold=0.5)
    with pytest.raises(ValueError):
        HealthConfig(probation_windows=0)


# ----------------------------------------------------------------------
# The drain under the service
# ----------------------------------------------------------------------


@pytest.mark.parametrize("extra", (0, 5))
def test_degraded_chip_keeps_the_services_margin_ladder_without_faults(
    extra,
):
    """Regression: health state outlives the injector that caused it.
    A chip still degraded once the injector is detached must be
    served on the ladder the service was given, not the default one
    (the engine used to drop the whole policy with the injector)."""
    injector = FaultInjector(
        FaultConfig(seed=5, chip_sense_fault_rates={1: 0.9})
    )
    ssd, env = _build(injector=injector)
    service = ssd.service(
        window_us=1e6,
        recovery=RecoveryPolicy(degraded_extra_senses=extra),
        health=HealthConfig(quarantine_threshold=1.0),
    )
    service.submit_traffic(_traffic())
    service.run()
    assert service.health.degraded == frozenset({1})
    ssd.attach_fault_injector(None)
    before = [chip.counters.senses for chip in ssd.chips]
    service.submit_traffic(_traffic())
    report = service.run()
    assert report.stats.degraded_senses > 0
    healthy, degraded = (
        chip.counters.senses - senses
        for chip, senses in zip(ssd.chips, before)
    )
    # Both chips hold the same chunks of the same vectors.
    assert degraded == (1 + extra) * healthy
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


@pytest.mark.parametrize("workers", (1, 4))
def test_sense_stage_error_leaves_the_service_retryable(workers, monkeypatch):
    """A drain that raises mid-window surfaces the typed error from
    ``run()`` with the admission queue intact; once the cause is gone
    a second ``run()`` serves every query, oracle-identical."""
    ssd, env = _build()
    service = ssd.service(window_us=120.0, workers=workers)
    ids = service.submit_traffic(_traffic())

    def dropped_out(commands):
        raise ChipUnavailableError("chip 1 is offline", chip=1)

    # The die answers the fail-fast stage and is gone by the sense.
    monkeypatch.setattr(ssd.chips[1], "execute_sense_batch", dropped_out)
    with pytest.raises(ChipUnavailableError) as raised:
        service.run()
    assert raised.value.chip == 1
    assert len(service.admission) == len(ids)
    monkeypatch.undo()
    report = service.run()
    assert [query.query_id for query in report.queries] == ids
    assert report.stats.queries_failed == 0
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


# ----------------------------------------------------------------------
# Scheduler routing
# ----------------------------------------------------------------------


def _window_tasks(ssd, exprs):
    tasks = []
    for query, expr in enumerate(exprs):
        tasks.extend(ssd.engine.prepare(expr).tasks(query=query))
    return tasks


@pytest.mark.parametrize("policy", ("fifo", "balanced", "edf"))
def test_scheduler_parks_offline_chip_tasks_at_tail(policy):
    ssd, _ = _build()
    tasks = _window_tasks(
        ssd, [And(Operand("a"), Operand("b")), Operand("c")]
    )
    estimate = (
        lambda t: ssd.controllers[t.chip].executor.estimate_latency_us(t.plan)
    )
    ordered = schedule_window(
        tasks, estimate, policy=policy, offline=[0]
    )
    assert sorted(map(id, ordered)) == sorted(map(id, tasks))
    chips = [t.chip for t in ordered]
    first_parked = chips.index(0)
    assert all(c == 0 for c in chips[first_parked:])


def test_scheduler_prices_degraded_chips():
    ssd, _ = _build(n_chips=2)
    tasks = _window_tasks(ssd, [And(Operand("a"), Operand("b"))])
    estimate = (
        lambda t: ssd.controllers[t.chip].executor.estimate_latency_us(t.plan)
    )
    plain = schedule_window(tasks, estimate, policy="balanced")
    priced = schedule_window(
        tasks,
        estimate,
        policy="balanced",
        degraded=[1],
        degraded_slowdown=100.0,
    )
    # With chip 1 priced 100x, its bucket must lead the interleave.
    assert priced[0].chip == 1
    assert sorted(map(id, priced)) == sorted(map(id, plain))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_describe_handles_zero_query_run():
    ssd, _ = _build()
    report = ssd.service().run()
    assert report.stats.n_queries == 0
    text = report.stats.describe()
    assert "0 queries" in text
    assert report.stats.failure_rate == 0.0
    assert report.stats.deadline_miss_rate == 0.0
    assert report.stats.dedup_ratio == 0.0


def test_describe_reports_fault_counters():
    injector = FaultInjector(
        FaultConfig(seed=29, sense_fault_rate=0.5, stall_rate=0.1)
    )
    ssd, _ = _build(injector=injector)
    _, report = _run_service(ssd)
    text = report.stats.describe()
    assert "faults injected" in text
    assert "retries" in text


def test_stats_failure_rate_counts_failed_queries():
    ssd, _ = _build()
    _poison_chip0(ssd)
    _, report = _run_service(ssd)
    assert report.stats.queries_failed > 0
    assert (
        report.stats.failure_rate
        == report.stats.queries_failed / report.stats.n_queries
    )
    for query in report.queries:
        if query.failed:
            assert query.result.bits.size == 0
            assert isinstance(
                query.error, (BadBlockFault, ChipUnavailableError)
            )


def test_fault_attributed_misses_only_counts_fault_affected():
    stats = ServiceStats(
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
        latency=None,
        throughput_qps=0.0,
        span_us=0.0,
        makespan_us=0.0,
        bottleneck="",
    )
    assert stats.fault_attributed_misses == 0
    assert stats.failure_rate == 0.0


def test_recovery_policy_explicit_override_respected():
    injector = FaultInjector(FaultConfig(seed=7, sense_fault_rate=1.0))
    ssd, _ = _build(injector=injector)
    service, report = _run_service(
        ssd, recovery=RecoveryPolicy(max_retries=1, degraded_mode=False)
    )
    # No degraded fallback: with certain faults every executed chunk
    # fails until health routing kicks in.
    assert report.stats.queries_failed > 0
    assert report.stats.degraded_senses >= 0


# ----------------------------------------------------------------------
# The batched recovery drain is invisible from the service
# ----------------------------------------------------------------------


def _chip_loss_trace(monkeypatch, *, batch):
    """A ``chip_loss``-shaped mini trace (parity SSD, 1 % sense faults
    and stalls, a chip killed a third of the way in, paced rebuild),
    served through the engine's default batched drain or -- the
    service takes no such option, so from outside -- with the engine
    pinned to ``batch=False``.  Returns the reports, the event
    simulator's reports, and the engine's stats."""
    import repro.service.service as service_module

    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=16,
        subblocks_per_block=2,
        wordlines_per_string=8,
        page_size_bits=128,
    )
    ssd = SmallSsd(
        n_chips=4,
        geometry=geometry,
        seed=3,
        parity=True,
        fault_injector=FaultInjector(
            FaultConfig(seed=3, sense_fault_rate=0.01, stall_rate=0.01)
        ),
    )
    rng = np.random.default_rng(3)
    names = [f"v{i}" for i in range(6)]
    for name in names:
        ssd.write_vector(
            name,
            rng.integers(0, 2, ssd.page_bits * 12, dtype=np.uint8),
            group="g",
        )
    v = [Operand(name) for name in names]
    pool = [
        And(v[0], v[1]),
        And(And(v[1], v[2]), v[3]),
        Xor(v[2], v[4]),
        Xor(And(v[3], v[4]), v[5]),
        And(And(And(v[0], v[2]), v[4]), v[5]),
        Not(And(v[1], v[5])),
    ]
    stage_reports = []
    simulate = service_module.simulate_stages

    def recording_simulate(jobs, **kwargs):
        stage_reports.append(simulate(jobs, **kwargs))
        return stage_reports[-1]

    reports = []
    with monkeypatch.context() as patch:
        patch.setattr(service_module, "simulate_stages", recording_simulate)
        if not batch:
            drain = ssd.engine.execute_tasks
            patch.setattr(
                ssd.engine,
                "execute_tasks",
                lambda tasks, **kwargs: drain(tasks, batch=False, **kwargs),
            )
        service = ssd.service(window_us=400.0, policy="edf", maintenance=True)
        for round_idx in range(9):
            if round_idx == 3:
                ssd.kill_chip(2)
            start = 4000.0 * round_idx
            service.submit_traffic(
                [
                    (
                        start + 90.0 * i,
                        "loss",
                        pool[int(rng.integers(len(pool)))],
                        0,
                        start + 90.0 * i + 2000.0 if i % 2 else None,
                    )
                    for i in range(24)
                ]
            )
            reports.append(service.run())
    return reports, stage_reports, ssd.engine.stats


def test_batched_recovery_drain_is_invisible_from_the_service(monkeypatch):
    batched, batched_stages, batched_engine = _chip_loss_trace(
        monkeypatch, batch=True
    )
    scalar, scalar_stages, scalar_engine = _chip_loss_trace(
        monkeypatch, batch=False
    )
    # The trace really is chip_loss-shaped: faults were retried, the
    # loss was reconstructed around and then rebuilt.
    assert sum(r.stats.fault_retries for r in batched) > 0
    assert sum(r.stats.reconstructed_plans for r in batched) > 0
    assert sum(r.stats.columns_rebuilt for r in batched) > 0
    assert sum(r.stats.queries_failed for r in batched) == 0
    for report, twin in zip(batched, scalar):
        assert report.stats == twin.stats
        assert [q.latency_us for q in report.queries] == [
            q.latency_us for q in twin.queries
        ]
        assert [q.result.energy_nj for q in report.queries] == [
            q.result.energy_nj for q in twin.queries
        ]
    assert [s.completion_times for s in batched_stages] == [
        s.completion_times for s in scalar_stages
    ]
    # ...and the fast path is engaged: one dispatch per chip-window
    # instead of one per plan attempt.  If recovery ever drops back
    # to the scalar loop this is what notices.
    assert (
        batched_engine.executor_dispatches * 10
        <= scalar_engine.executor_dispatches
    )
