"""Service-level redundancy: survive a permanent mid-trace chip loss.

The acceptance contract: with parity striping a service run that
permanently loses one chip mid-trace completes 100% of its queries
bit-identical to the NumPy oracle -- reconstruction answers the
windows that race the loss, and the maintenance plane's rebuild job
re-materializes the lost columns so later windows answer from healthy
silicon without reconstruction.  A no-parity twin on the same trace
demonstrably fails.  Attribution stays separable: reconstruction
overhead is reported apart from retry overhead, and a fault-free
parity run stays float-exact against a no-parity twin.
"""

import numpy as np

from repro.core.expressions import And, Operand, Xor, evaluate, or_all
from repro.flash.geometry import ChipGeometry
from repro.service import QUARANTINED
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)

VICTIM = 1


def _build(parity=True, n_chips=4, n_chunks=6, seed=21):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed, parity=parity)
    rng = np.random.default_rng(seed)
    env = {}
    for name in ("a", "b", "c", "d"):
        env[name] = rng.integers(
            0, 2, ssd.page_bits * n_chunks, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _pool():
    a, b, c, d = (Operand(x) for x in "abcd")
    return [
        And(a, b),
        or_all([And(a, b), c]),
        Xor(b, d),
        And(And(a, c), d),
    ]


def _traffic(start_us, n=8):
    pool = _pool()
    return [
        (start_us + 40.0 * i, "tenant", pool[i % len(pool)])
        for i in range(n)
    ]


def _run_kill_trace(parity, *, extra_rounds=3):
    """Half the trace, kill a chip, the rest of the trace, then a few
    follow-up rounds so the paced rebuild queue drains."""
    ssd, env = _build(parity=parity)
    service = ssd.service(window_us=100.0, maintenance=True)
    service.submit_traffic(_traffic(0.0))
    before = service.run()
    ssd.kill_chip(VICTIM)
    service.submit_traffic(_traffic(1000.0))
    during = service.run()
    reports = [before, during]
    for round_idx in range(extra_rounds):
        service.submit_traffic(_traffic(3000.0 + 1000.0 * round_idx))
        reports.append(service.run())
    return ssd, service, env, reports


def test_chip_loss_completes_every_query_bit_identical():
    ssd, service, env, reports = _run_kill_trace(True)
    for report in reports:
        assert report.stats.queries_failed == 0
        for query in report.queries:
            assert query.error is None
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
    during = reports[1]
    # The loss was detected, reconstruction answered the racing
    # windows, and rebuild re-materialized the lost columns.
    assert during.stats.chips_lost == 1
    assert during.stats.reconstructed_plans > 0
    assert during.stats.reconstruction_senses > 0
    assert during.stats.reconstruction_overhead_us > 0.0
    assert service.health.state(VICTIM) == QUARANTINED
    assert service.health.is_permanent(VICTIM)
    total_rebuilt = sum(r.stats.columns_rebuilt for r in reports)
    assert total_rebuilt > 0
    assert not service.maintenance.pending_rebuild


def test_rebuild_restores_service_without_reconstruction():
    ssd, service, env, reports = _run_kill_trace(True)
    # After the rebuild queue drained, no live chunk maps to the dead
    # chip and the final round served without any parity work.
    for name in ("a", "b", "c", "d"):
        record = ssd.ftl.lookup(name)
        for chunk in range(record.n_chunks):
            assert ssd.ftl.chip_of_chunk(chunk) != VICTIM
    final = reports[-1]
    assert final.stats.queries_failed == 0
    assert final.stats.reconstructed_plans == 0


def test_no_parity_twin_fails_on_chip_loss():
    ssd, service, env, reports = _run_kill_trace(False)
    failed = [q for r in reports[1:] for q in r.queries if q.failed]
    assert failed
    assert {type(q.error).__name__ for q in failed} == {
        "ChipUnavailableError"
    }
    # The die is dead, not merely parked by the breaker.
    assert {str(q.error) for q in failed} == {f"chip {VICTIM} is offline"}


def test_reconstruction_attributed_apart_from_retries():
    _, _, _, reports = _run_kill_trace(True)
    during = reports[1]
    stats = during.stats
    # No injector, no retries: every microsecond of recovery here is
    # the parity plane's, and the report keeps the two ledgers apart.
    assert stats.fault_retries == 0
    assert stats.fault_overhead_us == 0.0
    assert stats.reconstruction_overhead_us > 0.0
    assert "parity:" in stats.describe()
    touched = [q for q in during.queries if q.reconstructed_chunks > 0]
    assert touched
    for query in touched:
        assert query.fault_affected
        assert query.fault_overhead_us == 0.0
        # A lost page is read once per window: a query whose chunks
        # reuse pages another query's reconstruction read paid nothing
        # itself (it still waits for those reads).
        assert query.reconstruction_us >= 0.0
    assert sum(query.reconstruction_us for query in touched) > 0.0


def test_fault_free_parity_run_float_exact_vs_no_parity_twin():
    outputs = []
    for parity in (True, False):
        ssd, env = _build(parity=parity)
        service = ssd.service(window_us=100.0, maintenance=True)
        service.submit_traffic(_traffic(0.0))
        outputs.append((service.run(), env))
    (with_parity, env_a), (without, env_b) = outputs
    assert len(with_parity.queries) == len(without.queries)
    for qa, qb in zip(with_parity.queries, without.queries):
        np.testing.assert_array_equal(qa.result.bits, qb.result.bits)
        np.testing.assert_array_equal(
            qa.result.bits, evaluate(qa.expr, env_a)
        )
        assert qa.result.n_senses == qb.result.n_senses
        assert qa.result.latency_us == qb.result.latency_us
        assert qa.completed_us == qb.completed_us
    assert with_parity.stats.reconstructed_plans == 0
    assert with_parity.stats.chips_lost == 0

