"""Chaos soak: three planes colliding on one parity-striped SSD.

The property under test crosses the fault plane (transient sense
faults + stalls from an active injector), the maintenance plane
(overwrite churn driving watermark-paced GC), and the redundancy
plane (a chip killed permanently mid-soak): every query of every
round completes with no error and bit-identical to the NumPy oracle
-- while the same soak without parity demonstrably fails once the chip
dies.  And the run's event sweep, which streams -- each window fed as
it closes, a query served when its last job completes -- serves every
query of the soak exactly as a run held whole and replayed at its end.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_control_path as reference
from repro.core.expressions import And, Operand, Xor, evaluate, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import service as service_module
from repro.ssd.controller import SmallSsd
from repro.ssd.maintenance import MaintenanceConfig

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "service_fingerprint", REPO / "tools" / "service_fingerprint.py"
)
fingerprint = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = fingerprint  # dataclasses resolve their module
_SPEC.loader.exec_module(fingerprint)

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)

VICTIM = 2
N_CHUNKS = 6

#: Watermarks pinned just under the plane's 32-sub-block pool, so the
#: overwrite churn's invalidated blocks trip GC every round.
CHURNY = MaintenanceConfig(gc_low_watermark=31, gc_high_watermark=32)


def _build(parity, seed=17):
    injector = FaultInjector(
        FaultConfig(seed=seed, sense_fault_rate=0.02, stall_rate=0.02)
    )
    ssd = SmallSsd(
        n_chips=4,
        geometry=GEOMETRY,
        seed=seed,
        parity=parity,
        fault_injector=injector,
    )
    rng = np.random.default_rng(seed + 1)
    env = {}
    for name in ("a", "b", "c", "d"):
        env[name] = rng.integers(
            0, 2, ssd.page_bits * N_CHUNKS, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _traffic(start_us, n=8, edf=False):
    """``n`` queries 40 us apart; under ``edf`` every other one carries
    a deadline and a priority."""
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), or_all([And(a, b), c]), Xor(b, d), And(And(a, c), d)]
    return [
        (
            start_us + 40.0 * i,
            "tenant",
            pool[i % len(pool)],
            i % 2 if edf else 0,
            start_us + 40.0 * i + 400.0 if edf and i % 2 else None,
        )
        for i in range(n)
    ]


def _soak(parity, edf=False):
    """Churn rounds, a mid-soak permanent chip kill, rebuild drain,
    then churn again on the rebuilt layout.  Returns every round's
    report (in order) plus the service and oracle env."""
    ssd, env = _build(parity)
    service = ssd.service(
        window_us=100.0,
        maintenance=CHURNY,
        policy="edf" if edf else "balanced",
    )
    reports = []
    clock = 0.0
    # Healthy churn: overwrites invalidate whole block swaths, so GC
    # runs under live fault-injected traffic.
    for _ in range(2):
        ssd.delete_vector("a")
        ssd.write_vector("a", env["a"], group="g")
        service.submit_traffic(_traffic(clock, edf=edf))
        reports.append(service.run())
        clock += 1000.0
    ssd.kill_chip(VICTIM)
    # Post-kill rounds: reconstruction answers while the paced rebuild
    # queue drains (bounded -- the queue holds at most every column +
    # parity group once).
    for _ in range(12):
        service.submit_traffic(_traffic(clock, edf=edf))
        reports.append(service.run())
        clock += 1000.0
        if service.maintenance is not None and not (
            service.maintenance.pending_rebuild
        ):
            break
    # Post-rebuild churn: overwrite again on the healed layout.  Only
    # with parity -- without it nothing re-materializes the dead
    # chip's columns, so a rewrite would (correctly) fail at ingest.
    if parity:
        ssd.delete_vector("b")
        ssd.write_vector("b", env["b"], group="g")
    service.submit_traffic(_traffic(clock, edf=edf))
    reports.append(service.run())
    return ssd, service, env, reports


@pytest.mark.parametrize("edf", (False, True))
def test_chaos_soak_streams_what_the_buffered_one_shot_serves(
    edf, monkeypatch
):
    """Every field of every served query and of every run's stats is
    the same whether the run's sweep streams or -- the run's sweep a
    ``BufferedSweep`` -- holds every window and replays the run at
    once at its end.  Whatever the policy, the streamed sweep
    finalises jobs window by window: under ``edf`` urgencies differ,
    under ``balanced`` they do not, and the die queue is the same."""
    feed = service_module.simulate_stages
    finalised = []

    def recording(jobs, **kwargs):
        done = feed(jobs, **kwargs)
        finalised.append(len(done))
        return done

    with monkeypatch.context() as patch:
        patch.setattr(service_module, "simulate_stages", recording)
        *_, streamed = _soak(True, edf=edf)
    assert finalised and sum(finalised) > 0
    with monkeypatch.context() as patch:
        patch.setattr(service_module, "StageSweep", reference.BufferedSweep)
        *_, buffered = _soak(True, edf=edf)
    assert len(streamed) == len(buffered)
    for report, twin in zip(streamed, buffered):
        assert [repr(fingerprint.canonical(q)) for q in report.queries] == [
            repr(fingerprint.canonical(q)) for q in twin.queries
        ]
        assert repr(fingerprint.canonical(report.stats)) == repr(
            fingerprint.canonical(twin.stats)
        )


def test_chaos_soak_completes_everything_bit_identical():
    ssd, service, env, reports = _soak(True)
    for report in reports:
        assert report.stats.queries_failed == 0
        for query in report.queries:
            assert query.error is None
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
    # All three planes actually fired.
    totals = {
        "faults": sum(r.stats.faults_injected for r in reports),
        "gc": sum(
            r.stats.blocks_reclaimed + r.stats.pages_migrated
            for r in reports
        ),
        "reconstructed": sum(r.stats.reconstructed_plans for r in reports),
        "rebuilt": sum(r.stats.columns_rebuilt for r in reports),
    }
    assert totals["faults"] > 0
    assert totals["gc"] > 0
    assert totals["reconstructed"] > 0
    assert totals["rebuilt"] > 0
    assert not service.maintenance.pending_rebuild
    # The dead chip ends the soak holding no live columns.
    for name in ("a", "b", "c", "d"):
        record = ssd.ftl.lookup(name)
        for chunk in range(record.n_chunks):
            assert ssd.ftl.chip_of_chunk(chunk) != VICTIM


def test_chaos_soak_without_parity_fails_typed():
    ssd, service, env, reports = _soak(False)
    failed = [q for r in reports for q in r.queries if q.failed]
    assert failed
    assert {type(q.error).__name__ for q in failed} <= {
        "ChipUnavailableError",
        "RetryExhaustedError",
    }
    assert "ChipUnavailableError" in {
        type(q.error).__name__ for q in failed
    }

