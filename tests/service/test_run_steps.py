"""Every step boundary of ``QueryService.run`` is a safe place to fail.

``run()`` is a loop of per-window steps (admit, schedule, execute,
account, list jobs, observe health, maintain, feed the event sweep --
which serves the queries whose last job completed) followed by one
report step; the admission queue is cleared by the last statement,
after the report exists.  So whichever step raises, on whichever window, the
exception reaches the caller as raised, every submission is still
queued, and a second ``run()`` -- the SSD having lived through the
first attempt's windows, cache fills, fault draws and maintenance --
serves every query bit-identical to the NumPy oracle.
"""

import numpy as np
import pytest

import repro.service.service as service_module
from reference_data_plane import GEOMETRY
from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.ssd.controller import SmallSsd

WINDOW_US = 120.0


class StepFailure(Exception):
    pass


def _build():
    """Result cache, maintenance and the 1% fault/stall injector of
    ``test_one_percent_fault_rate_completes_all_queries_exactly``."""
    injector = FaultInjector(
        FaultConfig(seed=13, sense_fault_rate=0.01, stall_rate=0.01)
    )
    ssd = SmallSsd(
        n_chips=2, geometry=GEOMETRY, seed=1, fault_injector=injector
    )
    rng = np.random.default_rng(42)
    env = {}
    for name in ("a", "b", "c"):
        env[name] = rng.integers(0, 2, 300, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _traffic():
    """Ten queries 37 us apart: three windows of 4 / 3 / 3."""
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


#: step -> (owner of the patched callable, its name, the call that
#: raises).  The per-window steps -- the event sweep's feed, once
#: named for the report step it was, among them -- fail on the second
#: of the three windows (``prepare`` runs once per query: the first
#: window holds four); a result is assembled where its query is
#: served, and that fails on the first result, and on the second
#: distinct one (one assembled array already held for sharing).
SITES = {
    "admit": (lambda service: service.engine, "prepare", 5),
    "schedule": (lambda service: service_module, "schedule_window", 2),
    "execute": (lambda service: service.engine, "execute_tasks", 2),
    "observe-health": (lambda service: service.health, "observe_window", 2),
    "maintain": (lambda service: service.maintenance, "run_cycle", 2),
    "report-replay": (lambda service: service_module, "simulate_stages", 2),
    "report-assemble": (lambda service: service.engine, "assemble_bits", 1),
    "report-assemble-second": (
        lambda service: service.engine, "assemble_bits", 2
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_a_step_that_raises_leaves_the_service_retryable(site, monkeypatch):
    ssd, env = _build()
    service = ssd.service(
        window_us=WINDOW_US, result_cache=True, maintenance=True
    )
    ids = service.submit_traffic(_traffic())
    assert [len(w) for w in service.admission.windows()] == [4, 3, 3]

    find_owner, name, failing_call = SITES[site]
    owner = find_owner(service)
    original = getattr(owner, name)
    failure = StepFailure(site)
    calls = []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == failing_call:
            raise failure
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    with pytest.raises(StepFailure) as raised:
        service.run()
    assert raised.value is failure
    assert len(calls) == failing_call
    assert len(service.admission) == len(ids)

    monkeypatch.undo()
    report = service.run()
    assert [query.query_id for query in report.queries] == ids
    assert report.stats.queries_failed == 0
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
    assert len(service.admission) == 0
