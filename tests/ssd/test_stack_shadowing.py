"""The result-cached drain consults one per-plan cache, not two.

``ResultCache`` and ``StackCache`` key on the same ``(chip, plan)`` and
a ``StackCache`` stamp is the ``ResultCache`` stamp plus the fault
injector, so whenever the ``StackCache`` *would* hit, the
``ResultCache`` consulted before it already *has* -- the drain
therefore engages the ``StackCache`` only when no ``ResultCache`` is
engaged for the call.  This file pins the argument (a property over
random multi-window traces served by twin SSDs) and both sides of the
engagement rule (two service-level regressions).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import AllocationError
from repro.core.expressions import And, Not, Operand, Xor, and_all, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

#: 80-bit pages keep packed padding words in play.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)
N_BITS = 3 * GEOMETRY.page_size_bits - 7

A0, A1, A2, SOLO = (Operand(n) for n in ("a0", "a1", "a2", "solo"))
POOL = [
    and_all([A0, A1, A2]),
    And(A0, A1),
    Not(And(A1, A2)),
    or_all([And(A0, A1), SOLO]),
    Xor(A0, SOLO),
    And(A0, A2),
]


def _build(seed: int) -> SmallSsd:
    rng = np.random.default_rng(seed)
    ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=seed)
    for name in ("a0", "a1", "a2"):
        ssd.write_vector(
            name, rng.integers(0, 2, N_BITS, dtype=np.uint8), group="g"
        )
    ssd.write_vector("solo", rng.integers(0, 2, N_BITS, dtype=np.uint8))
    return ssd


def _tasks(ssd, window):
    tasks = []
    for query, index in enumerate(window):
        tasks.extend(ssd.engine.prepare(POOL[index]).tasks(query=query))
    return tasks


def _record_stack_hits(ssd) -> list[tuple[int, object]]:
    """Wrap every chip's ``execute_batch_reuse`` so that the plans it
    is handed a live stack entry for are logged as ``(chip, plan)``."""
    hits: list[tuple[int, object]] = []
    for chip, controller in enumerate(ssd.controllers):
        executor = controller.executor
        original = executor.execute_batch_reuse

        def recording(plans, cached, store, _chip=chip, _run=original):
            hits.extend((_chip, plan) for plan in plans if plan in cached)
            return _run(plans, cached, store)

        executor.execute_batch_reuse = recording
    return hits


#: Between windows: churn the days' own string group (so deletes leave
#: dead wordlines beside live operands and GC has something to move),
#: collect, or swap the fault injector.
OP = st.one_of(
    st.tuples(
        st.just("window"),
        st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6),
    ),
    st.tuples(st.just("write")),
    st.tuples(st.just("delete")),
    st.tuples(st.just("gc")),
    st.tuples(st.just("inject")),
)


#: Live churn vectors at most: with the three operands they must fit
#: the group's 8-wordline string once GC has compacted it.
MAX_CHURN = 4


def _mutate(ssd, op, churn: list[str], serial: int) -> None:
    if op[0] == "write":
        if len(churn) == MAX_CHURN:
            ssd.delete_vector(churn.pop(0))
        name = f"c{serial}"
        bits = np.random.default_rng(serial).integers(
            0, 2, N_BITS, dtype=np.uint8
        )
        try:
            ssd.write_vector(name, bits, group="g")
        except AllocationError:
            # The string filled with dead slots: GC compacts it.
            ssd.maintenance().collect()
            ssd.write_vector(name, bits, group="g")
        churn.append(name)
    elif op[0] == "delete":
        if churn:
            ssd.delete_vector(churn.pop(0))
    elif op[0] == "gc":
        ssd.maintenance().collect()
    else:
        # An idle injector: no outcome changes, only the stack stamp.
        ssd.attach_fault_injector(FaultInjector(FaultConfig(seed=serial)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ops=st.lists(OP, min_size=2, max_size=14),
)
def test_every_stack_hit_is_a_result_cache_hit_first(seed, ops):
    """Twin SSDs, one drained with the StackCache engaged
    (``use_cache=False``) and one with the ResultCache
    (``use_cache=True``), at default capacities: every ``(window,
    chip, plan)`` the first serves from a reused stack comes back
    ``cached`` from the second -- so consulting the StackCache after
    a ResultCache miss can only ever miss."""
    stacked, cached = _build(seed), _build(seed)
    cached.engine.enable_result_cache()
    hits = _record_stack_hits(stacked)
    churn_s: list[str] = []
    churn_c: list[str] = []
    for serial, op in enumerate(ops):
        if op[0] != "window":
            _mutate(stacked, op, churn_s, serial)
            _mutate(cached, op, churn_c, serial)
            continue
        del hits[:]
        tasks_s = _tasks(stacked, op[1])
        out_s = stacked.engine.execute_tasks(tasks_s, use_cache=False)
        out_c = cached.engine.execute_tasks(
            _tasks(cached, op[1]), use_cache=True
        )
        reused = set(hits)
        for s, c in zip(out_s, out_c):
            assert (s.task.query, s.task.chunk) == (
                c.task.query,
                c.task.chunk,
            )
            np.testing.assert_array_equal(s.data, c.data)
            if (s.task.chip, s.task.plan) in reused:
                assert c.cached, (serial, s.task.chip, s.task.plan)
    assert cached.engine.stack_cache.stats.hits == 0
    assert cached.engine.stack_cache.stats.misses == 0


def test_repeated_window_does_hit_both_ways():
    """The property above is not vacuous: a plain repeat is a stack
    hit on one twin and a result-cache hit on the other."""
    stacked, cached = _build(3), _build(3)
    cached.engine.enable_result_cache()
    hits = _record_stack_hits(stacked)
    window = [0, 1, 4]
    for _ in range(2):
        del hits[:]
        stacked.engine.execute_tasks(_tasks(stacked, window))
        out = cached.engine.execute_tasks(
            _tasks(cached, window), use_cache=True
        )
    assert hits
    assert all(outcome.cached for outcome in out)
    assert stacked.engine.stats.stack_reuse_hits == len(hits)


# ----------------------------------------------------------------------
# The engagement rule, through the service
# ----------------------------------------------------------------------


def _traffic(rounds: int = 3):
    """The same six queries per round, 300 us apart: windows repeat."""
    return [
        (r * 2000.0 + i * 300.0, "t", POOL[i])
        for r in range(rounds)
        for i in range(len(POOL))
    ]


def _serve(ssd, **service_kwargs):
    service = ssd.service(window_us=400.0, **service_kwargs)
    service.submit_traffic(_traffic())
    return service.run()


def test_result_cached_service_never_consults_the_stack_cache():
    ssd = _build(5)
    report = _serve(ssd, result_cache=True)
    assert all(q.error is None for q in report.queries)
    stats = ssd.engine.stack_cache.stats
    assert stats.hits + stats.misses == 0
    assert stats.entries == 0
    assert ssd.engine.stats.stack_reuse_hits == 0
    assert ssd.engine.result_cache.stats.hits > 0


def _assert_same_flash_state(ssd, twin):
    for chip, other in zip(ssd.chips, twin.chips):
        assert chip.counters == other.counters
        assert chip.plane_array.materialized() == (
            other.plane_array.materialized()
        )
        for address in chip.plane_array.materialized():
            assert (
                chip.plane_array.block(address).reads_since_erase
                == other.plane_array.block(address).reads_since_erase
            )
        for plane, bank in chip.latches.items():
            other_bank = other.latches[plane]
            assert (bank.sense_words == other_bank.sense_words).all()
            assert (bank.cache_words == other_bank.cache_words).all()


def test_uncached_service_still_reuses_stacks_invisibly():
    """No ResultCache engaged, no faults: the drain goes through the
    StackCache and reuses, and nothing but the reuse counters can
    tell -- outcomes, chip counters, read disturb and latch words
    ``==`` a ``stack_reuse = False`` twin."""
    ssd, twin = _build(7), _build(7)
    twin.engine.stack_reuse = False
    # One all-miss window first (``execute_batch_reuse`` hands the
    # sensed matrix to the latch replay as it stands) ...
    window = [0, 2, 3, 5]
    out = ssd.engine.execute_tasks(_tasks(ssd, window))
    out_twin = twin.engine.execute_tasks(_tasks(twin, window))
    assert ssd.engine.stack_cache.stats.hits == 0
    assert ssd.engine.stack_cache.stats.misses > 0
    for a, b in zip(out, out_twin):
        assert a[2:] == b[2:]  # every cost and flag field
        assert (a.data == b.data).all()
    _assert_same_flash_state(ssd, twin)
    # ... then a service run whose windows repeat.
    report, report_twin = _serve(ssd), _serve(twin)
    assert ssd.engine.stats.stack_reuse_hits > 0
    assert twin.engine.stats.stack_reuse_hits == 0
    assert ssd.engine.stats.restacked_tensors < (
        twin.engine.stats.restacked_tensors
    )
    for q, q_twin in zip(report.queries, report_twin.queries):
        assert q.error is None and q_twin.error is None
        assert (q.result.bits == q_twin.result.bits).all()
        assert q.latency_us == q_twin.latency_us
        assert q.result.energy_nj == q_twin.result.energy_nj
    assert report.stats.n_senses == report_twin.stats.n_senses
    assert report.stats.makespan_us == report_twin.stats.makespan_us
    _assert_same_flash_state(ssd, twin)
