"""Randomized churn property suite: GC and migration never change an
answer.

Each trial interleaves vector writes, deletes, in-place updates
(delete + rewrite under the same name), garbage-collection sweeps,
and queries, checking every query bit-identical against the NumPy
oracle as it happens -- with the template cache, bound-plan LRU, and
(in half the trials) the cross-window result cache all live across
the relocations.  A twin-SSD replay then pins worker-count
invariance: the same churned layout serves the same window of queries
through the service at ``workers=1`` and ``workers=4`` with identical
bits and float-identical counters.
"""

import numpy as np
import pytest

from repro.core.api import AllocationError
from repro.core.expressions import And, Operand, and_all, evaluate, or_all
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)

N_TRIALS = 12
N_STEPS = 30


def _make_trace(seed):
    """One deterministic churn scenario: the op list, sizes, and which
    caches are on."""
    rng = np.random.default_rng(31_000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 4))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    counter = 0
    live = {"g": [], "h": []}
    ops = []
    # Seed both groups so queries are possible from the start.
    for _ in range(2):
        for group in ("g", "h"):
            name = f"v{counter}"
            counter += 1
            live[group].append(name)
            ops.append(("write", name, group, int(rng.integers(1 << 16))))
    for _ in range(N_STEPS):
        kind = rng.choice(
            ["write", "delete", "update", "gc", "query", "query"]
        )
        group = "g" if rng.integers(2) else "h"
        if kind == "write" and len(live[group]) < 6:
            name = f"v{counter}"
            counter += 1
            live[group].append(name)
            ops.append(("write", name, group, int(rng.integers(1 << 16))))
        elif kind == "delete" and len(live[group]) > 2:
            name = live[group].pop(int(rng.integers(len(live[group]))))
            ops.append(("delete", name))
        elif kind == "update" and live[group]:
            name = live[group][int(rng.integers(len(live[group])))]
            ops.append(("delete", name))
            ops.append(("write", name, group, int(rng.integers(1 << 16))))
        elif kind == "gc":
            ops.append(("gc",))
        else:
            shape = int(rng.integers(3))
            if shape == 0 and len(live["g"]) >= 2:
                k = int(rng.integers(2, len(live["g"]) + 1))
                names = [
                    str(n)
                    for n in rng.choice(live["g"], size=k, replace=False)
                ]
                ops.append(("query", ("and", tuple(names))))
            elif shape == 1 and len(live["h"]) >= 2:
                k = int(rng.integers(2, len(live["h"]) + 1))
                names = [
                    str(n)
                    for n in rng.choice(live["h"], size=k, replace=False)
                ]
                ops.append(("query", ("or", tuple(names))))
            elif len(live["g"]) >= 2 and len(live["h"]) >= 2:
                ops.append(
                    (
                        "query",
                        (
                            "mixed",
                            tuple(live["g"][:2]),
                            tuple(live["h"][:2]),
                        ),
                    )
                )
    # Queries replayed after the full trace must reference vectors
    # still alive at the end, not at the query's position mid-trace.
    final_queries = []
    if len(live["g"]) >= 2:
        final_queries.append(("and", tuple(live["g"][:3])))
    if len(live["h"]) >= 2:
        final_queries.append(("or", tuple(live["h"][:3])))
    if len(live["g"]) >= 2 and len(live["h"]) >= 2:
        final_queries.append(
            ("mixed", tuple(live["g"][:2]), tuple(live["h"][:2]))
        )
    return dict(
        seed=seed,
        n_chips=n_chips,
        n_bits=n_bits,
        ssd_seed=int(rng.integers(1 << 16)),
        use_cache=bool(rng.integers(2)),
        ops=ops,
        final_queries=final_queries,
    )


def _expr(spec):
    if spec[0] == "and":
        return and_all([Operand(n) for n in spec[1]])
    if spec[0] == "or":
        return or_all([Operand(n) for n in spec[1]])
    return And(
        and_all([Operand(n) for n in spec[1]]),
        or_all([Operand(n) for n in spec[2]]),
    )


def _apply(trace, *, check_queries=True):
    """Replay one trace; returns (ssd, env) at the end state."""
    ssd = SmallSsd(
        n_chips=trace["n_chips"], geometry=GEOMETRY,
        seed=trace["ssd_seed"],
    )
    if trace["use_cache"]:
        ssd.engine.enable_result_cache()
    mgr = ssd.maintenance()
    env = {}
    for op in trace["ops"]:
        if op[0] == "write":
            _, name, group, data_seed = op
            bits = np.random.default_rng(data_seed).integers(
                0, 2, trace["n_bits"], dtype=np.uint8
            )
            env[name] = bits
            try:
                ssd.write_vector(
                    name, bits, group=group, inverse=(group == "h")
                )
            except AllocationError:
                # Write backpressure: the group's open string filled
                # with dead slots.  GC compacts it (relocation frees
                # the dead wordlines); the retried write must land.
                mgr.collect()
                ssd.write_vector(
                    name, bits, group=group, inverse=(group == "h")
                )
        elif op[0] == "delete":
            ssd.delete_vector(op[1])
            env.pop(op[1], None)
        elif op[0] == "gc":
            mgr.collect()
        else:
            expr = _expr(op[1])
            if check_queries:
                np.testing.assert_array_equal(
                    ssd.query(expr).bits,
                    evaluate(expr, env),
                    err_msg=f"query diverged mid-churn: {op[1]}",
                )
    return ssd, env


@pytest.mark.parametrize("seed", range(N_TRIALS))
def test_churn_queries_match_oracle(seed):
    trace = _make_trace(seed)
    ssd, env = _apply(trace)
    # End state: everything still reads back exactly, and occupancy
    # accounting holds (no block claims more live pages than the
    # directory knows).
    for name, bits in env.items():
        np.testing.assert_array_equal(ssd.read_vector(name), bits)
    mgr = ssd.maintenance()
    for chip in range(trace["n_chips"]):
        for occ in mgr.occupancy(chip):
            assert 0 <= occ.live <= occ.programmed


@pytest.mark.parametrize("seed", range(0, N_TRIALS, 3))
def test_churned_layout_worker_invariant(seed):
    trace = _make_trace(seed)
    if not trace["final_queries"]:
        pytest.skip("trace produced no queries")
    reports = []
    for workers in (1, 4):
        ssd, env = _apply(trace, check_queries=False)
        service = ssd.service(
            window_us=100.0,
            workers=workers,
            result_cache=trace["use_cache"],
        )
        for i, spec in enumerate(trace["final_queries"]):
            service.submit(_expr(spec), at_us=float(i) * 40.0)
        report = service.run()
        for query in report.queries:
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
        reports.append(report)
    one, four = reports
    assert one.stats.n_senses == four.stats.n_senses
    assert one.stats.shared_senses == four.stats.shared_senses
    assert one.stats.latency == four.stats.latency
    assert one.stats.makespan_us == four.stats.makespan_us
    for a, b in zip(one.queries, four.queries):
        np.testing.assert_array_equal(a.result.bits, b.result.bits)
        assert a.result.n_senses == b.result.n_senses
        assert a.result.latency_us == b.result.latency_us
        assert a.result.energy_nj == b.result.energy_nj


def _final_group_members(trace, group):
    """Names alive in ``group`` after the trace (from the ops alone)."""
    alive = {}
    for op in trace["ops"]:
        if op[0] == "write":
            alive[op[1]] = op[2]
        elif op[0] == "delete":
            alive.pop(op[1], None)
    return sorted(n for n, g in alive.items() if g == group)


@pytest.mark.parametrize("seed", range(N_TRIALS))
def test_result_cache_never_serves_stale_words_across_gc(seed):
    """Warm the cache, update one operand in place, relocate with GC,
    then re-ask the same expression: the answer must track the *new*
    data, proving the layout stamps caught the move."""
    trace = dict(_make_trace(seed), use_cache=True)
    ssd, env = _apply(trace, check_queries=False)
    g_names = _final_group_members(trace, "g")
    if len(g_names) < 2:
        pytest.skip("fewer than two co-located survivors")
    target, partner = g_names[0], g_names[1]
    expr = _expr(("and", (target, partner)))
    np.testing.assert_array_equal(  # fills the result cache
        ssd.query(expr).bits, evaluate(expr, env)
    )
    ssd.delete_vector(target)
    new_bits = np.random.default_rng(999 + seed).integers(
        0, 2, trace["n_bits"], dtype=np.uint8
    )
    env[target] = new_bits
    ssd.write_vector(target, new_bits, group="g")
    ssd.maintenance().collect()
    np.testing.assert_array_equal(
        ssd.query(expr).bits, evaluate(expr, env)
    )


@pytest.mark.parametrize("erase_fault_rate", [0.0, 0.4])
@pytest.mark.parametrize("seed", range(0, N_TRIALS, 2))
def test_collect_picks_what_a_fresh_scan_would(seed, erase_fault_rate):
    """``collect_plane`` scans occupancy once per call and keeps its
    candidate list current; every victim it relocates must be the head
    of a fresh ``select_victims`` scan taken at that moment -- also
    after a failed erase left an all-dead block behind."""
    from repro.flash.faults import FaultConfig, FaultInjector

    trace = _make_trace(seed)
    ssd, _ = _apply(
        dict(trace, ops=[op for op in trace["ops"] if op[0] != "gc"]),
        check_queries=False,
    )
    if erase_fault_rate:
        ssd.attach_fault_injector(
            FaultInjector(
                FaultConfig(seed=seed, erase_fault_rate=erase_fault_rate)
            )
        )
    mgr = ssd.maintenance()
    relocate = mgr._relocate_block
    victims = []

    def checked(chip_index, victim):
        fresh = mgr.select_victims(chip_index, victim.plane)
        assert fresh[0].address == victim
        victims.append((chip_index, victim))
        return relocate(chip_index, victim)

    mgr._relocate_block = checked
    # Write backpressure in the replay may already have collected.
    before = mgr.stats.blocks_reclaimed
    mgr.collect()
    reclaimed = mgr.stats.blocks_reclaimed - before
    assert len(victims) >= reclaimed
    if not erase_fault_rate:
        assert len(victims) == reclaimed
        for chip in range(trace["n_chips"]):
            assert mgr.select_victims(chip) == []
