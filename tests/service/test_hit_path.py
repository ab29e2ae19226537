"""The cache-served hit path, and the prepare memo it starts from.

A window travels from admission to its job listing as task columns: a
chunk the result cache serves is a few column entries, never a record
of its own.  ``QueryEngine.prepare`` answers a repeat expression from
the bound-plan LRU in one probe, so everything here also pins what
must make that probe miss: any move of the layout generation.
"""

import numpy as np
import pytest

import repro.service.service as service_module
import repro.ssd.query_engine as engine_module
from reference_data_plane import GEOMETRY
from repro.core.expressions import (
    And,
    Not,
    Operand,
    Or,
    Xor,
    and_all,
    evaluate,
)
from repro.ssd.controller import SmallSsd

N_CHIPS = 3
N_CHUNKS = 6


def _build(n_chips=N_CHIPS, n_chunks=N_CHUNKS, seed=7, **ssd_kwargs):
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed, **ssd_kwargs
    )
    rng = np.random.default_rng(seed)
    n_bits = n_chunks * GEOMETRY.page_size_bits - 5
    env = {
        name: rng.integers(0, 2, n_bits, dtype=np.uint8) for name in "abcd"
    }
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    return ssd, env


def _pool():
    a, b, c, d = (Operand(name) for name in "abcd")
    return [And(a, b), Or(b, c), Xor(c, d), Not(and_all([a, c, d]))]


def _assert_oracle(report, env):
    for query in report.queries:
        assert query.error is None
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


class _Counted:
    """Stands in for a record class of the engine module and counts
    what is built through it."""

    def __init__(self, cls):
        self.cls = cls
        self.built = 0

    def __call__(self, *args, **kwargs):
        self.built += 1
        return self.cls(*args, **kwargs)


@pytest.mark.parametrize("policy", ["edf", "balanced", "fifo"])
def test_all_hit_window_builds_no_task_or_outcome(monkeypatch, policy):
    """Q queries x C chunks on K chips, every chunk served by the
    result cache: no ``ChunkTask``, no ``ChunkOutcome``, no
    ``StageJob``, and one sweep row per (query, chip) at most, listed
    once per chunk -- while the served bits, the cache's counters and
    the listing stay what they are."""
    ssd, env = _build()
    service = ssd.service(
        window_us=100.0, policy=policy, result_cache=True
    )
    pool = _pool()
    for i, expr in enumerate(pool):
        service.submit(expr, at_us=float(i))
    _assert_oracle(service.run(), env)  # warms every (chip, plan)

    queries = 3 * len(pool)
    for i in range(queries):
        service.submit(
            pool[i % len(pool)],
            at_us=1000.0 + i,
            client=f"tenant{i % 2}",
            deadline_us=5000.0 if i % 3 == 0 else None,
        )
    counted = {
        name: _Counted(getattr(engine_module, name))
        for name in ("ChunkTask", "ChunkOutcome", "StageJob")
    }
    for name, counter in counted.items():
        monkeypatch.setattr(engine_module, name, counter)
    rows = []
    feed = service_module.simulate_stages

    def recording(jobs, **kwargs):
        rows.extend(jobs)
        return feed(jobs, **kwargs)

    monkeypatch.setattr(service_module, "simulate_stages", recording)
    cache = ssd.engine.result_cache
    hits_before = cache.stats.hits
    report = service.run()

    _assert_oracle(report, env)
    assert report.stats.n_windows == 1
    assert report.stats.n_chunk_tasks == queries * N_CHUNKS
    assert all(q.cached_chunks == N_CHUNKS for q in report.queries)
    assert cache.stats.hits - hits_before == queries * N_CHUNKS
    assert counted["ChunkTask"].built == 0
    assert counted["ChunkOutcome"].built == 0
    assert counted["StageJob"].built == 0
    assert len(rows) == queries * N_CHUNKS
    assert all(type(row) is tuple for row in rows)
    assert 0 < len({id(row) for row in rows}) <= queries * N_CHIPS


def test_repeat_prepare_is_one_probe_of_the_memo():
    """A repeat under an unmoved generation gets the memo's prepared
    query itself, and the counters move as a template hit."""
    ssd, _ = _build()
    engine = ssd.engine
    expr = _pool()[0]
    first = engine.prepare(expr)
    repeat = engine.prepare(expr)
    assert first.planned and not repeat.planned
    assert engine.prepare(expr) is repeat
    # An equal expression built apart is the same key.
    assert engine.prepare(And(Operand("a"), Operand("b"))) is repeat
    stats = engine.stats
    assert (stats.template_hits, stats.template_misses) == (3, 1)
    assert stats.planner_invocations == 1


def test_an_evicted_template_is_planned_again_over_live_bound_plans():
    """The two LRUs age apart (a re-signed expression leaves a dead
    template key behind): a repeat whose template is gone plans it
    again -- a miss and a planner invocation, as when the operands are
    looked up afresh -- and keeps its bound plans."""
    ssd, _ = _build()
    engine = ssd.engine
    expr = _pool()[2]
    engine.prepare(expr)
    bound = engine.prepare(expr)
    engine._templates.clear()
    before = engine.stats
    again = engine.prepare(expr)
    after = engine.stats
    assert again.planned and again.plans is bound.plans
    assert after.template_misses == before.template_misses + 1
    assert after.planner_invocations == before.planner_invocations + 1
    assert after.template_hits == before.template_hits
    assert engine.prepare(expr) is bound


def _rewrite(ssd, env):
    """A vector rewrite: unregister and register (FTL generation)."""
    env["a"] = 1 - env["a"]
    ssd.delete_vector("a")
    ssd.write_vector("a", env["a"], group="g")


def _gc_relocation(ssd, env):
    """A GC relocation: the survivors of a collected block move
    (directory generation; the FTL generation stays put)."""
    generation = ssd.ftl.generation
    moved = ssd.maintenance().collect()
    assert moved and ssd.ftl.generation == generation


@pytest.mark.parametrize("move", [_rewrite, _gc_relocation])
def test_a_layout_move_rebinds_the_next_prepare(move):
    ssd, env = _build(n_chunks=2)
    # Dead pages for the collector to find, before the memo is filled.
    ssd.write_vector("dead", env["d"], group="g")
    ssd.delete_vector("dead")
    engine = ssd.engine
    expr = And(Operand("a"), Operand("c"))
    assert engine.prepare(expr).planned
    before = engine.prepare(expr)
    assert engine.prepare(expr) is before
    move(ssd, env)
    after = engine.prepare(expr)
    assert after is not before
    assert not after.planned  # a rebind from the template, no replan
    assert engine.prepare(expr) is after
    if move is _gc_relocation:
        assert after.plans != before.plans  # the operands moved
    result = ssd.query(expr)
    np.testing.assert_array_equal(result.bits, evaluate(expr, env))


def test_a_quarantine_rebinds_the_next_prepare(monkeypatch):
    """A chip lost between two windows is quarantined before the next
    one admits (directory generation): its queries prepare afresh and
    are served from parity, oracle-exact."""
    ssd, env = _build(parity=True)
    service = ssd.service(window_us=100.0, policy="edf", result_cache=True)
    expr = _pool()[1]
    service.submit(expr, at_us=0.0)
    _assert_oracle(service.run(), env)
    before = ssd.engine.prepare(expr)
    assert ssd.engine.prepare(expr) is before

    prepared = []
    prepare = ssd.engine.prepare

    def recording(expr_):
        prepared.append(prepare(expr_))
        return prepared[-1]

    monkeypatch.setattr(ssd.engine, "prepare", recording)
    ssd.kill_chip(1)
    service.submit(expr, at_us=1000.0)
    report = service.run()
    _assert_oracle(report, env)
    assert report.queries[0].reconstructed_chunks > 0
    assert len(prepared) == 1 and prepared[0] is not before
    assert prepare(expr) is prepared[0]


def test_non_co_located_expression_raises_on_every_call():
    ssd, env = _build()
    ssd.write_vector("short", env["a"][: GEOMETRY.page_size_bits], group="g")
    expr = And(Operand("a"), Operand("short"))
    for _ in range(3):
        with pytest.raises(ValueError, match="mismatched lengths"):
            ssd.engine.prepare(expr)
