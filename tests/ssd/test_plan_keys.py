"""The engine interns its bound plans and keys each ``(chip, plan)``
with an int (``PlanKeys``): sharing, dedup and every cache compare
keys, so the key must mean exactly what plan equality means.

* Equal plans bound from different expressions are one object with
  one key per chip, and a result cached for one serves the other.
* A key is drawn from a counter and never handed out again, even
  after its plan is freed and an equal plan is bound anew.
* The table holds plans weakly: once the result cache lets go and the
  bound-plan LRU moves on, no plan stays alive on the table's account.
"""

import gc

import numpy as np

from reference_data_plane import GEOMETRY, Hit, drain, tasks_of
from repro.core.expressions import And, Not, Operand, and_all, evaluate
from repro.core.planner import Plan, XorStep
from repro.flash.packing import unpack_words
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import PlanKeys

NAMES = "abcdef"


def _build(n_chips=2, seed=4, cache_size=64):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed)
    ssd.engine.cache_size = cache_size
    rng = np.random.default_rng(seed)
    n_bits = n_chips * GEOMETRY.page_size_bits
    env = {n: rng.integers(0, 2, n_bits, dtype=np.uint8) for n in NAMES}
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    return ssd, env


def test_equal_plans_of_different_expressions_share_one_key_and_entry():
    ssd, env = _build()
    ssd.engine.enable_result_cache()
    first = And(Operand("a"), Operand("b"))
    second = Not(Not(first))
    assert first != second
    one, other = ssd.engine.prepare(first), ssd.engine.prepare(second)
    assert one.keys == other.keys
    assert len(set(one.keys)) == len(one.chips) == 2  # a key per chip
    assert all(p is q for p, q in zip(one.plans, other.plans))
    sensed = drain(ssd.engine, tasks_of(one, 0), use_cache=True)
    assert not any(isinstance(outcome, Hit) for outcome in sensed)
    served = drain(ssd.engine, tasks_of(other, 1), use_cache=True)
    # The entries the first query filled, word array for word array.
    assert all(isinstance(outcome, Hit) for outcome in served)
    assert all(h.data is s.data for h, s in zip(served, sensed))
    page_bits = GEOMETRY.page_size_bits
    bits = np.concatenate([
        unpack_words(hit.data, page_bits)
        for hit in sorted(served, key=lambda hit: hit.task.chunk)
    ])
    np.testing.assert_array_equal(bits, evaluate(second, env))
    # ``get`` finds the entry from any plan equal to the bound one.
    twin = Plan(one.plans[0].plane, one.plans[0].steps)
    assert ssd.engine.result_cache.get(one.chips[0], twin) is served[0].data


def test_a_key_is_never_reused_after_its_plan_is_freed():
    keys = PlanKeys()
    plan = Plan(plane=0, steps=(XorStep(plane=0),))
    canonical, by_chip = keys.intern(plan)
    assert canonical is plan
    first = by_chip[3]
    assert keys.intern(Plan(0, (XorStep(0),)))[0] is plan
    assert keys.intern(Plan(0, (XorStep(0),)))[1][3] == first
    del plan, canonical, by_chip
    gc.collect()
    assert keys._plans == {}
    fresh = Plan(plane=0, steps=(XorStep(plane=0),))
    canonical, by_chip = keys.intern(fresh)
    assert canonical is fresh
    assert by_chip[3] > first


def test_the_table_holds_no_plan_that_nothing_else_holds():
    ssd, env = _build(cache_size=4)
    engine = ssd.engine
    engine.enable_result_cache()
    service = ssd.service(window_us=50.0, result_cache=True)
    warm = [And(Operand("a"), Operand(n)) for n in "bcd"]
    for at_us, expr in enumerate(warm):
        service.submit(expr, at_us=10.0 * at_us)
    for query in service.run().queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
    engine.result_cache.clear()
    flood = [
        and_all([Operand(n) for n in NAMES[:k]] + [Operand(NAMES[k])])
        for k in range(1, len(NAMES) - 1)
    ] + [Not(Operand(n)) for n in NAMES]
    for expr in flood:
        engine.prepare(expr)
    gc.collect()
    held = {
        id(plan)
        for _, _, prepared in engine._bound.values()
        for plan in prepared.plans
    }
    for controller in ssd.controllers:
        memo = controller.executor._window_memo
        held.update(map(id, memo[0] if memo else ()))
    interned = [ref() for ref, _ in engine.plan_keys._plans.values()]
    assert interned and all(id(plan) in held for plan in interned)
