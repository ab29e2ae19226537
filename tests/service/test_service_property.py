"""Randomized property suite: service results vs the synchronous oracle.

For arbitrary arrival orders, window sizes, scheduling policies, and
shared-sense dedup on/off, every query served by the windowed,
scheduled, deduplicated service must exactly match what the
synchronous oracle returns for the same expression -- both the packed
``SmallSsd.query`` and ``reference_data_plane.vth_query``, which
evaluates every sense through the V_TH comparison (``force_vth``).
"""

import numpy as np
import pytest

from reference_data_plane import vth_query
from repro.core.expressions import And, Not, Operand, evaluate, or_all
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=64,
)


def build_scenario(rng):
    """Random SSD + mixed expression pool with repeated shapes."""
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 6))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    ssd = SmallSsd(
        n_chips=n_chips,
        geometry=GEOMETRY,
        seed=int(rng.integers(1 << 16)),
    )
    names = [f"v{i}" for i in range(4)]
    env = {}
    for name in names[:3]:
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    env[names[3]] = rng.integers(0, 2, n_bits, dtype=np.uint8)
    ssd.write_vector(names[3], env[names[3]], group="h", inverse=True)

    ops = [Operand(n) for n in names]
    pool = [
        And(ops[0], ops[1]),
        And(ops[0], And(ops[1], ops[2])),
        or_all([And(ops[0], ops[1]), ops[3]]),
        Not(And(ops[1], ops[2])),
    ]
    return ssd, env, pool


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_service_matches_synchronous_oracle(seed, packed):
    """``packed`` picks the oracle: the packed query, or the V_TH
    one."""
    rng = np.random.default_rng(2000 + seed)
    ssd, env, pool = build_scenario(rng)
    query = ssd.query if packed else lambda expr: vth_query(ssd, expr)

    policy = ("fifo", "balanced")[int(rng.integers(2))]
    share = bool(rng.integers(2))
    window_us = float(rng.uniform(20.0, 500.0))
    max_queries = (
        None if rng.random() < 0.5 else int(rng.integers(1, 5))
    )
    service = ssd.service(
        window_us=window_us,
        max_window_queries=max_queries,
        policy=policy,
        share_senses=share,
    )

    # Arbitrary arrival order: times are drawn independently of
    # submission order, so windows interleave and reorder clients.
    n_queries = int(rng.integers(3, 12))
    exprs = [pool[int(rng.integers(len(pool)))] for _ in range(n_queries)]
    times = rng.uniform(0.0, 4.0 * window_us, size=n_queries)
    for expr, at_us in zip(exprs, times):
        service.submit(expr, at_us=float(at_us), client="prop")
    report = service.run()

    assert report.stats.n_queries == n_queries
    for served, expr in zip(report.queries, exprs):
        assert served.expr is expr
        oracle = query(expr)
        np.testing.assert_array_equal(served.result.bits, oracle.bits)
        np.testing.assert_array_equal(
            served.result.bits, evaluate(expr, env)
        )
        assert served.completed_us >= served.admitted_us
        assert served.admitted_us >= served.submitted_us

    if not share:
        assert report.stats.shared_plans == 0
        assert all(q.shared_chunks == 0 for q in report.queries)
    # Sharing never changes the total *useful* work accounted per
    # query stream: executed + shared-away senses equals the unshared
    # sense count of the same stream.
    total = report.stats.n_senses + report.stats.shared_senses
    unshared = sum(query(e).n_senses for e in exprs)
    assert total == unshared


@pytest.mark.parametrize("seed", range(4))
def test_shared_and_unshared_runs_agree(seed):
    """The same trace with dedup on and off yields identical bits for
    every query; dedup only removes duplicate flash work."""
    results = {}
    for share in (True, False):
        rng = np.random.default_rng(3000 + seed)
        ssd, env, pool = build_scenario(rng)
        service = ssd.service(
            window_us=200.0, policy="balanced", share_senses=share
        )
        n_queries = 8
        exprs = [pool[int(rng.integers(len(pool)))] for _ in range(n_queries)]
        for i, expr in enumerate(exprs):
            service.submit(expr, at_us=float(i * 10.0), client="p")
        report = service.run()
        results[share] = report
    shared, unshared = results[True], results[False]
    for a, b in zip(shared.queries, unshared.queries):
        np.testing.assert_array_equal(a.result.bits, b.result.bits)
    assert shared.stats.n_senses <= unshared.stats.n_senses
    assert (
        shared.stats.n_senses + shared.stats.shared_senses
        == unshared.stats.n_senses
    )
