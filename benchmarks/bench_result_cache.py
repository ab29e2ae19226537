"""Cross-window result cache + SLO scheduling vs the PR 3/4 service.

Four claims, four measurements:

**Repeat windows** -- the service layer dedups senses *within* an
admission window (PR 3) and executes the survivors as per-chip
batches (PR 4), but an identical window arriving later re-senses
everything.  With the engine's :class:`ResultCache` enabled, the
second submission of an identical traffic window is served entirely
from memoized packed words: zero senses execute, and wall-clock drops
to dict lookups plus the event simulation.  Gated on the counts that
say so -- zero executed senses, zero executor dispatches, hit rate 1.0,
bit-exact results; the wall-clock ratio of the two submissions is
recorded (``repeat_speedup``, ~5x) and not gated: it is a ratio of two
~10 ms timings and reads anything under a loaded machine.

**Shared results** -- a run assembles a repeated result once: 16
shapes submitted 8 times in one cache-enabled run hold 16 frozen
packed result blocks in the report, not 128, at one bit per result
bit.  Gated exactly on the counts and the bytes.

**Rewrites** -- a rewrite moves every chip's layout stamp, and the
cache drops a chip's entries at the first window after its stamp
moves: after one vector is rewritten and one more window has run, the
cache holds only that window's entries (``entries_after_rewrite``),
none of the 1,024 sensed before.  Gated exactly.

**Deadlines** -- FIFO order lets heavy scan queries that arrived
first occupy the chips while later point queries wait; the ``edf``
policy drains deadline-carrying share groups earliest-deadline-first
ahead of the weighted-fair scan bulk.  The gate is exact, not
statistical: both policies run through the same event simulation, the
point queries' deadline is placed between the two completion times,
and EDF must meet every deadline that FIFO provably misses.

``measure_result_cache`` / ``measure_shared_results`` /
``measure_rewrite`` / ``measure_slo`` return plain dicts so
``tools/bench_record.py`` snapshots hit-rate, repeat-window speedup,
shared-result bytes, entries left after a rewrite, and mixed-priority
p99 into the ``BENCH_kernels.json`` trajectory.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.bench_service import N_DAYS, _loaded_ssd, _mixed_stream
from repro.core.expressions import Operand, Or, and_all
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

ROUNDS = 5
#: Submissions of each distinct shape in the shared-results run.
REPEATS = 8

#: The repeat-window measurement uses a harder placement than
#: bench_service: wide pages (2048 vs 256 bits) and the 12 day
#: bitmaps striped across *three* string groups, so a day-window AND
#: spanning groups costs several senses (latch-accumulated) per
#: chunk.  Cold cost scales with senses and word width; the warm
#: window's cost (cache lookups + the event simulation, which sees
#: the same 1024 jobs either way) does not -- the ratio isolates what
#: the cache actually removes.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=64,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=2048,
)
N_CHIPS = 4
N_CHUNKS = 64


def _cache_ssd(seed: int = 1) -> SmallSsd:
    """12 day bitmaps in four string groups of three days each, plus
    two sparse clique vectors in their own blocks."""
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed + 1)
    n_bits = N_CHUNKS * GEOMETRY.page_size_bits
    for i in range(N_DAYS):
        ssd.write_vector(
            f"day{i}",
            rng.integers(0, 2, n_bits, dtype=np.uint8),
            group=f"days{i // 3}",
        )
    for j in range(2):
        members = np.zeros(n_bits, dtype=np.uint8)
        members[rng.choice(n_bits, size=8, replace=False)] = 1
        ssd.write_vector(f"clique{j}", members)  # own block: OR operand
    return ssd


def _submit_stream(service, stream):
    for expr in stream:
        service.submit(expr, at_us=0.0, client="mix")


def _distinct_stream() -> list:
    """16 *distinct* query shapes: day-window ANDs of varying width
    plus AND-OR stars.  Nothing dedups within the window (the in-window
    sharing PR 3 already measures); everything repeats *across*
    windows -- the traffic shape the cross-window cache exists for."""
    def window(lo, hi):
        return and_all([Operand(f"day{d}") for d in range(lo, hi)])

    shapes = [window(lo, hi) for lo, hi in (
        (0, 12), (1, 11), (2, 12), (0, 10), (1, 9), (3, 12),
        (2, 11), (0, 9), (1, 12), (4, 12), (0, 11), (2, 8),
    )]
    # Star terms stay inside one string group (a disjunction term must
    # be computable in one sense): days 3-5 (group 1), 0-2 (group 0),
    # 9-11 (group 3).
    shapes += [
        Or(window(3, 6), Operand("clique0")),
        Or(window(3, 6), Operand("clique1")),
        Or(window(0, 3), Operand("clique0")),
        Or(window(9, 12), Operand("clique1")),
    ]
    return shapes


def measure_result_cache() -> dict:
    """Submit an identical 16-query window twice through a
    cache-enabled service; time both runs and check the second against
    fresh per-query oracles."""
    stream = _distinct_stream()
    best_cold = float("inf")
    best_warm = float("inf")
    cold_senses = warm_senses = warm_dispatches = 0
    hit_rate = 0.0
    for _ in range(ROUNDS):
        ssd = _cache_ssd()
        service = ssd.service(
            window_us=1000.0,
            max_window_queries=len(stream),
            policy="balanced",
            result_cache=True,
        )
        _submit_stream(service, stream)
        t0 = time.perf_counter()
        cold = service.run()
        cold_s = time.perf_counter() - t0

        _submit_stream(service, stream)
        dispatches_before = ssd.engine.stats.executor_dispatches
        t0 = time.perf_counter()
        warm = service.run()
        warm_s = time.perf_counter() - t0
        warm_dispatches = (
            ssd.engine.stats.executor_dispatches - dispatches_before
        )

        # Exactness: the warm window executed nothing new and every
        # result matches a fresh (cache-free) sense.
        assert warm.stats.n_senses == 0
        assert warm.stats.cached_plans == warm.stats.n_chunk_tasks
        for served, expr in zip(warm.queries, stream):
            reference = ssd.query(expr)  # oracle path: never cached
            np.testing.assert_array_equal(
                served.result.bits, reference.bits
            )
        best_cold = min(best_cold, cold_s)
        best_warm = min(best_warm, warm_s)
        cold_senses = cold.stats.n_senses
        warm_senses = warm.stats.n_senses
        hit_rate = warm.stats.cache_hit_rate
    return {
        "n_queries": len(stream),
        "n_chunks": N_CHUNKS,
        "cold_s": best_cold,
        "warm_s": best_warm,
        "repeat_speedup": best_cold / best_warm,
        "cold_senses": cold_senses,
        "warm_senses": warm_senses,
        "warm_dispatches": warm_dispatches,
        "hit_rate": hit_rate,
    }


def measure_shared_results() -> dict:
    """Submit the 16 distinct shapes :data:`REPEATS` times, one
    window per repeat, through one cache-enabled run; check every
    result against a fresh oracle sense and count the distinct packed
    result blocks (``result.words``) the report holds and their bytes.
    Every repeat is served from the same cache entries, so the report
    holds one frozen block per shape."""
    stream = _distinct_stream()
    ssd = _cache_ssd()
    service = ssd.service(
        window_us=1000.0,
        max_window_queries=len(stream),
        policy="balanced",
        result_cache=True,
    )
    for repeat in range(REPEATS):
        for expr in stream:
            service.submit(expr, at_us=1000.0 * repeat, client="mix")
    report = service.run()
    assert report.stats.n_windows == REPEATS
    oracle = {id(expr): ssd.query(expr).bits for expr in stream}
    distinct = {}
    for served in report.queries:
        words = served.result.words
        assert not words.flags.writeable
        np.testing.assert_array_equal(
            served.result.bits, oracle[id(served.expr)]
        )
        distinct[id(words)] = words
    return {
        "shared_queries": len(report.queries),
        "distinct_results": len(distinct),
        "result_bytes": sum(words.nbytes for words in distinct.values()),
    }


def measure_rewrite() -> dict:
    """Fill the cache with one window of the 16 shapes, rewrite
    ``day0`` (delete + write: NAND cannot overwrite), then run one
    window of a single shape that reads it.  The rewrite moves every
    chip's layout stamp, so that window drops every entry sensed
    before it: what is left is its own ``N_CHUNKS`` puts."""
    stream = _distinct_stream()
    ssd = _cache_ssd()
    service = ssd.service(
        window_us=1000.0,
        max_window_queries=len(stream),
        policy="balanced",
        result_cache=True,
    )
    _submit_stream(service, stream)
    service.run()
    filled = ssd.engine.result_cache.stats.entries
    rng = np.random.default_rng(7)
    ssd.delete_vector("day0")
    ssd.write_vector(
        "day0",
        rng.integers(0, 2, N_CHUNKS * GEOMETRY.page_size_bits, dtype=np.uint8),
        group="days0",
    )
    service.submit(stream[0], at_us=0.0, client="mix")
    (served,) = service.run().queries
    left = ssd.engine.result_cache.stats.entries
    np.testing.assert_array_equal(
        served.result.bits, ssd.query(stream[0]).bits
    )
    return {
        "entries_before_rewrite": filled,
        "entries_after_rewrite": left,
    }


def _slo_traffic(service, *, deadline_us=None):
    """Heavy scan windows first, then point queries (optionally with
    a deadline): ids of the point queries are returned."""
    scans = [
        and_all([Operand(f"day{d}") for d in range(lo, hi)])
        for lo, hi in ((0, 12), (1, 12), (0, 11), (2, 12))
    ]
    for i, scan in enumerate(scans):
        service.submit(scan, at_us=float(i), client="scan")
    points = [
        and_all([Operand(f"day{d}") for d in pair])
        for pair in ((0, 1), (3, 9), (5, 6))
    ]
    return [
        service.submit(
            point,
            at_us=10.0 + i,
            client="pt",
            priority=1,
            deadline_us=deadline_us,
        )
        for i, point in enumerate(points)
    ]


def _run_slo(policy: str, deadline_us=None):
    ssd = _loaded_ssd()
    service = ssd.service(
        window_us=1000.0,
        policy=policy,
        tenant_weights={"scan": 1.0, "pt": 2.0},
    )
    point_ids = _slo_traffic(service, deadline_us=deadline_us)
    report = service.run()
    by_id = {q.query_id: q for q in report.queries}
    return report, [by_id[i] for i in point_ids]


def measure_slo() -> dict:
    """Place a deadline between EDF's and FIFO's point-query
    completions; EDF must meet it, FIFO must miss it.  All times come
    from the same exact event simulation."""
    _, fifo_points = _run_slo("fifo")
    _, edf_points = _run_slo("edf")
    fifo_done = max(q.completed_us for q in fifo_points)
    edf_done = max(q.completed_us for q in edf_points)
    assert edf_done < fifo_done, (
        "EDF must complete deadline traffic earlier than FIFO: "
        f"{edf_done:.1f} us vs {fifo_done:.1f} us"
    )
    deadline = (edf_done + fifo_done) / 2.0

    fifo_report, fifo_graded = _run_slo("fifo", deadline_us=deadline)
    edf_report, edf_graded = _run_slo("edf", deadline_us=deadline)
    fifo_p99 = np.percentile(
        [q.latency_us for q in fifo_graded], 99
    )
    edf_p99 = np.percentile([q.latency_us for q in edf_graded], 99)
    return {
        "deadline_us": deadline,
        "fifo_point_completion_us": fifo_done,
        "edf_point_completion_us": edf_done,
        "n_deadlines": edf_report.stats.n_deadlines,
        "fifo_deadlines_met": fifo_report.stats.deadlines_met,
        "edf_deadlines_met": edf_report.stats.deadlines_met,
        "fifo_point_p99_us": float(fifo_p99),
        "edf_point_p99_us": float(edf_p99),
        "point_p99_gain": float(fifo_p99 / edf_p99),
    }


def test_repeat_window_served_from_cache():
    m = measure_result_cache()
    print(
        f"\n{m['n_queries']} queries x {m['n_chunks']} chunks, "
        f"identical window twice: cold {m['cold_s'] * 1e3:.2f} ms "
        f"({m['cold_senses']} senses), warm {m['warm_s'] * 1e3:.2f} ms "
        f"({m['warm_senses']} senses, {m['warm_dispatches']} executor "
        f"dispatches, hit-rate {m['hit_rate']:.0%}): "
        f"{m['repeat_speedup']:.2f}x wall-clock (recorded, not gated)"
    )
    assert m["cold_senses"] > 0
    assert m["warm_senses"] == 0
    assert m["warm_dispatches"] == 0
    assert m["hit_rate"] == 1.0


def test_repeats_share_one_result():
    m = measure_shared_results()
    n_bits = N_CHUNKS * GEOMETRY.page_size_bits
    print(
        f"\n{len(_distinct_stream())} shapes x {REPEATS} windows: "
        f"{m['shared_queries']} queries hold {m['distinct_results']} "
        f"packed results, {m['result_bytes'] / 1e6:.2f} MB "
        f"({m['shared_queries'] * n_bits / 1e6:.2f} MB unpacked, one "
        f"per query)"
    )
    assert m["shared_queries"] == REPEATS * len(_distinct_stream())
    assert m["distinct_results"] == len(_distinct_stream())
    assert m["result_bytes"] == m["distinct_results"] * n_bits // 8


def test_rewrite_leaves_one_window_of_entries():
    m = measure_rewrite()
    print(
        f"\none vector rewritten: {m['entries_before_rewrite']} entries "
        f"before, {m['entries_after_rewrite']} after the next window "
        f"({N_CHUNKS} puts)"
    )
    assert m["entries_before_rewrite"] == N_CHUNKS * len(_distinct_stream())
    assert m["entries_after_rewrite"] == N_CHUNKS


def test_edf_meets_deadlines_fifo_misses():
    m = measure_slo()
    print(
        f"\npoint queries behind scans: FIFO completes at "
        f"{m['fifo_point_completion_us']:.0f} us, EDF at "
        f"{m['edf_point_completion_us']:.0f} us; deadline "
        f"{m['deadline_us']:.0f} us -> EDF meets "
        f"{m['edf_deadlines_met']}/{m['n_deadlines']}, FIFO "
        f"{m['fifo_deadlines_met']}/{m['n_deadlines']}; point p99 "
        f"{m['fifo_point_p99_us']:.0f} -> {m['edf_point_p99_us']:.0f} us "
        f"({m['point_p99_gain']:.2f}x)"
    )
    assert m["edf_deadlines_met"] == m["n_deadlines"] > 0
    assert m["fifo_deadlines_met"] < m["n_deadlines"]
    assert m["point_p99_gain"] > 1.0
