"""Cross-window result cache: correctness, invalidation, metrics.

The safety property is absolute: a cache hit must be bit-identical to
a fresh sense, and any layout-generation movement -- vector
register/unregister (FTL), per-chip operand churn (directory), or a
raw program/erase on a chip (block ``layout_version``) -- must force a
miss.  The randomized suite interleaves queries with churn and checks
every served bit against the NumPy oracle; the targeted tests pin each
invalidation source, including the one the generations exist for:
a block erased *underneath* a cached plan must re-sense, never serve
the pre-erase words.  The rewrite-round suite pins when a stale page
is freed -- at the first window after its chip's stamp moves -- and
that dropping it then serves exactly what lazy eviction
(``tests/reference_result_cache.py``) served.
"""

import gc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from reference_data_plane import Hit, drain, tasks_of
from reference_result_cache import LazyResultCache
from repro.core.expressions import (
    And,
    Not,
    Operand,
    Or,
    and_all,
    evaluate,
    or_all,
)
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import ResultCache

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)


def make_ssd(n_chips=2, n_chunks=4, names="abcd", seed=0, **ssd_kwargs):
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed, **ssd_kwargs
    )
    rng = np.random.default_rng(seed + 100)
    env = {}
    for name in names:
        env[name] = rng.integers(
            0, 2, n_chunks * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def run_window(service, exprs, at_us=0.0):
    for expr in exprs:
        service.submit(expr, at_us=at_us)
    return service.run()


class TestResultCacheUnit:
    def test_repeat_window_served_from_cache(self):
        ssd, env = make_ssd()
        service = ssd.service(window_us=100.0, result_cache=True)
        exprs = [
            And(Operand("a"), Operand("b")),
            And(Operand("c"), Operand("d")),
        ]
        first = run_window(service, exprs)
        assert first.stats.n_senses > 0
        assert first.stats.cached_plans == 0
        second = run_window(service, exprs)
        assert second.stats.n_senses == 0
        assert second.stats.cached_plans == second.stats.n_chunk_tasks
        assert all(q.cached_chunks > 0 for q in second.queries)
        assert all(q.result.n_senses == 0 for q in second.queries)
        for report in (first, second):
            for q in report.queries:
                np.testing.assert_array_equal(
                    q.result.bits, evaluate(q.expr, env)
                )

    def test_cache_shared_across_services_on_one_ssd(self):
        """The cache lives on the engine: a second service front-end
        over the same SSD starts warm."""
        ssd, env = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        warm = run_window(
            ssd.service(window_us=50.0, result_cache=True), [expr]
        )
        assert warm.stats.n_senses > 0
        second = run_window(
            ssd.service(window_us=50.0, result_cache=True), [expr]
        )
        assert second.stats.n_senses == 0
        assert second.stats.cache_hit_rate == 1.0

    def test_cache_off_by_default(self):
        ssd, _ = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        service = ssd.service(window_us=50.0)
        run_window(service, [expr])
        second = run_window(service, [expr])
        assert second.stats.n_senses > 0
        assert second.stats.cached_plans == 0
        assert ssd.engine.result_cache is None

    def test_register_churn_forces_miss(self):
        """A new vector registration (FTL + directory generation bump)
        invalidates even entries whose data did not move -- the
        conservative contract."""
        ssd, env = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        rng = np.random.default_rng(7)
        env["e"] = rng.integers(0, 2, env["a"].size, dtype=np.uint8)
        ssd.write_vector("e", env["e"], group="h")
        after = run_window(service, [expr])
        assert after.stats.cached_plans == 0
        assert after.stats.n_senses > 0
        assert ssd.engine.result_cache.stats.invalidations > 0
        for q in after.queries:
            np.testing.assert_array_equal(
                q.result.bits, evaluate(q.expr, env)
            )

    def test_unregister_churn_forces_miss(self):
        ssd, env = make_ssd(names="abcde")
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        ssd.ftl.unregister("e")
        after = run_window(service, [expr])
        assert after.stats.cached_plans == 0 and after.stats.n_senses > 0

    def test_directory_churn_forces_miss_on_that_chip(self):
        """Controller-level operand churn (per-chip directory
        generation) invalidates the churned chip's entries without any
        FTL movement -- and, because stamps are per chip, the *other*
        chip's entries stay warm: chip-local churn does not dump the
        whole cache."""
        ssd, env = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        first = run_window(service, [expr])
        # Hand-place an operand directly on chip 0's controller: the
        # FTL never hears about it, but the chip directory generation
        # moves.
        ssd.controllers[0].fc_write(
            "rogue", np.zeros(GEOMETRY.page_size_bits, dtype=np.uint8)
        )
        after = run_window(service, [expr])
        # Chunks striped to chip 0 re-sensed; chip 1's chunks hit.
        chip0_chunks = len(ssd.ftl.chunks_on_chip("a", 0))
        chip1_chunks = len(ssd.ftl.chunks_on_chip("a", 1))
        assert after.stats.n_senses > 0
        assert after.stats.cached_plans == chip1_chunks
        assert (
            after.stats.n_chunk_tasks - after.stats.cached_plans
            == chip0_chunks
        )
        np.testing.assert_array_equal(
            after.queries[0].result.bits, evaluate(expr, env)
        )

    def test_erase_under_cached_plan_resenses(self):
        """The reason the cache exists to be invalidated: erasing a
        block underneath a cached plan changes the cells' answer, and
        the cache must re-sense -- never serve the pre-erase words."""
        ssd, env = make_ssd(n_chips=1, n_chunks=1)
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        before = run_window(service, [expr])
        np.testing.assert_array_equal(
            before.queries[0].result.bits, evaluate(expr, env)
        )
        # Erase the block holding the operands, behind the FTL's back
        # (as a buggy GC would).  plane content_version catches it.
        stored = ssd.controllers[0].stored("a@0")
        block = ssd.chips[0].plane_array.block(stored.address.block_address)
        block.erase()
        after = run_window(service, [expr])
        assert after.stats.cached_plans == 0
        assert after.stats.n_senses > 0
        fresh = ssd.query(expr)
        np.testing.assert_array_equal(
            after.queries[0].result.bits, fresh.bits
        )
        # The stale pre-erase result must NOT have been served.
        assert not np.array_equal(
            after.queries[0].result.bits, before.queries[0].result.bits
        )

    def test_lru_eviction_bounds_entries(self):
        ssd, _ = make_ssd()
        cache = ssd.engine.enable_result_cache(4)
        service = ssd.service(window_us=50.0, result_cache=True)
        exprs = [
            And(Operand(a), Operand(b))
            for a, b in ("ab", "ac", "ad", "bc", "bd", "cd")
        ]
        run_window(service, exprs)
        assert len(cache) <= 4

    def test_enable_is_idempotent(self):
        ssd, _ = make_ssd()
        cache = ssd.engine.enable_result_cache()
        assert ssd.engine.enable_result_cache() is cache

    def test_live_cache_refuses_a_new_capacity(self):
        """A live cache is shared by every service over the SSD: a
        different explicit capacity is refused, not applied behind a
        sibling's back, and the cache keeps its size and entries."""
        ssd, _ = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        exprs = [
            And(Operand(a), Operand(b))
            for a, b in ("ab", "ac", "ad", "bc")
        ]
        run_window(service, exprs)
        cache = ssd.engine.result_cache
        entries = len(cache)
        assert entries > 2
        with pytest.raises(ValueError, match="capacity"):
            ssd.engine.enable_result_cache(2)
        assert ssd.engine.enable_result_cache(4096) is cache
        assert ssd.engine.result_cache is cache
        assert cache.capacity == 4096
        assert len(cache) == entries

    def test_default_size_never_resizes_shared_cache(self):
        """A sibling service enabling the cache must adopt the shared
        cache as-is -- not shrink a larger warm cache out from under
        its owner."""
        ssd, _ = make_ssd()
        ssd.engine.enable_result_cache(9999)
        ssd.service(window_us=50.0, result_cache=True)
        assert ssd.engine.result_cache.capacity == 9999

    def test_cached_words_are_frozen(self):
        """Cached arrays fan out to future windows; mutating one must
        fail loudly instead of silently poisoning the cache."""
        ssd, _ = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        tasks = tasks_of(ssd.engine.prepare(expr), 0)
        outcomes = drain(ssd.engine, tasks, use_cache=True)
        assert all(isinstance(o, Hit) for o in outcomes)
        with pytest.raises(ValueError):
            outcomes[0].data[0] = 0

    def test_capacity_validated(self):
        """Only an int >= 1 bounds the cache: under NaN it never
        evicts, 2.5 acts as 3 and ``True`` as 1.  A live cache refuses
        them too, before comparing capacities."""
        ssd, _ = make_ssd()
        bad = [0, -1, float("nan"), float("inf"), 2.5, 2.0, True, "2"]
        for capacity in bad:
            with pytest.raises(ValueError, match="capacity must be an int"):
                ResultCache(ssd, capacity=capacity)
            with pytest.raises(ValueError, match="capacity must be an int"):
                ssd.engine.enable_result_cache(capacity)
        assert ssd.engine.result_cache is None
        cache = ssd.engine.enable_result_cache(2)
        for capacity in bad:
            with pytest.raises(ValueError, match="capacity must be an int"):
                ssd.engine.enable_result_cache(capacity)
        assert ssd.engine.result_cache is cache and cache.capacity == 2

    def test_unpacked_plane_never_caches(self):
        """An error-injecting SSD -- the V_TH plane the one-byte-per-bit
        latches used to serve -- senses draws, and a memoized draw
        would change the error statistics: it must keep executing even
        with the cache nominally enabled."""
        ssd, env = make_ssd(inject_errors=True)
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        second = run_window(service, [expr])
        assert second.stats.n_senses > 0
        assert second.stats.cached_plans == 0

    def test_clear_empties_cache(self):
        ssd, _ = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        cache = ssd.engine.result_cache
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        second = run_window(service, [expr])
        assert second.stats.n_senses > 0

    def test_stats_hit_rate(self):
        ssd, _ = make_ssd()
        service = ssd.service(window_us=50.0, result_cache=True)
        expr = And(Operand("a"), Operand("b"))
        run_window(service, [expr])
        run_window(service, [expr])
        stats = ssd.engine.result_cache.stats
        assert stats.hits > 0 and stats.misses > 0
        assert stats.hit_rate == pytest.approx(
            stats.hits / (stats.hits + stats.misses)
        )
        assert stats.senses_avoided > 0


class TestCacheWithSharing:
    def test_mixed_window_cache_then_share(self):
        """A window mixing cached shapes with new repeated shapes uses
        both mechanisms, and the accounting identity holds: executed +
        shared-away + cache-served senses == unshared fresh cost."""
        ssd, env = make_ssd()
        service = ssd.service(window_us=100.0, result_cache=True)
        warm = And(Operand("a"), Operand("b"))
        fresh = And(Operand("c"), Operand("d"))
        run_window(service, [warm])
        report = run_window(service, [warm, fresh, fresh])
        stats = report.stats
        assert stats.cached_plans > 0
        assert stats.shared_plans > 0
        unshared = sum(
            ssd.query(e).n_senses for e in (warm, fresh, fresh)
        )
        assert (
            stats.n_senses + stats.shared_senses + stats.cached_senses
            == unshared
        )
        for q in report.queries:
            np.testing.assert_array_equal(
                q.result.bits, evaluate(q.expr, env)
            )


@pytest.mark.parametrize("seed", range(10))
def test_randomized_churn_never_serves_stale_bits(seed):
    """Property: under arbitrary interleavings of repeat-heavy service
    windows and layout churn (register/unregister of scratch vectors),
    every cache-assisted result stays bit-identical to the NumPy
    oracle, every churn forces the next window to re-sense, and the
    sense-accounting identity holds per window."""
    rng = np.random.default_rng(4000 + seed)
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 5))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=int(rng.integers(1 << 16))
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
    service = ssd.service(
        window_us=200.0,
        policy=("fifo", "balanced", "edf")[int(rng.integers(3))],
        result_cache=True,
    )
    scratch = 0
    for round_index in range(int(rng.integers(3, 7))):
        exprs = [
            pool[int(rng.integers(len(pool)))]
            for _ in range(int(rng.integers(2, 7)))
        ]
        for i, expr in enumerate(exprs):
            service.submit(expr, at_us=float(i))
        report = service.run()
        for served, expr in zip(report.queries, exprs):
            np.testing.assert_array_equal(
                served.result.bits, evaluate(expr, env)
            )
        # Accounting identity: nothing double-billed, nothing free.
        unshared = sum(ssd.query(e).n_senses for e in exprs)
        stats = report.stats
        assert (
            stats.n_senses + stats.shared_senses + stats.cached_senses
            == unshared
        )
        churned = rng.random() < 0.6
        if churned:
            # Layout churn: register a scratch vector, sometimes
            # dropping an old one (FTL + directory generation bumps).
            name = f"scratch{scratch}"
            scratch += 1
            ssd.write_vector(
                name, rng.integers(0, 2, n_bits, dtype=np.uint8)
            )
            if rng.random() < 0.5:
                ssd.ftl.unregister(name)
            # The very next window must treat every entry as stale.
            hits_before = ssd.engine.result_cache.stats.hits
            probe = service.submit(pool[0], at_us=0.0)
            probe_report = service.run()
            assert ssd.engine.result_cache.stats.hits == hits_before
            assert probe_report.stats.cached_plans == 0
            by_id = {q.query_id: q for q in probe_report.queries}
            np.testing.assert_array_equal(
                by_id[probe].result.bits, evaluate(pool[0], env)
            )


# ----------------------------------------------------------------------
# Rewrite rounds: a stale page is freed at the next window
# ----------------------------------------------------------------------

SCAN_DAYS = 6
SCAN_ROUNDS = 4
SCAN_PER_ROUND = 24


def _scan_trace(seed):
    """A cold_scan-shaped trace on small pages: before every round but
    the first, two days are rewritten (delete + write: NAND cannot
    overwrite); each round queries AND shapes of 2-4 days, one in four
    OR'ed with a clique.  A round draws its queries from four shapes,
    so its later windows hit what its earlier ones sensed."""
    rng = np.random.default_rng(seed)
    n_bits = 4 * GEOMETRY.page_size_bits
    days = [f"day{i}" for i in range(SCAN_DAYS)]
    initial = {
        name: rng.integers(0, 2, n_bits, dtype=np.uint8)
        for name in days + ["clique"]
    }
    rounds = []
    for r in range(SCAN_ROUNDS):
        rewritten = rng.choice(SCAN_DAYS, 2, replace=False) if r else ()
        rewrites = {
            days[index]: rng.integers(0, 2, n_bits, dtype=np.uint8)
            for index in rewritten
        }
        shapes = []
        for i in range(4):
            k = int(rng.integers(2, 5))
            subset = sorted(rng.choice(SCAN_DAYS, k, replace=False))
            expr = and_all([Operand(days[d]) for d in subset])
            shapes.append(Or(expr, Operand("clique")) if i == 0 else expr)
        traffic = [
            (r * 10_000.0 + 20.0 * i, shapes[int(rng.integers(4))])
            for i in range(SCAN_PER_ROUND)
        ]
        rounds.append((rewrites, traffic))
    return initial, rounds


@dataclass
class _WindowLog:
    cached: list[bool]
    puts: int
    entries: int
    #: First window of a round that follows a rewrite.
    after_rewrite: bool
    #: Word arrays stored before that rewrite still alive after it.
    alive_from_before: int


def _replay_scan(seed, cache_type, capacity=4096):
    """Replay :func:`_scan_trace` through a service whose engine holds
    ``cache_type``; every served bit is checked against the oracle.
    Returns one :class:`_WindowLog` per ``execute_tasks`` call and the
    cache's final stats."""
    initial, rounds = _scan_trace(seed)
    ssd = SmallSsd(n_chips=3, geometry=GEOMETRY, seed=seed)
    for name, bits in initial.items():
        # The clique in its own block: an OR operand.
        group = None if name == "clique" else "days"
        ssd.write_vector(name, bits, group=group)
    cache = ssd.engine.result_cache = cache_type(ssd, capacity=capacity)
    service = ssd.service(
        window_us=100.0, policy="balanced", result_cache=True
    )
    windows: list[_WindowLog] = []
    stored: list[weakref.ref] = []
    before: list[weakref.ref] = []
    put, execute = cache.put, ssd.engine.execute_tasks

    def recording_put(chip, plan, words, n_senses):
        stored.append(weakref.ref(words))
        put(chip, plan, words, n_senses)

    def recording_execute(tasks, **kwargs):
        n_stored = len(stored)
        result = execute(tasks, **kwargs)
        # ``before`` holds the pre-rewrite arrays until the first
        # window after the rewrite has been checked.
        after_rewrite = bool(before)
        gc.collect()
        windows.append(_WindowLog(
            cached=[words is not None for words in result.cached],
            puts=len(stored) - n_stored,
            entries=len(cache),
            after_rewrite=after_rewrite,
            alive_from_before=sum(ref() is not None for ref in before),
        ))
        if after_rewrite:
            before.clear()
        return result

    cache.put = recording_put
    ssd.engine.execute_tasks = recording_execute
    env = dict(initial)
    for rewrites, traffic in rounds:
        if rewrites:
            before[:] = stored
            stored.clear()
        for name, bits in rewrites.items():
            ssd.delete_vector(name)
            ssd.write_vector(name, bits, group="days")
            env[name] = bits
        for at_us, expr in traffic:
            service.submit(expr, at_us=at_us)
        for served in service.run().queries:
            np.testing.assert_array_equal(
                served.result.bits, evaluate(served.expr, env)
            )
    return windows, cache.stats


@pytest.mark.parametrize("seed", range(3))
def test_rewrite_frees_stale_pages_at_next_window(seed):
    """After a rewrite, the first window drops every entry sensed
    before it: the cache holds no more than that window put, and every
    word array cached before the rewrite is dead."""
    windows, stats = _replay_scan(seed, ResultCache)
    firsts = [window for window in windows if window.after_rewrite]
    assert len(firsts) == SCAN_ROUNDS - 1
    for window in firsts:
        assert window.entries <= window.puts
        assert window.alive_from_before == 0
    assert stats.invalidations > 0


@pytest.mark.parametrize("capacity", [4096, 12])
@pytest.mark.parametrize("seed", range(3))
def test_eager_drop_serves_what_lazy_eviction_served(seed, capacity):
    """Dropping a chip's entries at the next window serves the same
    hits, outcome for outcome, as evicting each stale entry when a
    lookup finds it -- with the LRU bound slack and binding."""
    mine, stats = _replay_scan(seed, ResultCache, capacity)
    lazy, lazy_stats = _replay_scan(seed, LazyResultCache, capacity)
    assert [w.cached for w in mine] == [w.cached for w in lazy]
    assert stats.hits == lazy_stats.hits > 0
    assert stats.misses == lazy_stats.misses
    # Every stale entry now counts, not only those a lookup found.
    assert stats.invalidations >= lazy_stats.invalidations
