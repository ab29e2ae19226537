"""One frozen word block per distinct result of a run.

``QueryService`` assembles a query's packed result block once per
distinct tuple of piece objects in a ``run()`` and hands that one block
to every query of the run that repeats it; ``QueryEngine.assemble_bits``
freezes every block it returns, and nothing in the service unpacks it:
``QueryResult.bits`` unpacks on each read.  Pieces are the same objects
exactly when they came from one result-cache entry or one shared sense,
so over random traffic -- result cache and sense sharing on or off,
faults and a chip kill on a parity SSD -- every served result equals
the NumPy oracle and is read-only, two queries of a run share a block
exactly when their pieces are the same objects, failed queries carry
an empty block, and nothing of the sharing outlives the report.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import pkgutil
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
import repro.ssd
from reference_data_plane import GEOMETRY
from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash import packing
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.packing import words_per_page
from repro.service import QueryService
from repro.ssd.controller import SmallSsd

VICTIM = 1


def _build(seed, *, parity=False, faults=False, n_chunks=None):
    injector = (
        FaultInjector(
            FaultConfig(seed=seed, sense_fault_rate=0.02, stall_rate=0.01)
        )
        if faults
        else None
    )
    ssd = SmallSsd(
        n_chips=3,
        geometry=GEOMETRY,
        seed=seed,
        parity=parity,
        fault_injector=injector,
    )
    rng = np.random.default_rng(seed)
    if n_chunks is None:
        n_chunks = int(rng.integers(1, 5))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    env = {}
    for name in "abc":
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _pool():
    a, b, c = Operand("a"), Operand("b"), Operand("c")
    return [
        And(a, b),
        or_all([And(a, b), c]),
        Not(And(a, c)),
        Xor(b, c),
        And(And(a, b), c),
    ]


@contextlib.contextmanager
def _recording():
    """Every query the block serves, as ``(served, pieces)``: the
    pieces its result was assembled from."""
    seen = []
    served = QueryService._served

    def spy(self, state, *rest):
        query = served(self, state, *rest)
        seen.append((query, tuple(state.pieces)))
        return query

    with mock.patch.object(QueryService, "_served", spy):
        yield seen


def _same_pieces(a, b) -> bool:
    (_, pieces_a), (_, pieces_b) = a, b
    return len(pieces_a) == len(pieces_b) and all(
        x is y for x, y in zip(pieces_a, pieces_b)
    )


def _check_result(result, expected, n_chunks) -> None:
    """``bits`` is the oracle, frozen, and a fresh array on each read;
    ``words`` is the frozen ``(n_chunks, words_per_page)`` block."""
    words = result.words
    assert not words.flags.writeable
    assert words.dtype == np.uint64
    assert words.shape == (n_chunks, words_per_page(result.page_bits))
    bits = result.bits
    np.testing.assert_array_equal(bits, expected)
    assert bits.dtype == np.uint8 and not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0] ^= 1
    again = result.bits
    assert again is not bits
    np.testing.assert_array_equal(again, bits)


def _check_run(records, env) -> None:
    for query, pieces in records:
        if query.failed:
            assert query.result.bits.size == 0
            continue
        _check_result(query.result, evaluate(query.expr, env), len(pieces))
    served = [record for record in records if not record[0].failed]
    for a, b in itertools.combinations(served, 2):
        words_a, words_b = a[0].result.words, b[0].result.words
        assert (words_a is words_b) == _same_pieces(a, b)
        if words_a is words_b:
            np.testing.assert_array_equal(
                evaluate(a[0].expr, env), evaluate(b[0].expr, env)
            )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    cache_size=st.sampled_from([None, 2, 64]),
    share=st.booleans(),
    chaos=st.booleans(),
    picks=st.lists(st.integers(0, 4), min_size=2, max_size=14),
)
def test_results_match_the_oracle_and_sharers_are_the_same_pieces(
    seed, cache_size, share, chaos, picks
):
    """Two runs of the same traffic, with the result cache off
    (``cache_size=None``), evicting mid-query (2 entries: a repeat can
    hit some chunks and re-sense others) or roomy; under ``chaos`` the
    SSD stripes parity, draws 2% sense faults and 1% stalls, and loses
    a chip between the runs."""
    ssd, env = _build(seed, parity=chaos, faults=chaos)
    service = ssd.service(
        window_us=100.0,
        result_cache=cache_size is not None,
        result_cache_size=cache_size,
        share_senses=share,
        maintenance=chaos,
    )
    pool = _pool()
    traffic = [
        (30.0 * i, "tenant", pool[pick]) for i, pick in enumerate(picks)
    ]
    runs = []
    for attempt in range(2):
        if chaos and attempt == 1:
            ssd.kill_chip(VICTIM)
        with _recording() as records:
            service.submit_traffic(traffic)
            service.run()
        assert len(records) == len(traffic)
        _check_run(records, env)
        runs.append(records)
    # The sharing is per report: no block crosses from run 1 to run 2.
    first = {id(q.result.words) for q, _ in runs[0] if not q.failed}
    assert not any(
        id(q.result.words) in first for q, _ in runs[1] if not q.failed
    )


def test_one_shared_sense_and_one_cache_entry_give_one_array():
    """Three copies of a query in one window share one sense (one
    block); the next window of the run is served from the cache entry
    that sense filled, so it shares that block too -- and a different
    query keeps its own."""
    ssd, env = _build(3)
    service = ssd.service(window_us=100.0, result_cache=True)
    repeat, other = _pool()[0], _pool()[3]
    traffic = [(float(i), "t", repeat) for i in range(3)]
    traffic += [(1.0 * i + 200.0, "t", repeat) for i in range(2)]
    traffic += [(250.0, "t", other)]
    with _recording() as records:
        service.submit_traffic(traffic)
        report = service.run()
    _check_run(records, env)
    blocks = {id(query.result.words) for query in report.queries[:5]}
    assert len(blocks) == 1
    assert (
        report.queries[5].result.words is not report.queries[0].result.words
    )
    assert report.stats.cached_plans > 0


def test_a_repeat_with_one_chunk_rebuilt_gets_its_own_array():
    """A chip lost between two windows of one run: the repeat's other
    chunks still hit the cache entries the first query filled, its
    lost chunk is rebuilt from parity -- one piece differs, so the two
    results are two blocks (with equal bits)."""
    ssd, env = _build(7, parity=True, n_chunks=3)
    victim = ssd.ftl.chip_of_chunk(1)
    service = ssd.service(window_us=100.0, result_cache=True)
    maintain = QueryService._maintain

    def lose_chip_after_first_window(self, run, ready_s):
        maintain(self, run, ready_s)
        ssd.kill_chip(victim)

    expr = _pool()[0]
    service.submit_traffic([(0.0, "t", expr), (200.0, "t", expr)])
    with _recording() as records, mock.patch.object(
        QueryService, "_maintain", lose_chip_after_first_window
    ):
        report = service.run()
    _check_run(records, env)
    first, repeat = report.queries
    assert repeat.cached_chunks == 2 and repeat.reconstructed_chunks == 1
    assert repeat.result.words is not first.result.words
    np.testing.assert_array_equal(repeat.result.bits, first.result.bits)


def test_unshared_uncached_queries_get_equal_bits_in_their_own_arrays():
    """Sharing and caching off: every query senses its own pieces, so
    no two results share a block even when their bits are equal."""
    ssd, env = _build(4)
    service = ssd.service(window_us=100.0, share_senses=False)
    expr = _pool()[1]
    with _recording() as records:
        service.submit_traffic([(float(i), "t", expr) for i in range(3)])
        report = service.run()
    _check_run(records, env)
    first, second, third = (q.result for q in report.queries)
    assert first.words is not second.words
    assert second.words is not third.words
    np.testing.assert_array_equal(first.bits, third.bits)


def test_failed_queries_carry_an_empty_array():
    """Without parity a killed chip fails the queries that need it."""
    # A chunk per chip, so some chunk lives on the victim.
    ssd, env = _build(5, n_chunks=3)
    ssd.kill_chip(VICTIM)
    service = ssd.service(window_us=100.0, result_cache=True)
    with _recording() as records:
        service.submit_traffic(
            [(float(i), "t", expr) for i, expr in enumerate(_pool() * 2)]
        )
        report = service.run()
    failed = [query for query in report.queries if query.failed]
    assert failed
    for query in failed:
        bits, words = query.result.bits, query.result.words
        assert bits.dtype == np.uint8
        assert bits.shape == (0,)
        assert not bits.flags.writeable
        assert not words.flags.writeable
    _check_run(records, env)


def _importers_of_unpack_rows() -> list:
    """Every ``repro.ssd`` / ``repro.service`` module that imports
    ``unpack_rows``."""
    modules = []
    for package in (repro.ssd, repro.service):
        for info in pkgutil.walk_packages(
            package.__path__, package.__name__ + "."
        ):
            module = importlib.import_module(info.name)
            if getattr(module, "unpack_rows", None) is packing.unpack_rows:
                modules.append(module)
    return modules


def test_the_service_never_unpacks(monkeypatch):
    """A fault-free run with sense sharing, the result cache and parity
    on completes while ``unpack_rows`` raises wherever the SSD and
    service layers import it: results reach the report packed.  Only
    reading ``.bits`` afterwards unpacks."""
    ssd, env = _build(8, parity=True, n_chunks=3)
    service = ssd.service(
        window_us=100.0, result_cache=True, share_senses=True
    )
    service.submit_traffic(
        [(30.0 * i, "t", expr) for i, expr in enumerate(_pool() * 3)]
    )

    def unpack_rows(*args, **kwargs):
        raise AssertionError("a result was unpacked inside run()")

    importers = _importers_of_unpack_rows()
    assert importers
    for module in importers:
        monkeypatch.setattr(module, "unpack_rows", unpack_rows)
    report = service.run()
    monkeypatch.undo()
    assert report.stats.queries_failed == 0
    assert report.stats.cached_plans > 0
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


def test_the_sharing_dies_with_its_report():
    """A run-1 result is referenced by report 1 only: once that report
    is dropped the block is gone, although run 2 served the same
    queries from the same cache entries."""
    ssd, env = _build(6)
    service = ssd.service(window_us=100.0, result_cache=True)
    traffic = [(float(i), "t", expr) for i, expr in enumerate(_pool())]
    service.submit_traffic(traffic)
    first = service.run()
    ref = weakref.ref(first.queries[0].result.words)
    service.submit_traffic(traffic)
    second = service.run()
    assert second.stats.cached_plans == second.stats.n_chunk_tasks
    assert second.queries[0].result.words is not ref()
    del first
    gc.collect()
    assert ref() is None
    for query in second.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
