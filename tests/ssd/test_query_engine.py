"""Tests for the plan-template query engine (repro.ssd.query_engine)."""

import numpy as np
import pytest

from repro.core.expressions import And, Operand, Or, evaluate
from repro.core.planner import Planner
from repro.ssd.controller import SmallSsd
from repro.flash.geometry import WordlineAddress
from repro.ssd.query_engine import QueryEngine, _ChunkDirectory


def vectors(names, n_bits, seed=0):
    rng = np.random.default_rng(seed)
    return {n: rng.integers(0, 2, n_bits, dtype=np.uint8) for n in names}


def count_plans(monkeypatch):
    """Count every full planner invocation (template builds and
    fallback replans) process-wide.  Patches the concrete planning
    pass both paths funnel through."""
    calls = {"n": 0}
    original = Planner._plan_concrete

    def counting(self, expr):
        calls["n"] += 1
        return original(self, expr)

    monkeypatch.setattr(Planner, "_plan_concrete", counting)
    return calls


class TestPlanAmortization:
    @pytest.mark.parametrize("n_chunks", [1, 4, 16, 64])
    def test_planner_invocations_independent_of_chunk_count(
        self, n_chunks, monkeypatch
    ):
        """Acceptance: an N-chunk query plans exactly once, for any N."""
        ssd = SmallSsd(n_chips=4, seed=3)
        env = vectors("ab", ssd.page_bits * n_chunks, seed=n_chunks)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        calls = count_plans(monkeypatch)
        expr = And(Operand("a"), Operand("b"))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert calls["n"] == 1

    def test_repeated_query_hits_template_cache(self, monkeypatch):
        ssd = SmallSsd(n_chips=2, seed=4)
        env = vectors("ab", ssd.page_bits * 4, seed=5)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        calls = count_plans(monkeypatch)
        expr = And(Operand("a"), Operand("b"))
        first = ssd.query(expr)
        second = ssd.query(expr)
        assert calls["n"] == 1
        assert not first.template_hit
        assert second.template_hit
        np.testing.assert_array_equal(second.bits, first.bits)
        stats = ssd.engine.stats
        assert stats.template_hits == 1
        assert stats.template_misses == 1
        assert stats.planner_invocations == 1

    def test_lru_cache_evicts_oldest_template(self):
        ssd = SmallSsd(n_chips=2, seed=6)
        ssd.engine = QueryEngine(ssd, cache_size=1)
        env = vectors("abc", ssd.page_bits * 2, seed=7)
        for name in "abc":
            ssd.write_vector(name, env[name], group="g")
        e1 = And(Operand("a"), Operand("b"))
        e2 = And(Operand("b"), Operand("c"))
        ssd.query(e1)
        ssd.query(e2)  # evicts e1's template
        ssd.query(e1)  # must replan
        stats = ssd.engine.stats
        assert stats.cached_templates == 1
        assert stats.template_misses == 3

    def test_layout_signature_separates_templates(self):
        """The same expression over differently laid-out operands must
        not share a template."""
        ssd = SmallSsd(n_chips=2, seed=8)
        env = vectors(["a", "b", "p", "q"], ssd.page_bits * 2, seed=9)
        ssd.write_vector("a", env["a"], group="g")
        ssd.write_vector("b", env["b"], group="g")
        ssd.write_vector("p", env["p"], group="h", inverse=True)
        ssd.write_vector("q", env["q"], group="h", inverse=True)
        r1 = ssd.query(Or(Operand("a"), Operand("b")))
        r2 = ssd.query(Or(Operand("p"), Operand("q")))
        np.testing.assert_array_equal(
            r1.bits, evaluate(Or(Operand("a"), Operand("b")), env)
        )
        np.testing.assert_array_equal(
            r2.bits, evaluate(Or(Operand("p"), Operand("q")), env)
        )
        assert ssd.engine.stats.template_misses == 2


class TestBindFallback:
    def test_layout_drift_falls_back_to_replanning(self):
        """A chunk whose placement drifted from the template's layout
        is replanned, not failed."""
        ssd = SmallSsd(n_chips=2, seed=10)
        page = ssd.page_bits
        env = vectors("ab", page * 2, seed=11)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        # Tamper with chunk 1 of "b": move it out of the shared string
        # group into its own block on the same chip.
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(1)]
        controller.directory.unregister("b@1")
        controller.fc_write("b@1", env["b"][page : 2 * page])
        expr = And(Operand("a"), Operand("b"))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        stats = ssd.engine.stats
        assert stats.bind_fallbacks == 1
        assert stats.planner_invocations == 2  # template + one fallback
        # A repeat reuses the cached bound queues -- including the
        # fallback-replanned plan for the drifted chunk (operand
        # addresses are immutable once written, so the bound plans
        # stay valid until the FTL layout generation moves).  That
        # makes the repeat a genuinely planning-free query.
        repeat = ssd.query(expr)
        np.testing.assert_array_equal(repeat.bits, evaluate(expr, env))
        assert repeat.template_hit
        assert ssd.engine.stats.planner_invocations == 2
        assert ssd.engine.stats.bind_fallbacks == 1

    def test_layout_generation_invalidates_bound_plans(self):
        """Bound per-chunk plans are cached against the layout
        generation (FTL vectors + every chip directory).  Rewriting an
        operand at the *controller* level -- no FTL involvement at all
        -- must still invalidate the cache, so the next query re-binds
        and re-discovers the drift instead of serving stale cells."""
        ssd = SmallSsd(n_chips=2, seed=20)
        page = ssd.page_bits
        env = vectors("ab", page * 2, seed=21)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        expr = And(Operand("a"), Operand("b"))
        ssd.query(expr)
        assert ssd.engine.stats.bind_fallbacks == 0
        # Drift chunk 1 of "b" behind the FTL's back: new data at a
        # new physical address, registered only in the chip directory.
        env["b"][page:] = 1 - env["b"][page:]
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(1)]
        controller.directory.unregister("b@1")
        controller.fc_write("b@1", env["b"][page : 2 * page])
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert ssd.engine.stats.bind_fallbacks == 1


class TestChunkDirectoryView:
    """The per-chunk view reads the chip directory's live mapping with
    one probe per lookup; what it raises, contains and resolves must
    be what ``OperandDirectory`` would."""

    def _ssd(self, seed, n_chunks=4):
        ssd = SmallSsd(n_chips=2, seed=seed)
        env = vectors("ab", ssd.page_bits * n_chunks, seed=seed + 1)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        return ssd, env

    def test_unregistered_chunk_raises_the_directory_error(self):
        ssd, _ = self._ssd(30)
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(3)]
        view = _ChunkDirectory(controller, 3)  # built before the change
        assert "b" in view
        controller.directory.unregister("b@3")
        with pytest.raises(KeyError) as from_directory:
            controller.directory.lookup("b@3")
        assert from_directory.value.args == ("operand 'b@3' is not stored",)
        with pytest.raises(KeyError) as from_view:
            view.lookup("b")
        assert from_view.value.args == from_directory.value.args
        assert from_view.value.__suppress_context__
        assert "b" not in view
        assert "a" in view
        # ... and it is the error a query over the vector surfaces.
        with pytest.raises(KeyError) as from_query:
            ssd.query(And(Operand("a"), Operand("b")))
        assert from_query.value.args == from_directory.value.args

    def test_relocated_operand_binds_at_its_new_address(self):
        """``directory.relocate`` repoints a name; a view built before
        the move must resolve the new address (it reads through to the
        live mapping, it does not snapshot it)."""
        ssd, _ = self._ssd(32)
        expr = And(Operand("a"), Operand("b"))
        template = ssd.engine.template_for(expr)
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(1)]
        view = _ChunkDirectory(controller, 1)
        old = view.lookup("b").address
        before = template.bind(view)
        # Another free wordline of the same string group, so the
        # template's layout still holds.
        new = WordlineAddress(
            old.plane, old.block, old.subblock, old.wordline + 5
        )
        moved = controller.directory.relocate("b@1", new)
        assert view.lookup("b") is moved
        assert view.lookup("b").address == new
        after = template.bind(view)
        assert after != before
        (step,) = after.sense_steps
        ((_, wordlines),) = step.command.targets
        assert new.wordline in wordlines
        assert old.wordline not in wordlines


class TestBatchExecution:
    def test_batch_results_match_oracle_and_report_makespan(self):
        ssd = SmallSsd(n_chips=4, seed=12)
        env = vectors("abcd", ssd.page_bits * 8, seed=13)
        for name in "abcd":
            ssd.write_vector(name, env[name], group="g")
        exprs = [
            And(Operand("a"), Operand("b")),
            And(Operand("c"), Operand("d")),
            And(*(Operand(n) for n in "abcd")),
        ]
        batch = ssd.engine.query_batch(exprs)
        assert len(batch.results) == 3
        for expr, result in zip(exprs, batch.results):
            np.testing.assert_array_equal(result.bits, evaluate(expr, env))
            assert 0.0 < result.makespan_us <= batch.makespan_us
        assert batch.bottleneck
        assert batch.makespan_us > 0.0

    def test_batch_amortizes_planning_across_queries(self, monkeypatch):
        ssd = SmallSsd(n_chips=2, seed=14)
        env = vectors("ab", ssd.page_bits * 4, seed=15)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        calls = count_plans(monkeypatch)
        expr = And(Operand("a"), Operand("b"))
        batch = ssd.engine.query_batch([expr] * 5)
        assert calls["n"] == 1
        assert sum(r.template_hit for r in batch.results) == 4

    def test_empty_batch_is_valid(self):
        """A windowed service may close an admission window with no
        queries; the batch path serves it as an empty result."""
        ssd = SmallSsd(n_chips=2, seed=16)
        batch = ssd.engine.query_batch([])
        assert batch.results == ()
        assert batch.makespan_us == 0.0
        assert batch.bottleneck == "idle"


class TestPrepare:
    def test_prepare_threads_planning_explicitly(self):
        """``prepare`` reports whether *this* query planned even when
        other queries plan in between -- the flag travels in the
        return value, not a global counter delta."""
        ssd = SmallSsd(n_chips=2, seed=30)
        env = vectors("abcd", ssd.page_bits * 2, seed=31)
        for name in "abcd":
            ssd.write_vector(name, env[name], group="g")
        e1 = And(Operand("a"), Operand("b"))
        e2 = And(Operand("c"), Operand("d"))
        first = ssd.engine.prepare(e1)
        interloper = ssd.engine.prepare(e2)  # plans between e1's uses
        repeat = ssd.engine.prepare(e1)
        assert first.planned and interloper.planned
        assert not repeat.planned
        assert repeat.template_hit
        assert repeat.n_chunks == 2
        # The prepared columns cover every chunk exactly once, chip
        # by chip, and a repeat is handed the memo's entry itself.
        assert sorted(repeat.chunks) == [0, 1]
        assert list(repeat.chips) == sorted(repeat.chips)
        assert [ssd.ftl.chip_of_chunk(c) for c in repeat.chunks] == list(
            repeat.chips
        )
        assert ssd.engine.prepare(e1) is repeat


class TestEngineValidation:
    def test_unknown_operand_raises(self):
        ssd = SmallSsd(n_chips=2, seed=17)
        with pytest.raises(KeyError):
            ssd.query(Operand("missing"))

    def test_cache_size_validated(self):
        ssd = SmallSsd(n_chips=2, seed=18)
        with pytest.raises(ValueError, match="cache_size"):
            QueryEngine(ssd, cache_size=0)
