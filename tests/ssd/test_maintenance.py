"""Unit tests of the background maintenance plane: occupancy
accounting, victim selection, GC collection, watermark pacing, wear
counters, bad-block scrub, and probation drain
(:mod:`repro.ssd.maintenance`).
"""

import numpy as np
import pytest

from repro.core.api import AllocationError
from repro.core.expressions import And, Operand, Or, and_all, evaluate
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import BlockAddress, ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.events import MAINTENANCE_PRIORITY
from repro.ssd.maintenance import MaintenanceConfig, MaintenanceManager

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)


def _build(n_chips=2, n_vectors=6, n_chunks=2, seed=0, injector=None):
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed,
        fault_injector=injector,
    )
    rng = np.random.default_rng(seed + 100)
    n_bits = n_chunks * GEOMETRY.page_size_bits
    env = {}
    for i in range(n_vectors):
        name = f"v{i}"
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


class TestConfig:
    def test_defaults_valid(self):
        cfg = MaintenanceConfig()
        assert cfg.gc_high_watermark >= cfg.gc_low_watermark
        assert cfg.priority == MAINTENANCE_PRIORITY

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"gc_low_watermark": -1},
            {"gc_low_watermark": 5, "gc_high_watermark": 2},
            {"max_victims_per_cycle": 0},
            {"min_invalid_pages": 0},
        ),
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            MaintenanceConfig(**kwargs)


class TestOccupancy:
    def test_counts_programmed_live_and_invalid(self):
        ssd, _ = _build()
        mgr = ssd.maintenance()
        for occ in mgr.occupancy(0):
            assert occ.programmed == occ.live  # nothing deleted yet
            assert occ.invalid == 0
        ssd.delete_vector("v0")
        ssd.delete_vector("v1")
        dead = sum(occ.invalid for occ in mgr.occupancy(0))
        assert dead == 2  # one chunk of each vector lived on chip 0
        live = sum(occ.live for occ in mgr.occupancy(0))
        assert live == 4

    def test_invalid_ratio(self):
        ssd, _ = _build()
        ssd.delete_vector("v0")
        mgr = ssd.maintenance()
        ratios = [occ.invalid_ratio for occ in mgr.occupancy(0)]
        assert any(r > 0 for r in ratios)
        assert all(0.0 <= r <= 1.0 for r in ratios)


class TestVictimSelection:
    def test_greedy_by_invalid_ratio(self):
        ssd, _ = _build(n_vectors=6)
        mgr = ssd.maintenance()
        assert mgr.select_victims(0) == []  # nothing invalid yet
        ssd.delete_vector("v0")
        victims = mgr.select_victims(0)
        assert victims
        # Victims come best-first: non-increasing invalid ratio.
        ratios = [v.invalid_ratio for v in victims]
        assert ratios == sorted(ratios, reverse=True)

    def test_wear_tiebreak_prefers_cold_blocks(self):
        ssd, _ = _build()
        mgr = ssd.maintenance()
        ssd.delete_vector("v0")
        ssd.delete_vector("v1")
        victims = mgr.select_victims(0)
        for a, b in zip(victims, victims[1:]):
            if a.invalid_ratio == b.invalid_ratio:
                assert a.pe_cycles <= b.pe_cycles

    def test_stuck_bad_blocks_never_selected(self):
        ssd, _ = _build()
        mgr = ssd.maintenance()
        ssd.delete_vector("v0")
        target = mgr.select_victims(0)[0].address
        bad = ((0, target.plane, target.block, target.subblock),)
        ssd.attach_fault_injector(FaultInjector(FaultConfig(bad_blocks=bad)))
        remaining = [v.address for v in mgr.select_victims(0)]
        assert target not in remaining

    def test_gc_scan_does_not_count_as_fault(self):
        ssd, _ = _build()
        injector = FaultInjector(
            FaultConfig(bad_blocks=((0, 0, 0, 0),))
        )
        ssd.attach_fault_injector(injector)
        mgr = ssd.maintenance()
        ssd.delete_vector("v0")
        before = injector.faults_injected
        mgr.select_victims(0)
        assert injector.faults_injected == before


class TestCollection:
    def test_collect_reclaims_and_keeps_queries_exact(self):
        ssd, env = _build(n_vectors=6)
        mgr = ssd.maintenance()
        free_before = [c.free_subblocks(0) for c in ssd.controllers]
        ssd.delete_vector("v0")
        ssd.delete_vector("v2")
        jobs = mgr.collect()
        assert mgr.stats.blocks_reclaimed > 0
        assert mgr.stats.pages_migrated > 0
        # Compaction: relocating survivors consumes one fresh
        # sub-block per victim, so free space never shrinks -- and the
        # dead pages themselves are gone.
        free_after = [c.free_subblocks(0) for c in ssd.controllers]
        assert sum(free_after) >= sum(free_before)
        for chip in range(len(ssd.chips)):
            assert sum(occ.invalid for occ in mgr.occupancy(chip)) == 0
        # Background jobs carry the chip time at maintenance urgency.
        assert jobs
        for job in jobs:
            assert job.preemptible
            assert job.deadline is None
            assert job.priority == MAINTENANCE_PRIORITY
            assert job.resources[0].startswith("chip")
        expr = and_all([Operand(f"v{i}") for i in (1, 3, 4, 5)])
        np.testing.assert_array_equal(
            ssd.query(expr).bits, evaluate(expr, env)
        )

    def test_relocation_preserves_colocation_sense_count(self):
        ssd, env = _build(n_vectors=6)
        expr = and_all([Operand(f"v{i}") for i in (1, 3, 4, 5)])
        senses_before = ssd.query(expr).n_senses
        ssd.delete_vector("v0")
        ssd.delete_vector("v2")
        ssd.maintenance().collect()
        after = ssd.query(expr)
        np.testing.assert_array_equal(after.bits, evaluate(expr, env))
        assert after.n_senses == senses_before

    def test_relocation_bumps_generations(self):
        ssd, _ = _build()
        mgr = ssd.maintenance()
        ssd.delete_vector("v0")
        gens_before = [c.directory.generation for c in ssd.controllers]
        mgr.collect()
        gens_after = [c.directory.generation for c in ssd.controllers]
        assert any(a > b for a, b in zip(gens_after, gens_before))

    def test_min_invalid_pages_spares_mostly_live_blocks(self):
        ssd, _ = _build(n_vectors=6)
        mgr = ssd.maintenance(
            MaintenanceConfig(min_invalid_pages=3)
        )
        ssd.delete_vector("v0")  # 1 invalid page per chip
        assert mgr.select_victims(0) == []
        assert mgr.collect() == []
        assert mgr.stats.blocks_reclaimed == 0

    def test_erase_returns_subblock_to_allocator(self):
        ssd, env = _build(n_vectors=6, n_chunks=1)
        mgr = ssd.maintenance()
        rng = np.random.default_rng(7)
        # Fill the rest of chip 0's plane so the linear cursor runs
        # out, then kill the v-group's whole sub-block: a fully dead
        # victim needs no relocation target, so GC can reclaim it even
        # on a 100%-full plane, and the freed sub-block serves a new
        # write.
        extra = 0
        while True:
            bits = rng.integers(
                0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
            )
            try:
                ssd.write_vector(f"fill{extra}", bits, group=f"f{extra}")
            except AllocationError:
                break
            extra += 1
        for i in range(6):
            ssd.delete_vector(f"v{i}")
        mgr.collect()
        assert mgr.stats.blocks_reclaimed >= 1
        bits = rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)
        ssd.write_vector("reborn", bits, group="reborn")  # must not raise
        np.testing.assert_array_equal(ssd.read_vector("reborn"), bits)

    def test_full_plane_with_survivors_cannot_relocate(self):
        """A victim that still holds live pages needs a fresh target
        sub-block; on a 100%-full plane GC stops instead of looping --
        the over-provisioning lesson, surfaced honestly."""
        ssd, _ = _build(n_vectors=6, n_chunks=1)
        rng = np.random.default_rng(7)
        extra = 0
        while True:
            bits = rng.integers(
                0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
            )
            try:
                ssd.write_vector(f"fill{extra}", bits, group=f"f{extra}")
            except AllocationError:
                break
            extra += 1
        ssd.delete_vector("v0")  # 1 dead page, 5 survivors
        mgr = ssd.maintenance()
        assert mgr.select_victims(0)  # a victim exists...
        assert mgr.collect() == []  # ...but nowhere to move survivors
        assert mgr.stats.blocks_reclaimed == 0


class TestPacing:
    def test_run_cycle_idle_above_watermark(self):
        ssd, _ = _build()
        mgr = ssd.maintenance()
        ssd.delete_vector("v0")
        assert all(
            c.free_subblocks(0) >= mgr.config.gc_low_watermark
            for c in ssd.controllers
        )
        assert mgr.run_cycle() == []
        assert mgr.stats.gc_cycles == 0
        assert mgr.stats.blocks_reclaimed == 0

    def test_run_cycle_collects_under_pressure(self):
        ssd, _ = _build(n_vectors=6, n_chunks=1)
        rng = np.random.default_rng(11)
        extra = 0
        while True:
            bits = rng.integers(
                0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
            )
            try:
                ssd.write_vector(f"fill{extra}", bits, group=f"f{extra}")
            except AllocationError:
                break
            extra += 1
        for i in range(6):
            ssd.delete_vector(f"v{i}")
        mgr = ssd.maintenance()
        assert any(
            c.free_subblocks(0) < mgr.config.gc_low_watermark
            for c in ssd.controllers
        )
        jobs = mgr.run_cycle()
        assert jobs
        assert mgr.stats.gc_cycles == 1
        assert mgr.stats.blocks_reclaimed > 0


class TestWear:
    def test_wear_summary_tracks_erases_and_programs(self):
        ssd, _ = _build()
        base = ssd.wear_summary()
        assert base.blocks > 0
        assert base.programs_total > 0
        assert base.pe_min == base.pe_max == 0
        ssd.delete_vector("v0")
        ssd.maintenance().collect()
        worn = ssd.wear_summary()
        assert worn.pe_max == 1  # victim erased once
        assert worn.spread == worn.pe_max - worn.pe_min
        assert worn.pe_mean == pytest.approx(
            worn.pe_max * (1 / base.blocks), abs=1.0
        )

    def test_allocator_reuses_least_worn_free_subblock(self):
        ssd, _ = _build(n_chips=1, n_vectors=2, n_chunks=1)
        controller = ssd.controllers[0]
        cold = BlockAddress(plane=0, block=6, subblock=0)
        hot = BlockAddress(plane=0, block=7, subblock=0)
        chip = ssd.chips[0]
        chip.erase_block(hot)  # bump its P/E count
        chip.erase_block(hot)
        chip.erase_block(cold)
        controller.release_subblock(hot)
        controller.release_subblock(cold)
        assert controller._allocate_subblock(0) == cold


class TestScrub:
    def test_scrub_retires_bad_blocks_idempotently(self):
        bad = ((0, 0, 5, 0), (1, 0, 6, 1))
        ssd, _ = _build(
            injector=FaultInjector(FaultConfig(bad_blocks=bad))
        )
        mgr = ssd.maintenance()
        assert mgr.scrub_bad_blocks() == 2
        assert mgr.scrub_bad_blocks() == 0  # idempotent
        assert mgr.stats.blocks_retired == 2
        assert (
            BlockAddress(plane=0, block=5, subblock=0)
            in ssd.controllers[0]._retired_subblocks
        )

    def test_retired_blocks_never_allocated(self):
        bad = tuple(
            (0, 0, block, sub) for block in (3, 4) for sub in (0, 1)
        )
        ssd, _ = _build(
            n_chips=1, n_vectors=2, n_chunks=1,
            injector=FaultInjector(FaultConfig(bad_blocks=bad)),
        )
        ssd.maintenance().scrub_bad_blocks()
        controller = ssd.controllers[0]
        retired = {
            BlockAddress(plane=0, block=b, subblock=s)
            for (_, _, b, s) in bad
        }
        handed_out = set()
        while True:
            try:
                handed_out.add(controller._allocate_subblock(0))
            except AllocationError:
                break
        assert handed_out.isdisjoint(retired)

    def test_scrub_without_injector_is_noop(self):
        ssd, _ = _build()
        assert ssd.maintenance().scrub_bad_blocks() == 0


class TestDrain:
    def test_drain_moves_columns_and_keeps_queries_exact(self):
        ssd, env = _build(n_chips=3, n_vectors=4)
        mgr = ssd.maintenance()
        jobs = mgr.drain_chip(1)
        assert mgr.stats.chips_drained == 1
        assert mgr.stats.pages_migrated > 0
        assert ssd.ftl.live_pages(1) == 0
        assert 1 in set(ssd.ftl.chunk_overrides().values()) or all(
            chip != 1 for chip in ssd.ftl.chunk_overrides().values()
        )
        assert jobs  # migration cost reaches the event simulation
        expr = Or(
            And(Operand("v0"), Operand("v1")),
            And(Operand("v2"), Operand("v3")),
        )
        np.testing.assert_array_equal(
            ssd.query(expr).bits, evaluate(expr, env)
        )
        for name in env:
            np.testing.assert_array_equal(
                ssd.read_vector(name), env[name]
            )

    def test_drain_balances_to_least_loaded_survivor(self):
        ssd, _ = _build(n_chips=3, n_vectors=4, n_chunks=3)
        mgr = ssd.maintenance()
        mgr.drain_chip(0)
        loads = [ssd.ftl.live_pages(chip) for chip in range(3)]
        assert loads[0] == 0
        assert abs(loads[1] - loads[2]) <= 4  # columns spread, not piled

    def test_drain_respects_healthy_list(self):
        ssd, env = _build(n_chips=3, n_vectors=3)
        mgr = ssd.maintenance()
        mgr.drain_chip(0, healthy=[2])
        assert ssd.ftl.live_pages(0) == 0
        assert ssd.ftl.live_pages(1) == 3  # untouched
        expr = and_all([Operand(n) for n in env])
        np.testing.assert_array_equal(
            ssd.query(expr).bits, evaluate(expr, env)
        )

    def test_drain_with_no_survivors_is_refused(self):
        ssd, _ = _build(n_chips=1, n_vectors=2)
        mgr = ssd.maintenance()
        assert mgr.drain_chip(0) == []
        assert mgr.stats.chips_drained == 0
        assert ssd.ftl.live_pages(0) > 0

    def test_stand_in_missing_a_declared_attribute_fails_loudly(self):
        """``SmallSsd.parity`` and ``NandFlashChip.offline`` are
        declared in ``__init__`` and read plainly: an SSD or chip
        stand-in that lacks one raises, it is not silently taken for
        parity-off / online."""
        ssd, _ = _build(n_chips=3, n_vectors=3)
        mgr = ssd.maintenance()
        assert ssd.maintenance() is mgr  # the declared slot, reused
        del ssd.parity
        with pytest.raises(AttributeError, match="parity"):
            mgr.drain_chip(1)
        assert mgr.stats.pages_migrated == 0  # raised before any move

        ssd, _ = _build(n_chips=3, n_vectors=3)
        mgr = ssd.maintenance()
        del ssd.chips[2].offline
        mgr.pending_rebuild.append(("column", 0))
        with pytest.raises(AttributeError, match="offline"):
            mgr.rebuild_cycle()
        with pytest.raises(AttributeError, match="offline"):
            mgr.drain_chip(2)

    def test_stuck_column_stays_parked_not_half_migrated(self):
        ssd, env = _build(n_chips=2, n_vectors=3, n_chunks=2)
        # Poison the block holding v0's chunk-0 operand on chip 0.
        stored = ssd.controllers[0].stored("v0@0")
        a = stored.address
        bad = ((0, a.plane, a.block, a.subblock),)
        ssd.attach_fault_injector(FaultInjector(FaultConfig(bad_blocks=bad)))
        mgr = ssd.maintenance()
        mgr.drain_chip(0)
        assert mgr.stats.pages_stuck >= 1
        # The stuck page's whole column stayed on chip 0 (a partial
        # move would break chunk co-location on the destination) --
        # every co-chunk operand of the column is still there.
        assert ssd.ftl.live_pages(0) > 0
        assert 0 not in ssd.ftl.chunk_overrides()
        remaining = ssd.controllers[0].directory.names()
        assert "v0@0" in remaining and "v1@0" in remaining


class TestServiceIntegration:
    def test_service_reports_wear_without_maintenance(self):
        ssd, env = _build()
        service = ssd.service(window_us=100.0)
        service.submit(And(Operand("v0"), Operand("v1")), at_us=0.0)
        stats = service.run().stats
        assert stats.wear_max >= stats.wear_min
        assert stats.blocks_reclaimed == 0
        assert "maintenance" not in stats.describe()

    def test_service_paces_gc_under_churn(self):
        ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=0)
        rng = np.random.default_rng(23)
        n_bits = GEOMETRY.page_size_bits
        env = {}
        # The doomed vectors share one sub-block; the survivors get
        # their own, so deleting the first group leaves a fully dead
        # victim GC can erase even under a full plane.
        for i in range(4):
            env[f"v{i}"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
            ssd.write_vector(f"v{i}", env[f"v{i}"], group="g")
        for i in (4, 5):
            env[f"v{i}"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
            ssd.write_vector(f"v{i}", env[f"v{i}"], group="h")
        extra = 0
        while True:
            bits = rng.integers(
                0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
            )
            try:
                ssd.write_vector(f"fill{extra}", bits, group=f"f{extra}")
            except AllocationError:
                break
            extra += 1
        for i in range(4):
            ssd.delete_vector(f"v{i}")
        service = ssd.service(window_us=100.0, maintenance=True)
        expr = And(Operand("v4"), Operand("v5"))
        for i in range(4):
            service.submit(expr, at_us=float(i) * 60.0)
        report = service.run()
        stats = report.stats
        assert stats.blocks_reclaimed > 0
        assert stats.pages_migrated >= 0
        assert stats.maintenance_overhead_us > 0.0
        assert "maintenance" in stats.describe()
        assert "wear" in stats.describe()
        for q in report.queries:
            np.testing.assert_array_equal(
                q.result.bits, evaluate(expr, env)
            )

    def test_service_scrubs_bad_blocks_up_front(self):
        bad = ((0, 0, 7, 1),)
        ssd, env = _build(
            injector=FaultInjector(FaultConfig(bad_blocks=bad))
        )
        service = ssd.service(window_us=100.0, maintenance=True)
        service.submit(And(Operand("v0"), Operand("v1")), at_us=0.0)
        stats = service.run().stats
        assert stats.blocks_retired == 1
        assert (
            BlockAddress(plane=0, block=7, subblock=1)
            in ssd.controllers[0]._retired_subblocks
        )
