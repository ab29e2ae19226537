"""Integration tests: full-stack scenarios across packages.

Each scenario mirrors a paper storyline: a bitmap-index query end to
end on a functional SSD, the KCS combined AND+OR, and the reliability
arguments (ECC / randomization / ESP) exercised through the whole
stack rather than per module.
"""

import numpy as np
import pytest

from repro.core.api import FlashCosmos
from repro.core.expressions import And, Operand, Or, and_all, evaluate
from repro.core.parabit import ParaBit
from repro.ecc.bch import BchCode
from repro.flash.chip import IscmFlags, NandFlashChip
from repro.flash.errors import OperatingCondition
from repro.flash.geometry import BlockAddress, ChipGeometry, WordlineAddress
from repro.ssd.controller import SmallSsd
from repro.workloads.bitmap_index import (
    generate_login_bitmaps,
    run_bmi_query_reference,
)
from repro.workloads.kclique import (
    clique_membership_vector,
    generate_kclique_graph,
    kclique_star_reference,
)


class TestBmiEndToEnd:
    def test_bitmap_index_query_on_small_ssd(self):
        """Store 30 day-bitmaps, run the m=1 query in-flash, count
        active users -- the BMI workload at functional scale."""
        ssd = SmallSsd(n_chips=4, seed=42)
        n_users = ssd.page_bits * 4  # one chunk per chip
        rng = np.random.default_rng(7)
        days = generate_login_bitmaps(n_users, 30, rng, activity=0.97)
        for i, day in enumerate(days):
            ssd.write_vector(f"day{i}", day, group="days")
        expr = and_all([Operand(f"day{i}") for i in range(30)])
        result = ssd.query(expr)
        expected, expected_count = run_bmi_query_reference(days)
        np.testing.assert_array_equal(result.bits, expected)
        assert int(result.bits.sum()) == expected_count
        # 30 operands, one intra-block MWS per chunk: 4 senses total.
        assert result.n_senses == 4

    def test_flash_cosmos_sense_advantage_vs_parabit(self):
        """On the same stored data, FC uses 1 sense per chunk where
        ParaBit uses one per operand."""
        geometry = ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=8,
            subblocks_per_block=1,
            wordlines_per_string=48,
            page_size_bits=512,
        )
        chip = NandFlashChip(geometry, inject_errors=False, seed=3)
        fc = FlashCosmos(chip)
        rng = np.random.default_rng(4)
        days = generate_login_bitmaps(512, 40, rng, activity=0.95)
        addresses = []
        for i, day in enumerate(days):
            handle = fc.fc_write(f"d{i}", day, group="days")
            addresses.append(handle.address)
        fc_result = fc.fc_read(and_all([Operand(f"d{i}") for i in range(40)]))
        pb_result = ParaBit(chip).bitwise_and(addresses)
        np.testing.assert_array_equal(fc_result.bits, pb_result.bits)
        assert fc_result.n_senses == 1
        assert pb_result.n_senses == 40
        assert pb_result.latency_us > 30 * fc_result.latency_us


class TestKcsEndToEnd:
    def test_kclique_star_on_ssd(self):
        """KCS: AND of adjacency vectors OR clique vector, evaluated
        with combined intra+inter MWS on the functional SSD."""
        ssd = SmallSsd(n_chips=2, seed=9)
        n_vertices = ssd.page_bits * 2
        rng = np.random.default_rng(10)
        adjacency, clique = generate_kclique_graph(n_vertices, 5, rng)
        for rank, vertex in enumerate(clique):
            ssd.write_vector(
                f"adj{rank}", adjacency[vertex], group="clique_adj"
            )
        ssd.write_vector(
            "clique", clique_membership_vector(n_vertices, clique)
        )
        expr = Or(
            and_all([Operand(f"adj{r}") for r in range(5)]),
            Operand("clique"),
        )
        result = ssd.query(expr)
        expected = kclique_star_reference(adjacency, clique)
        np.testing.assert_array_equal(result.bits, expected)
        # One combined sense per chunk (Equation 1).
        assert result.n_senses == 2


class TestReliabilityArguments:
    def test_ecc_cannot_repair_inflash_and(self):
        """Store BCH codewords, AND them in-flash: the sensed page holds
        a & b in its data bits, but its parity is usually not that of
        a & b -- nor any BCH parity, so the controller's ECC has no
        codeword to repair it to (Section 3.2)."""
        code = BchCode(m=6, t=3)
        geometry = ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=4,
            subblocks_per_block=1,
            wordlines_per_string=8,
            page_size_bits=code.n,
        )
        chip = NandFlashChip(geometry, inject_errors=False, seed=11)
        block = BlockAddress(0, 0, 0)
        rng = np.random.default_rng(12)
        wrong = 0
        trials = 20
        for _ in range(trials):
            chip.erase_block(block)
            a = rng.integers(0, 2, code.k, dtype=np.uint8)
            b = rng.integers(0, 2, code.k, dtype=np.uint8)
            for wordline, data in enumerate((a, b)):
                chip.program_page(
                    WordlineAddress(0, 0, 0, wordline),
                    code.encode(data),
                    randomize=False,
                )
            chip.execute_sense([(block, (0, 1))], IscmFlags())
            sensed = chip.output_cache(0)
            np.testing.assert_array_equal(sensed[: code.k], a & b)
            if not np.array_equal(sensed, code.encode(a & b)):
                assert not np.array_equal(code.encode(sensed[: code.k]), sensed)
                wrong += 1
        assert wrong > trials // 2

    def test_esp_vs_regular_storage_under_stress(self):
        """The same 20-operand AND: exact with ESP storage, corrupted
        with regular SLC storage, at the worst-case condition."""
        geometry = ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=4,
            subblocks_per_block=1,
            wordlines_per_string=48,
            page_size_bits=8192,
        )
        condition = OperatingCondition(
            pe_cycles=10_000, retention_months=12.0, randomized=False
        )
        rng = np.random.default_rng(13)
        # Dense pages: a balanced-random AND is all-zeros and zeros are
        # robust (all sensed cells must misread); errors surface on
        # result bits that are 1, so most bits must be 1.
        pages = [
            (rng.random(geometry.page_size_bits) < 0.995).astype(np.uint8)
            for _ in range(20)
        ]
        expected = np.bitwise_and.reduce(np.stack(pages), axis=0)

        def run(esp_extra):
            chip = NandFlashChip(geometry, inject_errors=True, seed=14)
            chip.set_condition(condition)
            fc = FlashCosmos(chip, esp_extra=esp_extra)
            for i, page in enumerate(pages):
                fc.fc_write(f"p{i}", page, group="g")
            result = fc.fc_read(
                and_all([Operand(f"p{i}") for i in range(20)])
            )
            return int((result.bits != expected).sum())

        assert run(0.9) == 0  # full ESP: zero errors
        assert run(0.0) > 0  # regular SLC-mode storage: corrupted

    def test_inverse_read_roundtrip_of_inverse_data(self):
        """Operands stored inverted are recovered exactly via inverse
        reads (Section 6.1: A == NOT(stored A-bar))."""
        ssd = SmallSsd(n_chips=2, seed=15)
        rng = np.random.default_rng(16)
        data = rng.integers(0, 2, ssd.page_bits * 2, dtype=np.uint8)
        ssd.write_vector("v", data, inverse=True)
        np.testing.assert_array_equal(ssd.read_vector("v"), data)


class TestCrossLayerConsistency:
    def test_plan_counts_match_execution_counts(self):
        """The planner's sense profile equals what the chip actually
        executes -- the contract between the functional and the
        performance layers."""
        geometry = ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=8,
            subblocks_per_block=1,
            wordlines_per_string=8,
            page_size_bits=128,
        )
        chip = NandFlashChip(geometry, inject_errors=False, seed=17)
        fc = FlashCosmos(chip)
        rng = np.random.default_rng(18)
        env = {}
        for i in range(12):
            env[f"v{i}"] = rng.integers(0, 2, 128, dtype=np.uint8)
            fc.fc_write(f"v{i}", env[f"v{i}"], group=f"g{i // 8}")
        expr = and_all([Operand(f"v{i}") for i in range(12)])
        plan = fc.plan(expr)
        result = fc.fc_read(expr)
        assert plan.n_senses == result.n_senses
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_timing_model_tracks_chip_accounting(self):
        """MwsExecutor's latency estimate equals the chip's charged
        busy time for pure sense plans."""
        geometry = ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=8,
            subblocks_per_block=1,
            wordlines_per_string=48,
            page_size_bits=128,
        )
        chip = NandFlashChip(geometry, inject_errors=False, seed=19)
        fc = FlashCosmos(chip)
        rng = np.random.default_rng(20)
        for i in range(10):
            fc.fc_write(
                f"v{i}",
                rng.integers(0, 2, 128, dtype=np.uint8),
                group="g",
            )
        expr = and_all([Operand(f"v{i}") for i in range(10)])
        plan = fc.plan(expr)
        estimate = fc.executor.estimate_latency_us(plan)
        result = fc.fc_read(expr)
        assert estimate == pytest.approx(result.latency_us)
