"""End-to-end tests of the Flash-Cosmos library (fc_write / fc_read).

Every result is checked against host-side boolean evaluation -- the
oracle the paper validates against on real chips (Section 5.1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import AllocationError, FlashCosmos
from repro.core.expressions import (
    And,
    Not,
    Operand,
    Or,
    Xnor,
    Xor,
    evaluate,
)
from repro.flash.chip import NandFlashChip
from repro.flash.errors import OperatingCondition
from repro.flash.geometry import ChipGeometry

GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)


def make_fc(*, inject_errors=False, seed=0):
    chip = NandFlashChip(GEOMETRY, inject_errors=inject_errors, seed=seed)
    return FlashCosmos(chip)


def pages(names, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)
        for name in names
    }


def test_block_limit_is_checked_at_construction():
    chip = NandFlashChip(GEOMETRY, seed=0)
    for limit in [float("nan"), float("inf"), 2.5, True]:
        with pytest.raises(ValueError, match="block_limit"):
            FlashCosmos(chip, block_limit=limit)


class TestFcWrite:
    def test_returns_handle(self):
        fc = make_fc()
        data = pages(["x"])["x"]
        handle = fc.fc_write("x", data)
        assert handle.name == "x"
        assert not handle.inverted
        assert fc.stored("x").address == handle.address

    def test_grouped_operands_share_string_group(self):
        fc = make_fc()
        env = pages("abc", seed=1)
        handles = [
            fc.fc_write(name, env[name], group="g") for name in "abc"
        ]
        blocks = {h.address.block_address for h in handles}
        assert len(blocks) == 1
        wordlines = [h.address.wordline for h in handles]
        assert wordlines == [0, 1, 2]

    def test_ungrouped_operands_get_fresh_blocks(self):
        fc = make_fc()
        env = pages("ab", seed=2)
        h1 = fc.fc_write("a", env["a"])
        h2 = fc.fc_write("b", env["b"])
        assert h1.address.block_address != h2.address.block_address

    def test_inverse_storage(self):
        fc = make_fc()
        data = pages(["x"], seed=3)["x"]
        handle = fc.fc_write("x", data, inverse=True)
        stored = fc.chip.stored_bits(handle.address)
        np.testing.assert_array_equal(stored, 1 - data)

    def test_duplicate_name_rejected(self):
        fc = make_fc()
        data = pages(["x"])["x"]
        fc.fc_write("x", data)
        with pytest.raises(ValueError, match="already written"):
            fc.fc_write("x", data)

    def test_group_exhaustion(self):
        fc = make_fc()
        env = pages([f"v{i}" for i in range(9)], seed=4)
        for i in range(8):  # string group holds 8 wordlines
            fc.fc_write(f"v{i}", env[f"v{i}"], group="g")
        with pytest.raises(AllocationError, match="exhausted"):
            fc.fc_write("v8", env["v8"], group="g")

    def test_check_room_counts_open_strings_and_free_subblocks(self):
        fc = make_fc()
        env = pages([f"v{i}" for i in range(7)], seed=4)
        for i in range(7):  # one wordline of group g's string left
            fc.fc_write(f"v{i}", env[f"v{i}"], group="g")
        free = fc.free_subblocks()
        fc.check_room(["g"] + [None] * (free - 1) + ["h"])
        with pytest.raises(AllocationError, match="'g' has no room"):
            fc.check_room(["g", "g"])
        with pytest.raises(AllocationError, match="free sub-blocks"):
            fc.check_room([None] * free + ["h"])
        assert fc.free_subblocks() == free

    def test_plane_block_exhaustion(self):
        fc = make_fc()
        total = GEOMETRY.blocks_per_plane * GEOMETRY.subblocks_per_block
        env = pages([f"v{i}" for i in range(total + 1)], seed=5)
        for i in range(total):
            fc.fc_write(f"v{i}", env[f"v{i}"])
        with pytest.raises(AllocationError, match="no free sub-blocks"):
            fc.fc_write(f"v{total}", env[f"v{total}"])

    def test_pages_are_esp_programmed_unrandomized(self):
        fc = make_fc()
        data = pages(["x"], seed=6)["x"]
        handle = fc.fc_write("x", data)
        block = fc.chip.plane_array.block(handle.address.block_address)
        meta = block.metadata[handle.address.wordline]
        assert meta.esp_extra == pytest.approx(0.9)
        assert not meta.randomized


class TestAllocationRollback:
    """A failed program must not leak its wordline or sub-block: the
    allocation cursors roll back so the next write reuses the slot."""

    def test_grouped_write_failure_leaks_no_wordline(self, monkeypatch):
        fc = make_fc()
        env = pages("abc", seed=30)
        fc.fc_write("a", env["a"], group="g")

        def boom(*args, **kwargs):
            raise RuntimeError("program failed")

        monkeypatch.setattr(fc.chip, "program_page", boom)
        with pytest.raises(RuntimeError, match="program failed"):
            fc.fc_write("b", env["b"], group="g")
        assert "b" not in fc.directory
        monkeypatch.undo()
        handle = fc.fc_write("b", env["b"], group="g")
        # Directly after "a": wordline 1, not 2.
        assert handle.address.wordline == 1

    def test_first_grouped_write_failure_releases_subblock(
        self, monkeypatch
    ):
        fc = make_fc()
        env = pages("ab", seed=31)

        def boom(*args, **kwargs):
            raise RuntimeError("program failed")

        monkeypatch.setattr(fc.chip, "program_page", boom)
        with pytest.raises(RuntimeError):
            fc.fc_write("a", env["a"], group="g")
        monkeypatch.undo()
        # The group cursor was rolled back too: a retry starts the
        # group fresh in the first sub-block at wordline 0.
        handle = fc.fc_write("a", env["a"], group="g")
        assert (handle.address.block, handle.address.subblock) == (0, 0)
        assert handle.address.wordline == 0
        second = fc.fc_write("b", env["b"], group="g")
        assert second.address.block_address == handle.address.block_address
        assert second.address.wordline == 1

    def test_malformed_data_leaks_no_wordline(self):
        fc = make_fc()
        env = pages("ab", seed=33)
        fc.fc_write("a", env["a"], group="g")
        with pytest.raises(ValueError):
            fc.fc_write("bad", ["not", "bits"], group="g")
        handle = fc.fc_write("b", env["b"], group="g")
        assert handle.address.wordline == 1  # directly after "a"

    def test_non_bit_data_leaks_no_wordline(self):
        """256 would cast to 0 and program; it is refused before the
        wordline is allocated."""
        fc = make_fc()
        env = pages("ab", seed=34)
        fc.fc_write("a", env["a"], group="g")
        bad = env["b"].astype(np.int64)
        bad[0] = 256
        with pytest.raises(ValueError, match="operand 'bad' must be 0/1"):
            fc.fc_write("bad", bad, group="g")
        handle = fc.fc_write("b", env["b"], group="g")
        assert handle.address.wordline == 1  # directly after "a"

    def test_ungrouped_write_failure_releases_subblock(self, monkeypatch):
        fc = make_fc()
        env = pages("ab", seed=32)
        first = fc.fc_write("a", env["a"])

        def boom(*args, **kwargs):
            raise RuntimeError("program failed")

        monkeypatch.setattr(fc.chip, "program_page", boom)
        with pytest.raises(RuntimeError):
            fc.fc_write("b", env["b"])
        monkeypatch.undo()
        retry = fc.fc_write("b", env["b"])
        # The sub-block the failed write grabbed is reused, so the two
        # writes occupy adjacent sub-blocks.
        g = GEOMETRY
        first_index = (
            first.address.block * g.subblocks_per_block
            + first.address.subblock
        )
        retry_index = (
            retry.address.block * g.subblocks_per_block
            + retry.address.subblock
        )
        assert retry_index == first_index + 1


class TestSubblockPool:
    def test_released_subblock_takes_no_group_cursor_with_it(self):
        """A group whose whole sub-block is freed starts over in a
        fresh allocation: its cursor must not keep pointing into a
        sub-block the pool can hand to another write."""
        fc = make_fc()
        env = pages("abc", seed=7)
        victim = fc.fc_write("a", env["a"], group="g").address.block_address
        fc.directory.unregister("a")
        fc.chip.erase_block(victim)
        fc.release_subblock(victim)
        grouped = fc.fc_write("b", env["b"], group="g").address
        loose = fc.fc_write("c", env["c"]).address
        assert grouped.block_address != loose.block_address
        np.testing.assert_array_equal(fc.fc_read(Operand("b")).bits, env["b"])
        np.testing.assert_array_equal(fc.fc_read(Operand("c")).bits, env["c"])

    def test_retire_reports_whether_the_address_is_new(self):
        fc = make_fc()
        address = fc.fc_write("a", pages("a")["a"]).address.block_address
        assert fc.retire_subblock(address) is True
        assert fc.retire_subblock(address) is False


class TestFcRead:
    def test_and_of_grouped_operands(self):
        fc = make_fc()
        env = pages("abcd", seed=10)
        for name in "abcd":
            fc.fc_write(name, env[name], group="and_group")
        expr = And(*(Operand(n) for n in "abcd"))
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 1

    def test_or_of_separate_blocks(self):
        fc = make_fc()
        env = pages("abc", seed=11)
        for name in "abc":
            fc.fc_write(name, env[name])
        expr = Or(*(Operand(n) for n in "abc"))
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 1

    def test_or_of_inverse_stored_group(self):
        """Section 6.1: inverse storage turns same-block OR into a
        single intra-block sense regardless of the block power limit."""
        fc = make_fc()
        env = pages("abcdefgh", seed=12)
        for name in env:
            fc.fc_write(name, env[name], group="inv", inverse=True)
        expr = Or(*(Operand(n) for n in env))
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 1

    def test_equation_4_operational_example(self):
        """Figure 16 end-to-end: {A1+(B1.B2.B3.B4)}.(C1+C3).(D2+D4)."""
        fc = make_fc()
        names = ["A1", "B1", "B2", "B3", "B4", "C1", "C3", "D2", "D4"]
        env = pages(names, seed=13)
        fc.fc_write("A1", env["A1"])  # own block
        for n in ["B1", "B2", "B3", "B4"]:
            fc.fc_write(n, env[n], group="B")
        for n in ["C1", "C3"]:
            fc.fc_write(n, env[n], group="C", inverse=True)
        for n in ["D2", "D4"]:
            fc.fc_write(n, env[n], group="D", inverse=True)
        expr = And(
            Or(Operand("A1"),
               And(Operand("B1"), Operand("B2"), Operand("B3"), Operand("B4"))),
            Or(Operand("C1"), Operand("C3")),
            Or(Operand("D2"), Operand("D4")),
        )
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        # Two MWS commands, exactly as the paper's walkthrough.
        assert result.n_senses == 2

    def test_nand_nor_not(self):
        fc = make_fc()
        env = pages("ab", seed=14)
        fc.fc_write("a", env["a"], group="g")
        fc.fc_write("b", env["b"], group="g")
        for expr in [
            Not(Operand("a")),
            Not(And(Operand("a"), Operand("b"))),
        ]:
            result = fc.fc_read(expr)
            np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_xor_and_xnor(self):
        fc = make_fc()
        env = pages("ab", seed=15)
        fc.fc_write("a", env["a"])
        fc.fc_write("b", env["b"])
        for expr in [
            Xor(Operand("a"), Operand("b")),
            Xnor(Operand("a"), Operand("b")),
        ]:
            result = fc.fc_read(expr)
            np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_wide_and_beyond_one_group(self):
        """Operand counts beyond one string group AND-accumulate
        across groups (Section 6.1)."""
        fc = make_fc()
        names = [f"v{i}" for i in range(12)]
        env = pages(names, seed=16)
        for i, name in enumerate(names):
            fc.fc_write(name, env[name], group=f"g{i // 8}")
        expr = And(*(Operand(n) for n in names))
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 2  # 8 + 4 wordlines in two groups


class TestReliabilityEndToEnd:
    def test_error_free_under_worst_case_stress(self):
        """The paper's headline: ESP-programmed operands + MWS compute
        with zero bit errors at 10K PEC / 1-year retention."""
        chip = NandFlashChip(GEOMETRY, inject_errors=True, seed=21)
        chip.set_condition(
            OperatingCondition(pe_cycles=10_000, retention_months=12.0,
                               randomized=False)
        )
        fc = FlashCosmos(chip, esp_extra=0.9)
        env = pages("abcdefgh", seed=22)
        for name in env:
            fc.fc_write(name, env[name], group="g")
        expr = And(*(Operand(n) for n in env))
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_insufficient_esp_effort_shows_errors(self):
        """Dialing ESP effort below the Fig. 11 knee re-exposes raw
        bit errors (ablation of the paper's design choice)."""
        geometry = GEOMETRY.scaled(page_size_bits=8192)
        chip = NandFlashChip(geometry, inject_errors=True, seed=23)
        chip.set_condition(
            OperatingCondition(pe_cycles=10_000, retention_months=12.0,
                               randomized=False)
        )
        fc = FlashCosmos(chip, esp_extra=0.2)
        rng = np.random.default_rng(24)
        env = {
            name: rng.integers(0, 2, geometry.page_size_bits, dtype=np.uint8)
            for name in "abcd"
        }
        for name in env:
            fc.fc_write(name, env[name], group="g")
        expr = And(*(Operand(n) for n in env))
        result = fc.fc_read(expr)
        errors = int((result.bits != evaluate(expr, env)).sum())
        assert errors > 0


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_random_dnf_expressions_match_oracle(self, seed, data):
        """Random OR-of-ANDs over grouped operands always match the
        host oracle."""
        fc = make_fc(seed=seed)
        rng = np.random.default_rng(seed)
        n_groups = data.draw(st.integers(1, 3))
        env = {}
        groups = []
        for g in range(n_groups):
            size = data.draw(st.integers(1, 4))
            names = [f"g{g}_{i}" for i in range(size)]
            for name in names:
                env[name] = rng.integers(
                    0, 2, GEOMETRY.page_size_bits, dtype=np.uint8
                )
                fc.fc_write(name, env[name], group=f"grp{g}")
            groups.append(names)
        from repro.core.expressions import and_all, or_all

        expr = or_all(
            [and_all([Operand(n) for n in names]) for names in groups]
        )
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    def test_inverse_stored_or_matches_oracle(self, seed, n):
        fc = make_fc(seed=seed)
        rng = np.random.default_rng(seed)
        env = {
            f"v{i}": rng.integers(0, 2, GEOMETRY.page_size_bits,
                                  dtype=np.uint8)
            for i in range(n)
        }
        for name, bits in env.items():
            fc.fc_write(name, bits, group="inv", inverse=True)
        from repro.core.expressions import or_all

        expr = or_all([Operand(n) for n in env])
        result = fc.fc_read(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 1
