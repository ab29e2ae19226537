"""Tests for repro.core.planner: expression -> MWS command mapping."""

import pytest

from repro.core.expressions import And, Not, Operand, Or, Xnor, Xor
from repro.core.planner import (
    OperandDirectory,
    Planner,
    PlanningError,
    SenseStep,
    StoredOperand,
    XorStep,
)
from repro.flash.geometry import BlockAddress, WordlineAddress


def store(directory, name, plane, block, subblock, wordline, inverted=False):
    directory.register(
        StoredOperand(
            name=name,
            address=WordlineAddress(plane, block, subblock, wordline),
            inverted=inverted,
        )
    )


@pytest.fixture
def directory():
    d = OperandDirectory()
    # Block (0,0,0): A0..A3 direct, same string group.
    for i in range(4):
        store(d, f"A{i}", 0, 0, 0, i)
    # Block (0,1,0): N0..N3 stored INVERTED, same string group.
    for i in range(4):
        store(d, f"N{i}", 0, 1, 0, i, inverted=True)
    # Blocks (0,2..7,0): S0..S5 direct, one per block.
    for i in range(6):
        store(d, f"S{i}", 0, 2 + i, 0, 0)
    # Another plane: P0.
    store(d, "P0", 1, 0, 0, 0)
    return d


@pytest.fixture
def planner(directory):
    return Planner(directory, block_limit=4)


def op(name):
    return Operand(name)


class TestDirectory:
    def test_duplicate_rejected(self, directory):
        with pytest.raises(ValueError, match="already registered"):
            store(directory, "A0", 0, 0, 0, 5)

    def test_lookup_missing(self, directory):
        with pytest.raises(KeyError, match="not stored"):
            directory.lookup("ZZ")

    def test_contains_and_names(self, directory):
        assert "A0" in directory
        assert "ZZ" not in directory
        assert "N3" in directory.names()


class TestSingleSenseUnits:
    def test_single_operand(self, planner):
        plan = planner.plan(op("A0"))
        assert plan.n_senses == 1
        step = plan.steps[0]
        assert not step.command.iscm.inverse
        assert step.command.targets == ((BlockAddress(0, 0, 0), (0,)),)

    def test_not_of_direct_operand_uses_inverse_read(self, planner):
        plan = planner.plan(Not(op("A0")))
        assert plan.n_senses == 1
        assert plan.steps[0].command.iscm.inverse

    def test_inverted_operand_reads_inverse(self, planner):
        """Reading back an inverse-stored operand is an inverse read
        (Section 6.1: A == NOT(stored))."""
        plan = planner.plan(op("N0"))
        assert plan.steps[0].command.iscm.inverse

    def test_not_of_inverted_operand_is_direct(self, planner):
        plan = planner.plan(Not(op("N0")))
        assert not plan.steps[0].command.iscm.inverse

    def test_intra_block_and(self, planner):
        """Figure 9(a): AND of co-located operands = one sense."""
        plan = planner.plan(And(*(op(f"A{i}") for i in range(4))))
        assert plan.n_senses == 1
        step = plan.steps[0]
        assert step.command.targets == ((BlockAddress(0, 0, 0), (0, 1, 2, 3)),)
        assert not step.command.iscm.inverse

    def test_nand_via_inverse(self, planner):
        plan = planner.plan(Not(And(op("A0"), op("A1"))))
        assert plan.n_senses == 1
        assert plan.steps[0].command.iscm.inverse

    def test_inter_block_or(self, planner):
        """Figure 9(b): OR across blocks = one inter-block sense."""
        plan = planner.plan(Or(op("S0"), op("S1"), op("S2")))
        assert plan.n_senses == 1
        assert plan.steps[0].command.n_blocks == 3

    def test_nor_via_inverse(self, planner):
        plan = planner.plan(Not(Or(op("S0"), op("S1"))))
        assert plan.n_senses == 1
        assert plan.steps[0].command.iscm.inverse

    def test_or_of_inverse_stored_same_block(self, planner):
        """Equation 3: OR of inverse-stored co-located operands is one
        inverse-mode intra-block sense."""
        plan = planner.plan(Or(*(op(f"N{i}") for i in range(4))))
        assert plan.n_senses == 1
        step = plan.steps[0]
        assert step.command.iscm.inverse
        assert step.command.n_blocks == 1
        assert step.command.n_wordlines == 4

    def test_and_of_inverse_stored_different_blocks_would_need_them(
        self, planner
    ):
        """AND of inverse-stored operands in ONE block cannot be a
        single sense (raw sense gives AND of complements)."""
        with pytest.raises(PlanningError):
            planner.plan(And(op("N0"), Or(op("S0"), op("S0"))))

    def test_equation_1_or_of_ands(self, planner, directory):
        """Equation 1: (A AND-group in blk0) OR (S2) in one sense."""
        expr = Or(And(op("A0"), op("A1"), op("A2")), op("S2"))
        plan = planner.plan(expr)
        assert plan.n_senses == 1
        cmd = plan.steps[0].command
        assert cmd.n_blocks == 2
        assert cmd.max_wordlines_per_block == 3

    def test_fig16_and_of_ors_inverse(self, planner):
        """Figure 16 command (1): (C1+C3).(D2+D4) with C,D stored
        inverted in two blocks -> one inverse-mode sense.  Here:
        (N0+N1).(S-free) -- we build it from two inverse groups."""
        d = OperandDirectory()
        for i, name in enumerate(["C1", "C3"]):
            store(d, name, 0, 3, 0, i, inverted=True)
        for i, name in enumerate(["D2", "D4"]):
            store(d, name, 0, 4, 0, i, inverted=True)
        planner = Planner(d, block_limit=4)
        expr = And(Or(op("C1"), op("C3")), Or(op("D2"), op("D4")))
        plan = planner.plan(expr)
        assert plan.n_senses == 1
        cmd = plan.steps[0].command
        assert cmd.iscm.inverse
        assert cmd.n_blocks == 2
        assert cmd.n_wordlines == 4


class TestConjunctionAccumulation:
    def test_wide_and_splits_per_block(self, planner):
        """AND spanning blocks AND-accumulates in the S-latch
        (Section 6.1: accumulating beyond one block's wordlines)."""
        expr = And(op("A0"), op("A1"), op("S0"), op("S1"))
        plan = planner.plan(expr)
        assert plan.n_senses == 3  # block0 (A0,A1), block2 (S0), block3 (S1)
        first, *rest = plan.sense_steps
        assert first.command.iscm.init_sense
        for step in rest:
            assert not step.command.iscm.init_sense
            assert not step.command.iscm.inverse

    def test_conjunction_with_one_inverse_unit_first(self, planner):
        """Figure 16: the inverse-mode sense must come first."""
        expr = And(Or(op("N0"), op("N1")), op("A0"), op("A1"))
        plan = planner.plan(expr)
        assert plan.n_senses == 2
        steps = plan.sense_steps
        assert steps[0].command.iscm.inverse
        assert steps[0].command.iscm.init_sense
        assert not steps[1].command.iscm.inverse
        assert not steps[1].command.iscm.init_sense

    def test_two_inverse_units_rejected(self, planner):
        expr = And(Or(op("N0"), op("N1")), Or(op("N2"), op("N3")))
        with pytest.raises(PlanningError, match="at most one inverse"):
            planner.plan(expr)

    def test_unplannable_term_reports_placement_advice(self, planner):
        # XOR nested under AND is beyond the latch protocol.
        expr = And(op("A0"), Xor(op("A1"), op("A2")))
        with pytest.raises(PlanningError, match="not computable in one sense"):
            planner.plan(expr)


class TestDisjunctionAccumulation:
    def test_or_beyond_block_limit_splits(self, planner):
        """Section 6.3: with the 4-block power limit, OR over 6
        dedicated blocks takes ceil(6/4) = 2 senses."""
        expr = Or(*(op(f"S{i}") for i in range(6)))
        plan = planner.plan(expr)
        assert plan.n_senses == 2
        blocks = [s.command.n_blocks for s in plan.sense_steps]
        assert sorted(blocks) == [2, 4]
        first, second = plan.sense_steps
        assert first.command.iscm.init_cache
        assert not second.command.iscm.init_cache
        assert second.command.iscm.init_sense  # OR re-inits the S-latch

    def test_or_mixing_direct_and_inverse_units(self, planner):
        """OR accumulation re-inits the S-latch each sense, so every
        disjunct may independently be inverse-mode."""
        expr = Or(Or(op("N0"), op("N1")), op("S0"))
        plan = planner.plan(expr)
        assert plan.n_senses == 2
        inverses = [s.command.iscm.inverse for s in plan.sense_steps]
        assert True in inverses and False in inverses

    def test_unplannable_disjunct(self, planner):
        expr = Or(op("S0"), Xor(op("A0"), op("A1")))
        with pytest.raises(PlanningError, match="disjunction"):
            planner.plan(expr)


class TestXorPlans:
    def test_xor_two_operands(self, planner):
        plan = planner.plan(Xor(op("A0"), op("S0")))
        assert plan.n_senses == 2
        assert isinstance(plan.steps[-1], XorStep)

    def test_xnor_inverts_one_side(self, planner):
        plan = planner.plan(Xnor(op("A0"), op("S0")))
        senses = plan.sense_steps
        assert [s.command.iscm.inverse for s in senses].count(True) == 1

    def test_xor_of_units(self, planner):
        """XOR of an AND-group with an operand: both halves sensable."""
        plan = planner.plan(Xor(And(op("A0"), op("A1")), op("S0")))
        assert plan.n_senses == 2

    def test_xor_of_unsensable_half(self, planner):
        expr = Xor(Xor(op("A0"), op("A1")), op("S0"))
        with pytest.raises(PlanningError, match="single sense"):
            planner.plan(expr)


class TestValidation:
    def test_cross_plane_rejected(self, planner):
        with pytest.raises(PlanningError, match="one plane"):
            planner.plan(And(op("A0"), op("P0")))

    def test_unknown_operand(self, planner):
        with pytest.raises(KeyError, match="not stored"):
            planner.plan(op("ZZ"))

    def test_block_limit_validated(self, directory):
        with pytest.raises(ValueError, match="block_limit"):
            Planner(directory, block_limit=0)

    @pytest.mark.parametrize(
        "limit", [float("nan"), float("inf"), 2.5, 4.0, True, "2", -1]
    )
    def test_block_limit_must_be_an_int_at_least_one(self, directory, limit):
        """NaN lifted the power limit of Figure 14 (a 6-block OR was one
        sense), 2.5 failed mid-plan on a slice, ``True`` acted as 1."""
        with pytest.raises(ValueError, match="block_limit must be an int"):
            Planner(directory, block_limit=limit)

    def test_plan_describe_mentions_flags(self, planner):
        text = planner.plan(Not(op("A0"))).describe()
        assert "MWS" in text
        assert "I" in text  # inverse flag shown

    def test_sense_profile(self, planner):
        plan = planner.plan(And(*(op(f"A{i}") for i in range(4))))
        assert plan.sense_profile() == ((4, 1),)
        assert plan.total_wordlines == 4


class TestPlanTemplates:
    """Relocatable templates: plan once, bind against congruent
    layouts (the query engine's chunk dimension)."""

    def relocated_directory(self, wordline_shift=0, block_shift=0):
        """A layout congruent to the main fixture's: same groups and
        inversions, different physical addresses."""
        d = OperandDirectory()
        for i in range(4):
            store(d, f"A{i}", 0, 0 + block_shift, 1, i + wordline_shift)
        for i in range(4):
            store(d, f"N{i}", 0, 1 + block_shift, 1, i + wordline_shift,
                  inverted=True)
        for i in range(6):
            store(d, f"S{i}", 0, 2 + block_shift + i, 1, wordline_shift)
        store(d, "P0", 1, 0 + block_shift, 1, wordline_shift)
        return d

    def test_bind_roundtrip_reproduces_plan(self, planner, directory):
        exprs = [
            And(*(op(f"A{i}") for i in range(4))),
            Or(op("N0"), op("N1"), op("N2")),
            Or(And(op("A0"), op("A1")), op("S0"), op("S1")),
            Xor(op("A0"), op("S0")),
            Xnor(op("A0"), op("S0")),
            And(Or(op("S0"), And(op("A0"), op("A1"))),
                Or(op("N0"), op("N1"))),
        ]
        for expr in exprs:
            template = planner.plan_template(expr)
            assert template.bind(directory) == planner.plan(expr)

    def test_template_relocates_to_congruent_layout(self, planner):
        expr = And(*(op(f"A{i}") for i in range(4)))
        template = planner.plan_template(expr)
        other = self.relocated_directory(wordline_shift=3, block_shift=2)
        plan = template.bind(other)
        assert plan.n_senses == 1
        (step,) = plan.steps
        assert step.command.targets == (
            (BlockAddress(0, 2, 1), (3, 4, 5, 6)),
        )

    def test_template_sense_profile_matches_plan(self, planner):
        expr = Or(And(op("A0"), op("A1")), op("S0"), op("S1"))
        template = planner.plan_template(expr)
        assert template.sense_profile() == planner.plan(expr).sense_profile()

    def test_bind_rejects_inversion_drift(self, planner):
        from repro.core.planner import TemplateBindError

        template = planner.plan_template(And(op("A0"), op("A1")))
        drifted = OperandDirectory()
        store(drifted, "A0", 0, 0, 0, 0)
        store(drifted, "A1", 0, 0, 0, 1, inverted=True)
        with pytest.raises(TemplateBindError, match="polarity"):
            template.bind(drifted)

    def test_bind_rejects_broken_co_location(self, planner):
        from repro.core.planner import TemplateBindError

        template = planner.plan_template(And(op("A0"), op("A1")))
        scattered = OperandDirectory()
        store(scattered, "A0", 0, 0, 0, 0)
        store(scattered, "A1", 0, 5, 0, 0)
        with pytest.raises(TemplateBindError, match="co-located"):
            template.bind(scattered)

    def test_bind_accepts_bare_callable(self, planner, directory):
        template = planner.plan_template(op("A0"))
        plan = template.bind(directory.lookup)
        assert plan == planner.plan(op("A0"))

    def test_operand_names_and_inversions(self, planner):
        template = planner.plan_template(And(op("A0"), Not(op("N0"))))
        assert [name for name, _ in template.inversions] == ["A0", "N0"]
        assert dict(template.inversions) == {"A0": False, "N0": True}

    def test_planner_counts_invocations(self, directory):
        p = Planner(directory, block_limit=4)
        assert p.n_plans == 0
        template = p.plan_template(op("A0"))
        p.plan(op("A0"))
        assert p.n_plans == 2
        # Binding an existing template is not a planner invocation.
        template.bind(directory)
        assert p.n_plans == 2

    def test_bind_rejects_merged_or_groups(self, planner):
        """Two inter-block-OR groups drifting into one sub-block would
        AND together in a single sense; bind must refuse so the caller
        replans (Figure 9: intra-block MWS is AND, not OR)."""
        from repro.core.planner import TemplateBindError

        template = planner.plan_template(Or(op("S0"), op("S1")))
        merged = OperandDirectory()
        store(merged, "S0", 0, 2, 0, 0)
        store(merged, "S1", 0, 2, 0, 1)  # now same string group
        with pytest.raises(TemplateBindError, match="share a sub-block"):
            template.bind(merged)
