"""Expression-to-MWS-command planning (Section 6).

The planner maps a boolean expression over stored operands onto the
fewest sensing operations the chip's mechanisms allow:

* **intra-block MWS** computes AND of wordlines sharing a string group
  in one sense (Figure 9(a));
* **inter-block MWS** computes OR across blocks -- and, in its general
  form, OR-of-per-block-ANDs (Equation 1) -- in one sense, limited to
  ``block_limit`` simultaneously activated blocks (power, Figure 14);
* an **inverse-mode** sense complements the result for free, which
  with De Morgan's laws turns intra-block AND of inverse-stored
  operands into OR (Equation 3), and vice versa;
* the **latch protocol** accumulates results across senses: AND in
  the sensing latch (no re-init), OR in the cache latch (re-init +
  merge) -- ParaBit's mechanisms, which Flash-Cosmos retains for
  operand counts beyond a single sense (Section 6.1);
* the **XOR** latch command provides XOR/XNOR of two sensable halves.

A *sense unit* is anything one MWS command computes: a direct unit
senses ``OR over blocks (AND within block)`` of storage-positive
literals; an inverse unit senses the same shape for the *negated*
expression and complements.  The planner composes units with latch
accumulation and raises :class:`PlanningError` (with actionable data
placement advice) for expressions the hardware cannot evaluate
without rewriting the layout.

Planning output is *relocatable*: the primary product is a
:class:`PlanTemplate`, which records the command sequence with
operand **names** in place of physical addresses.  A template is
valid for any layout *congruent* to the one it was planned against
(same co-location groups, same inversion flags); binding it against a
concrete directory resolves names to wordline addresses and yields an
executable :class:`Plan`.  This is what lets an SSD-scale query plan
once and stamp the same template onto every striped chunk instead of
re-running the planner per chunk (In-DRAM bulk-bitwise engines make
the same move: translate once, execute across the bulk dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro.core.commands import MwsCommand
from repro.core.expressions import (
    And,
    Expression,
    Not,
    Operand,
    Or,
    Xor,
    operand_names,
    to_nnf,
)
from repro.flash.chip import IscmFlags
from repro.flash.geometry import BlockAddress, WordlineAddress


class PlanningError(Exception):
    """The expression cannot be computed with the current data layout."""


@dataclass(frozen=True)
class StoredOperand:
    """Placement record of one operand page.

    ``inverted`` means the page stores the complement of the operand
    (Section 6.1: storing inverse data turns same-block OR into
    intra-block MWS).
    """

    name: str
    address: WordlineAddress
    inverted: bool = False
    esp_extra: float = 0.9

    @cached_property
    def placement(self) -> tuple[int, int, int, int, bool]:
        """All that :meth:`PlanTemplate.bind` reads of this operand,
        as a cheap dict key."""
        a = self.address
        return (a.plane, a.block, a.subblock, a.wordline, self.inverted)


class OperandDirectory:
    """Name -> placement lookup shared by planner and executors."""

    def __init__(self) -> None:
        self._operands: dict[str, StoredOperand] = {}
        #: Read-only live view of name -> placement, for callers that
        #: resolve many names (the query engine's per-chunk views): a
        #: miss raises a bare ``KeyError``, so they word the
        #: "not stored" error themselves.
        self.operands: Mapping[str, StoredOperand] = MappingProxyType(
            self._operands
        )
        #: Placement generation: bumped on every register/unregister
        #: so caches of resolved physical layouts (the query engine's
        #: bound plans) can detect that this chip's directory changed.
        self.generation = 0

    def register(self, operand: StoredOperand) -> None:
        if operand.name in self._operands:
            raise ValueError(f"operand {operand.name!r} already registered")
        self._operands[operand.name] = operand
        self.generation += 1

    def lookup(self, name: str) -> StoredOperand:
        try:
            return self._operands[name]
        except KeyError:
            raise KeyError(f"operand {name!r} is not stored") from None

    def unregister(self, name: str) -> None:
        """Drop a registration (rollback of a failed multi-chunk
        write).  The physical page stays programmed; only the name
        becomes reusable."""
        if self._operands.pop(name, None) is not None:
            self.generation += 1

    def relocate(self, name: str, address: WordlineAddress) -> StoredOperand:
        """Point an operand at a new physical page (GC/migration).

        Inversion polarity and ESP margin travel with the operand --
        the copyback path preserves both on the new page, so only the
        address changes.  Bumps the generation so bound plans and
        result-cache stamps that resolved the old address rebind.
        """
        old = self.lookup(name)
        moved = StoredOperand(
            name=name,
            address=address,
            inverted=old.inverted,
            esp_extra=old.esp_extra,
        )
        self._operands[name] = moved
        self.generation += 1
        return moved

    def __contains__(self, name: str) -> bool:
        return name in self._operands

    def __len__(self) -> int:
        return len(self._operands)

    def names(self) -> tuple[str, ...]:
        return tuple(self._operands)


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SenseStep:
    """One MWS command execution."""

    command: MwsCommand

    @property
    def n_wordlines(self) -> int:
        return self.command.n_wordlines

    @property
    def n_blocks(self) -> int:
        return self.command.n_blocks


@dataclass(frozen=True)
class XorStep:
    """Latch XOR command."""

    plane: int


@dataclass(frozen=True)
class Plan:
    """Ordered command sequence computing one expression on one plane.

    A value object down to the MWS command bytes: two plans that
    compare equal ask a chip for the same sensing operation.  The
    query engine interns the plans it binds, so its hot paths key on
    an int per ``(chip, plan)`` (``repro.ssd.query_engine.PlanKeys``)
    and never hash a plan; the hash is the dataclass's own.
    """

    plane: int
    steps: tuple[SenseStep | XorStep, ...]

    @cached_property
    def sense_steps(self) -> tuple[SenseStep, ...]:
        return tuple(s for s in self.steps if isinstance(s, SenseStep))

    @property
    def n_senses(self) -> int:
        return len(self.sense_steps)

    @property
    def total_wordlines(self) -> int:
        return sum(s.n_wordlines for s in self.sense_steps)

    def sense_profile(self) -> tuple[tuple[int, int], ...]:
        """(n_wordlines, n_blocks) per sense -- consumed by the
        timing/power models."""
        return tuple((s.n_wordlines, s.n_blocks) for s in self.sense_steps)

    def describe(self) -> str:
        lines = [f"plan on plane {self.plane}: {self.n_senses} sense(s)"]
        for step in self.steps:
            if isinstance(step, SenseStep):
                iscm = step.command.iscm
                flags = "".join(
                    flag if on else "-"
                    for flag, on in zip(
                        "ISCM",
                        (
                            iscm.inverse,
                            iscm.init_sense,
                            iscm.init_cache,
                            iscm.transfer,
                        ),
                    )
                )
                targets = ", ".join(
                    f"blk({b.plane},{b.block},{b.subblock})/WLs{list(wls)}"
                    for b, wls in step.command.targets
                )
                lines.append(f"  MWS [{flags}] {targets}")
            else:
                lines.append("  XOR latches")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Relocatable plan templates
# ----------------------------------------------------------------------


class TemplateBindError(Exception):
    """The concrete layout is not congruent to the template's layout."""


@dataclass(frozen=True)
class TemplateSenseStep:
    """One MWS command with operand names in place of addresses.

    ``groups`` holds one name tuple per simultaneously sensed block;
    the names of a group must resolve to wordlines of a single
    sub-block at bind time (the co-location the template was planned
    under).
    """

    iscm: IscmFlags
    groups: tuple[tuple[str, ...], ...]

    @property
    def n_wordlines(self) -> int:
        return sum(len(names) for names in self.groups)

    @property
    def n_blocks(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class TemplateXorStep:
    """Latch XOR command (plane resolved at bind time)."""


@dataclass(frozen=True)
class PlanTemplate:
    """Relocatable command sequence for one expression shape + layout.

    ``inversions`` records the stored-inversion flag every referenced
    operand had when the template was planned; binding against a
    layout whose flags differ is rejected, because the ISCM flags
    baked into the steps would compute the wrong function.
    """

    steps: tuple[TemplateSenseStep | TemplateXorStep, ...]
    inversions: tuple[tuple[str, bool], ...]

    @property
    def sense_steps(self) -> tuple[TemplateSenseStep, ...]:
        return tuple(
            s for s in self.steps if isinstance(s, TemplateSenseStep)
        )

    @property
    def n_senses(self) -> int:
        return len(self.sense_steps)

    def sense_profile(self) -> tuple[tuple[int, int], ...]:
        """(n_wordlines, n_blocks) per sense, address-free -- the
        timing/power models need only these counts, so template-level
        cost estimation works without binding."""
        return tuple((s.n_wordlines, s.n_blocks) for s in self.sense_steps)

    def bind(self, directory) -> Plan:
        """Resolve operand names to addresses and emit an executable
        :class:`Plan`.

        ``directory`` is anything with ``lookup(name) -> StoredOperand``
        (an :class:`OperandDirectory`, or a per-chunk view of one); a
        bare callable is also accepted.  Raises
        :class:`TemplateBindError` when the layout is not congruent:
        an operand changed its inversion flag, a group's operands no
        longer share a block, or operands straddle planes.
        """
        lookup = getattr(directory, "lookup", directory)
        # Resolve every operand exactly once (binding runs once per
        # chunk layout of an SSD query -- hot path).
        addresses: dict[str, WordlineAddress] = {}
        for name, inverted in self.inversions:
            operand = lookup(name)
            if operand.inverted != inverted:
                raise TemplateBindError(
                    f"operand {name!r} is stored "
                    f"{'inverted' if operand.inverted else 'direct'} "
                    "but the template was planned for the opposite "
                    "polarity; replan against this layout"
                )
            addresses[name] = operand.address

        plane: int | None = None
        bound: list[SenseStep | XorStep] = []
        for step in self.steps:
            if isinstance(step, TemplateXorStep):
                if plane is None:
                    raise TemplateBindError(
                        "XOR step precedes any sense step"
                    )
                bound.append(XorStep(plane))
                continue
            targets: list[tuple[BlockAddress, tuple[int, ...]]] = []
            step_blocks: set[tuple[int, int, int]] = set()
            for names in step.groups:
                first = addresses[names[0]]
                block_key = (first.plane, first.block, first.subblock)
                if block_key in step_blocks:
                    # Two OR-groups drifted into one string group: the
                    # sense would AND them, not OR them.
                    raise TemplateBindError(
                        f"operands {names} share a sub-block with "
                        "another group of the same sense; the "
                        "template's inter-block OR does not apply"
                    )
                step_blocks.add(block_key)
                wordlines = [first.wordline]
                for name in names[1:]:
                    addr = addresses[name]
                    if (
                        addr.plane != first.plane
                        or addr.block != first.block
                        or addr.subblock != first.subblock
                    ):
                        raise TemplateBindError(
                            f"operands {names} are no longer co-located "
                            "in one sub-block; the template's "
                            "intra-block AND does not apply"
                        )
                    wordlines.append(addr.wordline)
                if len(set(wordlines)) != len(wordlines):
                    raise TemplateBindError(
                        f"operands {names} collide on one wordline"
                    )
                if plane is None:
                    plane = first.plane
                elif first.plane != plane:
                    raise TemplateBindError(
                        "bound operands straddle planes; MWS senses one "
                        "plane's bitlines at a time"
                    )
                targets.append((first.block_address, tuple(wordlines)))
            bound.append(
                SenseStep(
                    MwsCommand(iscm=step.iscm, targets=tuple(targets))
                )
            )
        if plane is None:
            raise TemplateBindError("template contains no sense steps")
        return Plan(plane=plane, steps=tuple(bound))


# ----------------------------------------------------------------------
# Internal unit representation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Literal:
    name: str
    negated: bool


@dataclass
class _SenseUnit:
    """One MWS-computable value: OR over blocks of AND within block,
    optionally complemented by an inverse-mode sense."""

    groups: dict[BlockAddress, tuple[int, ...]]
    inverse: bool

    @property
    def n_blocks(self) -> int:
        return len(self.groups)

    def to_command(self, iscm: IscmFlags) -> MwsCommand:
        targets = tuple(sorted(self.groups.items()))
        return MwsCommand(iscm=iscm, targets=targets)


class Planner:
    """Maps expressions to MWS command plans for one chip."""

    def __init__(
        self,
        directory: OperandDirectory,
        *,
        block_limit: int = 4,
    ) -> None:
        # NaN would lift the power limit, 2.5 break a slice.
        if type(block_limit) is not int or block_limit < 1:
            raise ValueError(
                f"block_limit must be an int >= 1, not {block_limit!r}"
            )
        self.directory = directory
        self.block_limit = block_limit
        #: How many times this planner ran full expression planning
        #: (template builds included, binds excluded) -- the quantity
        #: the query engine amortizes across chunks.
        self.n_plans = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def plan(self, expr: Expression) -> Plan:
        """Plan ``expr`` against this planner's directory.

        Produces the same plan as ``plan_template(expr).bind(directory)``
        (a property the tests pin) without paying the lift/bind pass --
        single-shot callers plan concretely; bulk callers lift once via
        :meth:`plan_template` and bind per chunk.
        """
        return self._plan_concrete(expr)

    def plan_template(self, expr: Expression) -> PlanTemplate:
        """Plan ``expr`` and lift the result into a relocatable
        :class:`PlanTemplate` (addresses replaced by operand names).

        The template reproduces this directory's plan exactly when
        bound back against it, and transplants to any congruent layout
        -- e.g. the same vectors' other chunks on other chips.
        """
        plan = self._plan_concrete(expr)
        names = sorted(operand_names(expr))
        address_to_name: dict[WordlineAddress, str] = {}
        inversions: list[tuple[str, bool]] = []
        for name in names:
            operand = self.directory.lookup(name)
            address_to_name[operand.address] = name
            inversions.append((name, operand.inverted))
        steps: list[TemplateSenseStep | TemplateXorStep] = []
        for step in plan.steps:
            if isinstance(step, XorStep):
                steps.append(TemplateXorStep())
                continue
            groups = []
            for block, wordlines in step.command.targets:
                groups.append(
                    tuple(
                        address_to_name[
                            WordlineAddress(
                                block.plane, block.block, block.subblock, wl
                            )
                        ]
                        for wl in wordlines
                    )
                )
            steps.append(
                TemplateSenseStep(
                    iscm=step.command.iscm, groups=tuple(groups)
                )
            )
        return PlanTemplate(steps=tuple(steps), inversions=tuple(inversions))

    def _plan_concrete(self, expr: Expression) -> Plan:
        self.n_plans += 1
        nnf = to_nnf(expr)
        plane = self._common_plane(nnf)

        xor_plan = self._try_plan_xor(nnf, plane)
        if xor_plan is not None:
            return xor_plan

        unit = self._try_unit(nnf)
        if unit is not None:
            step = SenseStep(unit.to_command(IscmFlags(inverse=unit.inverse)))
            return Plan(plane=plane, steps=(step,))

        if isinstance(nnf, And):
            return self._plan_conjunction(nnf, plane)
        if isinstance(nnf, Or):
            return self._plan_disjunction(nnf, plane)
        raise PlanningError(
            f"cannot map expression {nnf!r} onto MWS operations; "
            "consider storing operands inverted or co-locating them"
        )

    # ------------------------------------------------------------------
    # Literals and placement
    # ------------------------------------------------------------------

    def _as_literal(self, expr: Expression) -> _Literal | None:
        if isinstance(expr, Operand):
            return _Literal(expr.name, negated=False)
        if isinstance(expr, Not) and isinstance(expr.expr, Operand):
            return _Literal(expr.expr.name, negated=True)
        return None

    def _storage_positive(self, literal: _Literal) -> bool:
        """True when the stored page holds the literal's value."""
        stored = self.directory.lookup(literal.name)
        return literal.negated == stored.inverted

    def _address(self, literal: _Literal) -> WordlineAddress:
        return self.directory.lookup(literal.name).address

    def _common_plane(self, expr: Expression) -> int:
        planes = set()
        for name in sorted(operand_names(expr)):
            planes.add(self.directory.lookup(name).address.plane)
        if len(planes) != 1:
            raise PlanningError(
                "all operands of one expression must reside in one plane "
                f"(found planes {sorted(planes)}); MWS senses one plane's "
                "bitlines at a time"
            )
        return planes.pop()

    # ------------------------------------------------------------------
    # Direct-pattern matcher: OR over blocks of AND within block
    # ------------------------------------------------------------------

    def _try_direct_groups(
        self, expr: Expression
    ) -> dict[BlockAddress, tuple[int, ...]] | None:
        """Match ``expr`` against the single-sense shape with
        storage-positive literals.  Returns block -> wordlines, or
        None when the shape/placement does not fit."""
        conjuncts: list[Expression]
        if isinstance(expr, Or):
            conjuncts = list(expr.terms)
        else:
            conjuncts = [expr]

        groups: dict[BlockAddress, list[int]] = {}
        for conjunct in conjuncts:
            resolved = self._resolve_conjunct(conjunct)
            if resolved is None:
                return None
            block, wordlines = resolved
            if block in groups:
                # Two OR-terms in the same block would AND together.
                return None
            groups[block] = wordlines
        if len(groups) > self.block_limit:
            return None
        return {b: tuple(wls) for b, wls in groups.items()}

    def _resolve_conjunct(
        self, expr: Expression
    ) -> tuple[BlockAddress, list[int]] | None:
        """Resolve a literal or AND-of-literals into one block's
        wordline set (all literals storage-positive, one string)."""
        if isinstance(expr, And):
            literals = [self._as_literal(t) for t in expr.terms]
        else:
            literals = [self._as_literal(expr)]
        if any(lit is None for lit in literals):
            return None
        block: BlockAddress | None = None
        wordlines: list[int] = []
        for lit in literals:
            assert lit is not None
            if lit.name not in self.directory:
                raise KeyError(f"operand {lit.name!r} is not stored")
            if not self._storage_positive(lit):
                return None
            addr = self._address(lit)
            if block is None:
                block = addr.block_address
            elif addr.block_address != block:
                return None
            if addr.wordline in wordlines:
                return None
            wordlines.append(addr.wordline)
        assert block is not None
        return block, wordlines

    def _try_unit(self, expr: Expression) -> _SenseUnit | None:
        groups = self._try_direct_groups(expr)
        if groups is not None:
            return _SenseUnit(groups=groups, inverse=False)
        negated = to_nnf(Not(expr))
        groups = self._try_direct_groups(negated)
        if groups is not None:
            return _SenseUnit(groups=groups, inverse=True)
        return None

    # ------------------------------------------------------------------
    # Composite plans
    # ------------------------------------------------------------------

    def _conjunction_units(self, expr: And) -> list[_SenseUnit]:
        units: list[_SenseUnit] = []
        for term in expr.terms:
            unit = self._try_unit(term)
            if unit is not None:
                units.append(unit)
                continue
            # A wide AND of storage-positive literals may span several
            # blocks: split per block and AND-accumulate (Section 6.1,
            # "increasing the maximum number of operands for IFP").
            split = self._split_wide_and(term)
            if split is None:
                raise PlanningError(
                    f"term {term!r} is not computable in one sense; "
                    "store its operands in one string group, or store "
                    "their inverses for De Morgan evaluation"
                )
            units.extend(split)
        return units

    def _split_wide_and(self, expr: Expression) -> list[_SenseUnit] | None:
        if not isinstance(expr, And):
            return None
        per_block: dict[BlockAddress, list[int]] = {}
        for term in expr.terms:
            lit = self._as_literal(term)
            if lit is None or not self._storage_positive(lit):
                return None
            addr = self._address(lit)
            wordlines = per_block.setdefault(addr.block_address, [])
            if addr.wordline in wordlines:
                return None
            wordlines.append(addr.wordline)
        return [
            _SenseUnit(groups={block: tuple(wls)}, inverse=False)
            for block, wls in sorted(per_block.items())
        ]

    @staticmethod
    def _merge_direct_and_units(units: list[_SenseUnit]) -> list[_SenseUnit]:
        """Merge single-block direct units that share a block: their
        conjunction is one intra-block sense.  Multi-block (OR-shaped)
        and inverse units are left alone."""
        merged: dict[BlockAddress, list[int]] = {}
        out: list[_SenseUnit] = []
        for unit in units:
            if unit.inverse or unit.n_blocks != 1:
                out.append(unit)
                continue
            (block, wordlines), = unit.groups.items()
            bucket = merged.setdefault(block, [])
            for wl in wordlines:
                if wl not in bucket:  # AND is idempotent
                    bucket.append(wl)
        out.extend(
            _SenseUnit(groups={block: tuple(wls)}, inverse=False)
            for block, wls in sorted(merged.items())
        )
        return out

    def _merge_inverse_units(
        self, units: list[_SenseUnit]
    ) -> list[_SenseUnit]:
        """Merge block-disjoint inverse units of a conjunction:
        NOT(a) AND NOT(b) = NOT(a OR b), and the OR of the raw senses
        is one inter-block MWS when the blocks are distinct and within
        the power limit -- Figure 16's first command computes
        (C1+C3).(D2+D4) exactly this way."""
        out: list[_SenseUnit] = []
        pending: dict[BlockAddress, tuple[int, ...]] = {}
        for unit in units:
            if not unit.inverse:
                out.append(unit)
                continue
            disjoint = not (set(unit.groups) & set(pending))
            fits = len(pending) + len(unit.groups) <= self.block_limit
            if pending and not (disjoint and fits):
                out.append(_SenseUnit(groups=dict(pending), inverse=True))
                pending = {}
            pending.update(unit.groups)
        if pending:
            out.append(_SenseUnit(groups=dict(pending), inverse=True))
        return out

    def _plan_conjunction(self, expr: And, plane: int) -> Plan:
        units = self._merge_direct_and_units(self._conjunction_units(expr))
        units = self._merge_inverse_units(units)
        inverse_units = [u for u in units if u.inverse]
        direct_units = [u for u in units if not u.inverse]
        if len(inverse_units) > 1:
            raise PlanningError(
                "a conjunction can absorb at most one inverse-mode sense "
                "(inverse reads require S-latch initialization, which "
                "breaks AND accumulation; Figure 16). Store more operand "
                "groups inverted so their units become direct."
            )
        # Inverse unit first: later accumulating senses must be direct.
        ordered = inverse_units + direct_units
        steps = []
        for i, unit in enumerate(ordered):
            iscm = IscmFlags(
                inverse=unit.inverse,
                init_sense=(i == 0),
                init_cache=True,
                transfer=True,
            )
            steps.append(SenseStep(unit.to_command(iscm)))
        return Plan(plane=plane, steps=tuple(steps))

    def _disjunction_units(self, expr: Or) -> list[_SenseUnit]:
        units: list[_SenseUnit] = []
        pending_blocks: dict[BlockAddress, tuple[int, ...]] = {}
        # Storage-negative literals grouped per block: OR of inverse-
        # stored co-located operands is one inverse-mode intra-block
        # sense (Equation 3) -- the paper's preferred OR layout.
        negative_groups: dict[BlockAddress, list[int]] = {}

        def flush() -> None:
            nonlocal pending_blocks
            while pending_blocks:
                chunk = dict(
                    list(sorted(pending_blocks.items()))[: self.block_limit]
                )
                for key in chunk:
                    del pending_blocks[key]
                units.append(_SenseUnit(groups=chunk, inverse=False))

        for term in expr.terms:
            literal = self._as_literal(term)
            if literal is not None and not self._storage_positive(literal):
                addr = self._address(literal)
                bucket = negative_groups.setdefault(addr.block_address, [])
                if addr.wordline not in bucket:  # OR is idempotent
                    bucket.append(addr.wordline)
                continue
            resolved = self._resolve_conjunct(term)
            if resolved is not None:
                block, wordlines = resolved
                if block in pending_blocks:
                    flush()
                pending_blocks[block] = tuple(wordlines)
                if len(pending_blocks) == self.block_limit:
                    flush()
                continue
            unit = self._try_unit(term)
            if unit is None:
                raise PlanningError(
                    f"term {term!r} of a disjunction is not computable in "
                    "one sense; co-locate its operands or store inverses"
                )
            units.append(unit)
        flush()
        units.extend(
            _SenseUnit(groups={block: tuple(wls)}, inverse=True)
            for block, wls in sorted(negative_groups.items())
        )
        return units

    def _plan_disjunction(self, expr: Or, plane: int) -> Plan:
        units = self._disjunction_units(expr)
        steps = []
        for i, unit in enumerate(units):
            iscm = IscmFlags(
                inverse=unit.inverse,
                init_sense=True,  # OR accumulation re-inits the S-latch
                init_cache=(i == 0),
                transfer=True,
            )
            steps.append(SenseStep(unit.to_command(iscm)))
        return Plan(plane=plane, steps=tuple(steps))

    def _try_plan_xor(self, nnf: Expression, plane: int) -> Plan | None:
        """XOR/XNOR of two sensable halves via the latch XOR command
        (Section 6.1, Equation 2)."""
        invert = False
        expr = nnf
        if isinstance(expr, Not) and isinstance(expr.expr, Xor):
            invert = True
            expr = expr.expr
        if not isinstance(expr, Xor):
            return None
        left = self._try_unit(to_nnf(expr.left))
        right = self._try_unit(to_nnf(expr.right))
        if left is None or right is None:
            raise PlanningError(
                "XOR operands must each be computable in a single sense"
            )
        if invert:
            # XNOR: complement one input (Equation 2).
            right = _SenseUnit(groups=right.groups, inverse=not right.inverse)
        first = SenseStep(
            left.to_command(
                IscmFlags(
                    inverse=left.inverse,
                    init_sense=True,
                    init_cache=True,
                    transfer=True,
                )
            )
        )
        second = SenseStep(
            right.to_command(
                IscmFlags(
                    inverse=right.inverse,
                    init_sense=True,
                    init_cache=False,
                    transfer=False,
                )
            )
        )
        return Plan(plane=plane, steps=(first, second, XorStep(plane)))

