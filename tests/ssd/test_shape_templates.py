"""Templates are keyed on the operand-renamed shape.

``QueryEngine`` files a plan template under the expression's shape
(operands replaced by first-appearance slots) and each slot's class on
the planning chunk (its sub-block's rank among the query's distinct
sub-blocks, and its inversion flag).  A fresh expression of a known
shape binds the cached template through a slot-wise renaming instead
of planning.  The property: whatever the layout and whatever the
engine planned before, every chunk's bound plan is the plan the
planner makes for that chunk alone, and a query the planner rejects
fails with the planner's error.  Renamed copies of one expression meet
sub-blocks sorted the other way round; ``test_query_engine.py``'s
``test_slot_classes_separate_templates`` pins one such pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import (
    And,
    Not,
    Operand,
    Or,
    Xor,
    and_all,
    or_all,
    rename_operands,
)
from repro.core.planner import Planner, PlanningError
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import _ChunkDirectory

# A string group must hold every operand ``scenarios`` can put in it:
# each of the six names and its other-length twin in one group, plus
# two hand-moved chunks joining that group's chunk-0 string (14).
GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=64,
    subblocks_per_block=2,
    wordlines_per_string=16,
    page_size_bits=64,
)
NAMES = "abcdef"
GROUPS = (None, "g", "h", "k")


def expressions(names):
    operands = st.sampled_from(names).map(Operand)
    literals = operands | operands.map(Not)
    conjunctions = st.lists(literals, min_size=1, max_size=4).map(and_all)
    flat = st.one_of(
        st.lists(literals, min_size=2, max_size=6).map(and_all),
        st.lists(conjunctions, min_size=2, max_size=4).map(or_all),
        st.tuples(conjunctions, conjunctions).map(lambda lr: Xor(*lr)),
    )
    nested = st.recursive(
        operands,
        lambda kids: st.one_of(
            kids.map(Not),
            st.lists(kids, min_size=2, max_size=4).map(lambda t: And(*t)),
            st.lists(kids, min_size=2, max_size=4).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda lr: Xor(*lr)),
        ),
        max_leaves=6,
    )
    return st.one_of(flat, flat.map(Not), nested)


@st.composite
def scenarios(draw):
    """A small SSD whose vectors sit in random groups, polarities and
    (for a hand-moved chunk) planes, with vectors of other lengths
    written in between so sub-blocks need not sort alike on every
    chunk; and a stream of expressions, each followed by renamings."""
    n_chunks = draw(st.integers(1, 4))
    ssd = SmallSsd(n_chips=draw(st.integers(1, 3)), geometry=GEOMETRY)
    block_limit = draw(st.sampled_from([1, 2, 4]))
    for controller in ssd.controllers:
        controller.planner = Planner(
            controller.directory, block_limit=block_limit
        )
    page = GEOMETRY.page_size_bits
    names = NAMES[: draw(st.integers(2, len(NAMES)))]
    for name in names:
        if draw(st.booleans()):  # another length: not in any query
            length = draw(st.integers(1, n_chunks)) * page - 1
            ssd.write_vector(
                "z" + name,
                np.zeros(length, dtype=np.uint8),
                group=draw(st.sampled_from(GROUPS)),
            )
        ssd.write_vector(
            name,
            np.zeros(n_chunks * page, dtype=np.uint8),
            group=draw(st.sampled_from(GROUPS)),
            inverse=draw(st.booleans()),
        )
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(names))
        chunk = draw(st.integers(0, n_chunks - 1))
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(chunk)]
        controller.directory.unregister(f"{name}@{chunk}")
        controller.fc_write(
            f"{name}@{chunk}",
            np.zeros(page, dtype=np.uint8),
            group=draw(st.sampled_from((None, f"g#{chunk}", "moved"))),
            inverse=draw(st.booleans()),
            plane=draw(st.sampled_from([0, 0, 1])),
        )
    exprs = []
    for expr in draw(st.lists(expressions(names), min_size=1, max_size=3)):
        exprs.append(expr)
        for _ in range(draw(st.integers(0, 2))):
            order = draw(st.permutations(names))
            exprs.append(rename_operands(expr, dict(zip(names, order))))
    return ssd, n_chunks, exprs


def planned_alone(ssd, expr, n_chunks):
    """Each chunk's plan from a planner of its own, or the first
    chunk's planning error."""
    plans = []
    for chunk in range(n_chunks):
        controller = ssd.controllers[ssd.ftl.chip_of_chunk(chunk)]
        planner = Planner(
            _ChunkDirectory(controller, chunk),
            block_limit=controller.planner.block_limit,
        )
        try:
            plans.append(planner.plan(expr))
        except PlanningError as error:
            return None, error
    return plans, None


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_bound_plans_are_the_planners_plans(scenario):
    ssd, n_chunks, exprs = scenario
    engine = ssd.engine
    for expr in exprs:
        plans, error = planned_alone(ssd, expr, n_chunks)
        if error is not None:
            with pytest.raises(PlanningError) as raised:
                engine.prepare(expr)
            assert str(raised.value) == str(error)
            continue
        prepared = engine.prepare(expr)
        assert sorted(prepared.chunks) == list(range(n_chunks))
        for chunk, plan in zip(prepared.chunks, prepared.plans):
            assert plan == plans[chunk]

