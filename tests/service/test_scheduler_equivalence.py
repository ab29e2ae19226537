"""The heap-driven ``schedule_window`` emits exactly what the scan-based
reference (``tests/reference_control_path.py``) emits.

The order depends on float arithmetic (virtual finish times, remaining
chip work), so equal order on adversarial inputs -- tied deadlines,
tied priorities, tied weights, tied costs, duplicate plans across
queries and chips -- is also the proof that those floats are computed
on the same operands in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_control_path as reference
from repro.core.planner import Plan, XorStep
from repro.service.scheduler import POLICIES, QueryInfo, schedule_window
from repro.ssd.query_engine import ChunkTask

#: Few distinct values each, so ties are the common case.
DEADLINES = st.sampled_from([None, None, 100.0, 100.0, 250.0, 900.0])
PRIORITIES = st.integers(0, 2)
CLIENTS = st.sampled_from(["bmi", "ims", "kcs"])
WEIGHTS = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0])
COSTS = st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 1.0, 2.5, 7.7, 22.5])


def _plan(shape: int) -> Plan:
    """A fresh ``Plan`` object per call: equal shapes are equal by
    value but not identical, like two queries binding one template."""
    return Plan(plane=0, steps=(XorStep(plane=shape),))


@st.composite
def windows(draw):
    n_chips = draw(st.integers(1, 16))
    n_queries = draw(st.integers(1, 10))
    n_shapes = draw(st.integers(1, 5))
    info = {}
    for query in range(n_queries):
        if draw(st.integers(0, 7)) == 0:
            continue  # a query the caller gave no info for
        info[query] = QueryInfo(
            client=draw(CLIENTS),
            priority=draw(PRIORITIES),
            deadline_us=draw(DEADLINES),
            weight=draw(WEIGHTS),
        )
    tasks = [
        ChunkTask(
            query=draw(st.integers(0, n_queries - 1)),
            chunk=chunk,
            chip=draw(st.integers(0, n_chips - 1)),
            plan=_plan(draw(st.integers(0, n_shapes - 1))),
        )
        for chunk in range(draw(st.integers(0, 40)))
    ]
    costs = {
        (chip, shape): draw(COSTS)
        for chip in range(n_chips)
        for shape in range(n_shapes)
    }
    chips = st.sets(st.integers(0, n_chips - 1), max_size=3)
    return {
        "tasks": tasks,
        "costs": costs,
        "info": info if draw(st.booleans()) or info else None,
        "share": draw(st.booleans()),
        "degraded": draw(chips),
        "offline": draw(chips),
        "reconstruct": draw(st.booleans()),
        "degraded_slowdown": draw(st.sampled_from([1.0, 1.7, 3.0])),
        "gc_busy": draw(
            st.none()
            | st.dictionaries(
                st.integers(0, n_chips), st.sampled_from([0.0, 1.0, 40.0])
            )
        ),
    }


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=150, deadline=None)
@given(window=windows())
def test_emission_order_equals_reference(policy, window):
    tasks = window.pop("tasks")
    costs = window.pop("costs")

    def estimate(task: ChunkTask) -> float:
        return costs[(task.chip, task.plan.steps[0].plane)]

    ordered = schedule_window(tasks, estimate, policy=policy, **window)
    expected = reference.schedule_window(
        tasks, estimate, policy=policy, **window
    )
    assert len(ordered) == len(expected) == len(tasks)
    # The same task *objects* in the same order (tasks are unique by
    # chunk, so ``==`` alone would say as much; ``is`` says the
    # scheduler neither copies nor rebuilds them).
    assert all(got is want for got, want in zip(ordered, expected))


def test_fair_drain_accumulates_like_the_scan():
    """Three tenants whose virtual times only separate after several
    inexact additions (0.1 / 3.0 steps): the heap must carry the same
    running sums the scan accumulates."""
    info = {
        0: QueryInfo(client="a", weight=3.0),
        1: QueryInfo(client="b", weight=3.0),
        2: QueryInfo(client="c", weight=1.0),
    }
    tasks = [
        ChunkTask(query=chunk % 3, chunk=chunk, chip=0, plan=_plan(chunk))
        for chunk in range(60)
    ]

    def estimate(task: ChunkTask) -> float:
        return 0.1 if task.query < 2 else 1 / 30

    assert schedule_window(
        tasks, estimate, policy="edf", info=info
    ) == reference.schedule_window(tasks, estimate, policy="edf", info=info)
