"""Test-only oracles for the one data plane.

Production carries packed words from sense to host and drains every
queue that has a batched equivalent as one batch.  The suites still
compare against the two references that used to be switches:

* :func:`forced_walk` -- every queue walks its plans one by one through
  ``MwsExecutor.execute`` (``execute_degraded`` on a degraded chip),
  the reference semantics the batch is property-tested against.  It
  patches ``MwsExecutor.batchable`` to say no, so the drain takes the
  very route production takes for a queue with no batched equivalent.
* :func:`chip_by_chip` -- no stripe: every chip's batched queue runs
  at its own turn, the drain before chips running the same queue
  shared one prepared layout.
* :func:`vth_query` -- ``ssd.query(expr)`` with every sense evaluated
  through the per-cell V_TH comparison (``force_vth``), the way the
  retired one-byte-per-bit plane sensed.  On an error-free chip it
  must agree with the packed word reduce bit for bit and charge the
  same senses at the same modelled cost.

The twin-SSD suites also share their geometry (:data:`GEOMETRY`) and
how they tell two drains apart (:func:`assert_outcomes_equal`,
:func:`assert_chips_equal`, every comparison ``==``).

Production hands a window to ``QueryEngine.execute_tasks`` as task
columns and gets per position either cache-served words or an
outcome.  The suites speak in task lists: :func:`tasks_of` and
:func:`window_tasks` build the records, and :func:`drain` runs a list
and hands back one entry per task -- its ``ChunkOutcome``, or a
:class:`Hit` for a task the result cache served.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import NamedTuple
from unittest import mock

import numpy as np

from repro.core.expressions import And, Not, Operand, Xor, and_all, or_all
from repro.core.mws import MwsExecutor
from repro.flash.geometry import ChipGeometry
from repro.flash.latches import LatchStateError
from repro.ssd.controller import QueryResult, SmallSsd
from repro.ssd.query_engine import (
    ChunkTask,
    QueryEngine,
    TaskColumns,
    _SenseRecord,
)

#: 80-bit pages: not a multiple of 64, so every packed page carries 48
#: padding bits -- the representation's trickiest configuration.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)


@contextmanager
def forced_walk():
    """Within the block no queue batches: every drain walks."""
    with mock.patch.object(
        MwsExecutor, "batchable", lambda self, plans: False
    ):
        yield


def _sense_own_queue(engine, window, index, plans):
    executor = engine.ssd.controllers[window.chips[index][0]].executor
    return [
        _SenseRecord(
            r.words, r.n_senses, r.latency_us, r.energy_nj, 0, 0.0, False, None
        )
        for r in executor.execute_batch(plans)
    ]


@contextmanager
def chip_by_chip():
    """Within the block no stripe forms: each chip's unique queue on
    the plain batched route runs through ``MwsExecutor.execute_batch``
    at that chip's own turn, and no chip is read ahead."""
    with mock.patch.object(QueryEngine, "_sense_stripe", _sense_own_queue):
        yield


def route(batched: bool):
    """The production drain when ``batched``, else :func:`forced_walk`."""
    return nullcontext() if batched else forced_walk()


class Hit(NamedTuple):
    """A task the result cache served: no outcome, just its words."""

    task: ChunkTask
    data: np.ndarray


def tasks_of(prepared, query: int) -> list[ChunkTask]:
    """A prepared query's chunk tasks as records, attributed to
    ``query``, in the order its columns hold them."""
    return [
        ChunkTask(query, chunk, chip, plan, prepared.expr)
        for chunk, chip, plan in zip(
            prepared.chunks, prepared.chips, prepared.plans
        )
    ]


def columns(tasks) -> TaskColumns:
    """A list of chunk tasks as the columns the engine drains."""
    return TaskColumns(*map(list, zip(*tasks)))


def drain(engine, tasks, **kwargs) -> list:
    """``engine.execute_tasks`` over a list of chunk tasks; one entry
    per task, in task order: its ``ChunkOutcome``, or a :class:`Hit`."""
    result = engine.execute_tasks(columns(tasks), **kwargs)
    return [
        Hit(task, words) if outcome is None else outcome
        for task, words, outcome in zip(tasks, result.cached, result.outcomes)
    ]


def walk_tasks(engine, tasks, **kwargs):
    """:func:`drain` on the forced walk."""
    with forced_walk():
        return drain(engine, tasks, **kwargs)


def vth_query(ssd, expr) -> QueryResult:
    """Evaluate ``expr`` chunk by chunk through the V_TH comparison:
    each bound plan walks ``MwsExecutor.execute_degraded`` with no
    margin-read ladder, so it is charged exactly what the packed walk
    is charged."""
    prepared = ssd.engine.prepare(expr)
    pieces = [None] * prepared.n_chunks
    busy: dict[int, float] = {}
    n_senses = energy_nj = 0
    for task in tasks_of(prepared, 0):
        executor = ssd.controllers[task.chip].executor
        result = executor.execute_degraded(task.plan)
        pieces[task.chunk] = result.words
        n_senses += result.n_senses
        energy_nj += result.energy_nj
        busy[task.chip] = busy.get(task.chip, 0.0) + result.latency_us
    return query_result(
        ssd,
        prepared,
        pieces,
        n_senses=n_senses,
        latency_us=max(busy.values(), default=0.0),
        energy_nj=energy_nj,
    )


def query_result(
    ssd, prepared, pieces, *, n_senses=0, latency_us=0.0, energy_nj=0.0
) -> QueryResult:
    """The ``QueryResult`` a query served from ``pieces`` (its chunk
    result words, in chunk order) gets."""
    return QueryResult(
        words=ssd.engine.assemble_bits(pieces),
        page_bits=ssd.page_bits,
        n_bits=prepared.n_bits,
        n_senses=n_senses,
        latency_us=latency_us,
        energy_nj=energy_nj,
    )


def twin_ssd(
    data_seed, *, n_chips, n_bits, ssd_seed, inverted=True, **ssd_kwargs
):
    """One SSD of the twin suites and its oracle environment, the same
    for the same seeds: ``a0``..``a2`` co-located in string group
    ``g``, ``inv`` stored inverted in group ``h`` (unless not
    ``inverted``) and ``solo`` in a block of its own."""
    rng = np.random.default_rng(data_seed)
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=ssd_seed, **ssd_kwargs
    )
    env = {}
    for i in range(3):
        env[f"a{i}"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(f"a{i}", env[f"a{i}"], group="g")
    if inverted:
        env["inv"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector("inv", env["inv"], group="h", inverse=True)
    env["solo"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
    ssd.write_vector("solo", env["solo"])
    return ssd, env


def twin_expressions() -> list:
    """Every planner shape the batch plane must reproduce over a
    :func:`twin_ssd`: direct AND accumulation, inverse senses (Not),
    inter-block OR, OR-of-AND, inverse-unit-first conjunctions, and
    the latch XOR command."""
    a0, a1, a2 = Operand("a0"), Operand("a1"), Operand("a2")
    inv, solo = Operand("inv"), Operand("solo")
    return [
        and_all([a0, a1, a2]),  # intra-block MWS
        Not(And(a0, a1)),  # inverse sense
        or_all([And(a0, a1), solo]),  # OR-of-AND (Equation 1)
        or_all([inv, solo]),  # inverse unit + direct unit
        And(or_all([inv]), a0),  # inverse-first conjunction
        Xor(a0, solo),  # latch XOR command
        Not(Xor(a1, solo)),  # XNOR (inverse second half)
        And(a0, a1),  # repeated light shape
    ]


def window_tasks(ssd, window) -> list:
    """The chunk tasks of a window of expressions, query by query."""
    return [
        task
        for query, expr in enumerate(window)
        for task in tasks_of(ssd.engine.prepare(expr), query)
    ]


def assembled(ssd, window, outcomes) -> list:
    """Each query's result bits, assembled from a window's outcomes."""
    results = []
    for query, expr in enumerate(window):
        prepared = ssd.engine.prepare(expr)
        pieces = [None] * prepared.n_chunks
        for outcome in outcomes:
            if outcome.task.query == query:
                pieces[outcome.task.chunk] = outcome.data
        results.append(query_result(ssd, prepared, pieces).bits)
    return results


def assert_outcomes_equal(mine, theirs) -> None:
    """Every ``ChunkOutcome`` field equal (a :class:`Hit` only to a
    hit): the data by value, the error by type."""
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert type(a) is type(b)
        assert a.task == b.task
        assert (a.data is None) == (b.data is None)
        if a.data is not None:
            np.testing.assert_array_equal(a.data, b.data)
        if isinstance(a, Hit):
            continue
        assert a[2:9] == b[2:9]  # n_senses .. degraded
        assert type(a.error) is type(b.error)
        assert a[10:] == b[10:]  # reconstructed, recovery_work, leader


def latch_words(bank) -> list:
    """(C-latch, S-latch) words; ``None`` for a latch never loaded."""
    out = []
    for name in ("cache_words", "sense_words"):
        try:
            out.append(getattr(bank, name))
        except LatchStateError:
            out.append(None)
    return out


def assert_chips_equal(mine, theirs) -> None:
    """Chip by chip: the counters, the sensing RNG state (the draw
    schedule is part of the contract), per-block read disturb and the
    latch banks' landing state."""
    for chip_a, chip_b in zip(mine.chips, theirs.chips):
        assert chip_a.counters == chip_b.counters
        assert (
            chip_a.sensing.rng.bit_generator.state
            == chip_b.sensing.rng.bit_generator.state
        )
        reads = [
            {a: b.reads_since_erase for a, b in c.plane_array._blocks.items()}
            for c in (chip_a, chip_b)
        ]
        assert reads[0] == reads[1]
        for plane, bank in chip_a.latches.items():
            for a, b in zip(
                latch_words(bank), latch_words(chip_b.latches[plane])
            ):
                np.testing.assert_array_equal(a, b)
