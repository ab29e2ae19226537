"""A one-sense plan's result is its sensed row.

An MWS command that initialises both latches and transfers, without
inverse sensing, leaves the sensed page itself in the C-latch.  The
batched drain therefore hands a lane group of such plans their payload
rows as they stand (``MwsExecutor._replay_latches``) and lands the
queue's last one through ``LatchBank.land``.  These tests hold that
identity path to the general ``LatchBank.capture_batch`` replay, and a
stripe of chips to one resolution per (command, member).
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_data_plane import (
    GEOMETRY,
    drain,
    tasks_of,
    twin_expressions,
)
from repro.core.expressions import And, Operand, and_all
from repro.core.mws import MwsExecutor
from repro.flash.chip import NandFlashChip
from repro.ssd.controller import SmallSsd


def _ssd(page_bits: int, seed: int, n_chips: int = 1) -> SmallSsd:
    """The twin suites' operands (``a0``..``a2`` in one string group,
    ``inv`` stored inverted, ``solo`` alone) over two chunks a chip."""
    ssd = SmallSsd(
        n_chips=n_chips,
        geometry=replace(GEOMETRY, page_size_bits=page_bits),
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    n_bits = 2 * n_chips * page_bits - 3
    for name in ("a0", "a1", "a2", "inv", "solo"):
        ssd.write_vector(
            name,
            rng.integers(0, 2, n_bits, dtype=np.uint8),
            group={"solo": None, "inv": "h"}.get(name, "g"),
            inverse=name == "inv",
        )
    return ssd


def _latches(chip) -> list:
    """Every bank's raw S/C words and op count."""
    return [
        (bank._sense, bank._cache, bank.ops)
        for _, bank in sorted(chip.latches.items())
    ]


def test_plain_plan_returns_its_sensed_row():
    """No copy: the result words are a view of the payload the chip's
    batched sense returned."""
    ssd = _ssd(80, seed=3)
    chip = ssd.chips[0]
    plan = ssd.engine.prepare(And(Operand("a0"), Operand("a1"))).plans[0]
    payloads = []
    sense = chip.execute_sense_batch

    def keeping(*args):
        payloads.append(sense(*args))
        return payloads[-1]

    with mock.patch.object(chip, "execute_sense_batch", keeping):
        (result,) = ssd.controllers[0].executor.execute_batch([plan])
    assert result.n_senses == 1
    assert np.shares_memory(result.words, payloads[0])
    np.testing.assert_array_equal(
        result.words, chip.latches[plan.plane].cache_words
    )


@settings(max_examples=25, deadline=None)
@given(
    page_bits=st.sampled_from((80, 128)),
    seed=st.integers(0, 2**16),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=10),
)
def test_identity_lanes_match_the_capture_replay(page_bits, seed, picks):
    """The same queue -- plain plans mixed with inverse, OR-of-AND and
    XOR ones, repeats allowed -- through the identity lane groups and,
    on a twin, with every group replayed by ``capture_batch``: equal
    result rows, per-plan costs, landed S/C words and latch ops."""
    expressions = twin_expressions()
    window = [expressions[i] for i in picks]
    runs = []
    for identity in (True, False):
        ssd = _ssd(page_bits, seed)
        plans = [ssd.engine.prepare(expr).plans[0] for expr in window]
        layout = MwsExecutor.layout(plans)
        plain = [group for group in layout.groups if group[1] is None]
        if not identity:  # the plain groups as general ones
            layout = layout._replace(
                groups=[
                    group
                    if group[1] is not None
                    else (
                        group[0],
                        layout.infos[group[3][0]][1],
                        [np.asarray(group[2])],
                        *group[3:],
                    )
                    for group in layout.groups
                ]
            )
        results = ssd.controllers[0].executor.execute_batch(layout)
        runs.append((results, _latches(ssd.chips[0]), ssd.chips[0], plain))
    (mine, banks, chip, plain), (theirs, their_banks, their_chip, _) = runs
    if {0, 7} & set(picks):  # a one-block AND is one plain sense
        assert plain
    for a, b in zip(mine, theirs):
        np.testing.assert_array_equal(a.words, b.words)
        assert (a.n_senses, a.latency_us, a.energy_nj) == (
            b.n_senses,
            b.latency_us,
            b.energy_nj,
        )
    for (sense, cache, ops), (their_sense, their_cache, their_ops) in zip(
        banks, their_banks
    ):
        np.testing.assert_array_equal(sense, their_sense)
        np.testing.assert_array_equal(cache, their_cache)
        assert ops == their_ops
    assert chip.counters == their_chip.counters


def test_stripe_resolves_each_command_once_per_member():
    """An 8-chip stripe of a fresh AND: every member's batch senses
    from the resolution the stripe made, so each (command, chip) pair
    is resolved once a window."""
    ssd = _ssd(80, seed=5, n_chips=8)
    ssd.engine.enable_result_cache()
    expr = and_all([Operand("a0"), Operand("a1"), Operand("a2")])
    tasks = tasks_of(ssd.engine.prepare(expr), 0)
    calls = Counter()
    layouts = []
    resolve = NandFlashChip.resolve
    layout = MwsExecutor.layout.__func__

    def counting(chip, command):
        calls[chip, command] += 1
        return resolve(chip, command)

    def preparing(cls, plans):
        layouts.append(plans)
        return layout(cls, plans)

    with mock.patch.object(
        NandFlashChip, "resolve", counting
    ), mock.patch.object(MwsExecutor, "layout", classmethod(preparing)):
        drain(ssd.engine, tasks, use_cache=True)
    commands = {command for _, command in calls}
    assert len(layouts) == 1  # one stripe of eight chips
    assert len(calls) == 8 * len(commands)
    assert set(calls.values()) == {1}
