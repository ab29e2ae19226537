"""Chips that run the same sense queue share one batch layout.

The FTL stripes a vector group at the same place on every chip, so a
fresh query's chunks share one plan and every chip's unique queue is
the same list of plan objects.  Each chip still drains at its own turn;
``QueryEngine._layout`` prepares each queue's batch layout once per
window and hands it to every chip whose queue is those plans.
Everything here is compared, ``==`` for floats, against
``reference_data_plane.chip_by_chip``: the drain in which every chip
prepares its own layout.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    assert_chips_equal,
    assert_outcomes_equal,
    chip_by_chip,
    drain,
    window_tasks,
)
from repro.core.expressions import And, Not, Operand, Or, and_all
from repro.core.mws import MwsExecutor
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.ssd.controller import SmallSsd

N_CHIPS = 8

#: Fresh shapes over one vector group, plus an inter-block OR: every
#: chip's unique queue holds the same three plans.
WINDOW = [
    and_all([Operand("a0"), Operand("a1"), Operand("a2")]),
    Not(And(Operand("a0"), Operand("a1"))),
    Or(And(Operand("a1"), Operand("a2")), Operand("solo")),
]


def _build(seed=7, capacity=4096, stack_reuse=True):
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=GEOMETRY, seed=seed)
    ssd.engine.stack_reuse = stack_reuse
    rng = np.random.default_rng(seed)
    n_bits = N_CHIPS * GEOMETRY.page_size_bits - 5
    for name in ("a0", "a1", "a2", "solo"):
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, bits, group=None if name == "solo" else "g")
    ssd.engine.enable_result_cache(capacity)
    return ssd


@contextmanager
def counting_layouts():
    """Count :meth:`MwsExecutor.layout` preparations."""
    calls = {"n": 0}
    layout = MwsExecutor.layout.__func__

    def counting(cls, plans):
        calls["n"] += 1
        return layout(cls, plans)

    with mock.patch.object(MwsExecutor, "layout", classmethod(counting)):
        yield calls


def assert_same_state(mine, theirs):
    """Chips (counters, read disturb, latch words), latch ``ops``,
    engine counters and the result cache: stats, and entries in LRU
    order."""
    assert_chips_equal(mine, theirs)
    for chip_a, chip_b in zip(mine.chips, theirs.chips):
        for plane, bank in chip_a.latches.items():
            assert bank.ops == chip_b.latches[plane].ops
    assert mine.engine.stats == theirs.engine.stats
    cache_a, cache_b = mine.engine.result_cache, theirs.engine.result_cache
    assert cache_a.stats == cache_b.stats
    # Entries are keyed per engine; their ``(chip, plan)`` compares.
    assert [e[2:] for e in cache_a._entries.values()] == [
        e[2:] for e in cache_b._entries.values()
    ]
    for (words, senses, *_), (words_b, senses_b, *_) in zip(
        cache_a._entries.values(), cache_b._entries.values()
    ):
        assert senses == senses_b
        np.testing.assert_array_equal(words, words_b)


def _twin_drains(window, *, mine_kwargs=(), **kwargs):
    """Drain ``window`` twice on twin SSDs -- the stripe and the
    reference -- then a repeat of it plus a new shape; returns both
    SSDs and the striped side's layout count for the first window."""
    mine, theirs = _build(**dict(mine_kwargs)), _build(**dict(mine_kwargs))
    with counting_layouts() as layouts:
        outcomes = drain(mine.engine, window_tasks(mine, window), **kwargs)
    prepared = layouts["n"]
    with chip_by_chip():
        reference = drain(
            theirs.engine, window_tasks(theirs, window), **kwargs
        )
    assert_outcomes_equal(outcomes, reference)
    assert_same_state(mine, theirs)
    again = [*window, Or(Operand("a0"), Operand("solo"))]
    outcomes = drain(mine.engine, window_tasks(mine, again), **kwargs)
    with chip_by_chip():
        reference = drain(theirs.engine, window_tasks(theirs, again), **kwargs)
    assert_outcomes_equal(outcomes, reference)
    assert_same_state(mine, theirs)
    return mine, theirs, prepared


def test_a_fresh_window_senses_as_one_stripe():
    mine, _, prepared = _twin_drains(WINDOW, use_cache=True)
    assert prepared == 1  # one stripe of eight chips
    stats = mine.engine.stats
    assert stats.executor_dispatches == 2 * N_CHIPS
    assert mine.engine.result_cache.stats.misses > 0


def test_one_query_on_eight_chips_prepares_one_layout():
    ssd = _build()
    with counting_layouts() as layouts:
        drain(ssd.engine, window_tasks(ssd, WINDOW[:1]), use_cache=True)
    assert layouts["n"] == 1


def test_a_cache_a_put_could_evict_from_prepares_one_layout():
    # 3 plans x 8 chips = 24 puts: a capacity of 20 evicts mid-window.
    _, _, prepared = _twin_drains(
        WINDOW, mine_kwargs={"capacity": 20}, use_cache=True
    )
    assert prepared == 1


def test_without_the_cache_the_plain_route_still_stripes():
    _, _, prepared = _twin_drains(
        WINDOW, mine_kwargs={"stack_reuse": False}, use_cache=False
    )
    assert prepared == 1


def _mismatch_esp(ssd, chip):
    """Give one wordline of the group another ESP effort on ``chip``:
    every sense over it fails resolution there."""
    controller = ssd.controllers[chip]
    chunk = next(
        c for c in range(N_CHIPS) if ssd.ftl.chip_of_chunk(c) == chip
    )
    address = controller.stored(f"a1@{chunk}").address
    block = ssd.chips[chip].plane_array.block(address.block_address)
    block.metadata[address.wordline].esp_extra = 0.5


def test_a_member_that_fails_resolution_raises_at_its_own_turn():
    victim = 5
    mine, theirs = _build(), _build()
    for ssd in (mine, theirs):
        _mismatch_esp(ssd, victim)
    with pytest.raises(ValueError, match="ESP") as raised:
        drain(mine.engine, window_tasks(mine, WINDOW), use_cache=True)
    with chip_by_chip(), pytest.raises(ValueError, match="ESP") as expected:
        drain(theirs.engine, window_tasks(theirs, WINDOW), use_cache=True)
    assert str(raised.value) == str(expected.value)
    # The chips before the victim published, the ones after it never
    # drained: exactly the reference's state.
    assert_same_state(mine, theirs)
    assert mine.chips[victim + 1].counters.senses == 0
    assert mine.engine.result_cache.stats.entries == victim * 3


def test_a_degraded_chip_takes_margin_reads_outside_the_stripe():
    degraded = {3}
    policy = RecoveryPolicy(degraded_extra_senses=1)
    chips = []
    walk = MwsExecutor.execute_degraded

    def counting(self, plan, **kwargs):
        chips.append(self.chip)
        return walk(self, plan, **kwargs)

    with mock.patch.object(MwsExecutor, "execute_degraded", counting):
        mine, theirs, prepared = _twin_drains(
            WINDOW, use_cache=True, recovery=policy, degraded=degraded
        )
    # One stripe of seven; chip 3 walks, one margin read per unique
    # plan: three in the first window, and in the second the one new
    # shape (the result cache serves its repeats), on both sides.
    assert prepared == 1
    ours, reference = mine.chips[3], theirs.chips[3]
    assert chips == [ours] * 3 + [reference] * 3 + [ours, reference]


def test_a_window_with_an_active_injector_prepares_one_layout():
    mine, theirs = _build(), _build()
    for ssd in (mine, theirs):
        ssd.attach_fault_injector(
            FaultInjector(FaultConfig(stall_rate=0.5, seed=3))
        )
    assert mine.fault_injector.active
    with counting_layouts() as layouts:
        outcomes = drain(
            mine.engine, window_tasks(mine, WINDOW), use_cache=True
        )
    with chip_by_chip():
        reference = drain(
            theirs.engine, window_tasks(theirs, WINDOW), use_cache=True
        )
    assert layouts["n"] == 1
    assert_outcomes_equal(outcomes, reference)
    assert_same_state(mine, theirs)


def test_the_retry_route_shares_layouts_across_chips():
    """Under a recovery policy each chip draws its attempt schedule and
    splits its queue at every plan whose attempts all faulted; chips
    whose batches hold the same plans share one layout."""
    mine, theirs = _build(), _build()
    for ssd in (mine, theirs):
        ssd.attach_fault_injector(
            FaultInjector(
                FaultConfig(sense_fault_rate=0.5, stall_rate=0.5, seed=3)
            )
        )
    policy = RecoveryPolicy()
    with counting_layouts() as layouts:
        outcomes = drain(
            mine.engine,
            window_tasks(mine, WINDOW),
            use_cache=True,
            recovery=policy,
        )
    with chip_by_chip():
        reference = drain(
            theirs.engine,
            window_tasks(theirs, WINDOW),
            use_cache=True,
            recovery=policy,
        )
    assert_outcomes_equal(outcomes, reference)
    assert_same_state(mine, theirs)
    # Some plan exhausted its retries and split its chip's queue, yet
    # the chips prepared fewer layouts than there are chips.
    retries = [getattr(outcome, "retries", 0) for outcome in outcomes]
    assert policy.max_retries in retries
    assert layouts["n"] < N_CHIPS
