"""A striped query binds once per distinct chunk layout.

The FTL stripes a vector group at the same place on every chip, so the
chunks of a query over it bind to one plan value.  ``QueryEngine``
binds that value once and lets every chunk placed alike share the
object; a chunk whose operands moved (GC, a drain) binds its own.  The
memos a shared plan carries are kept per chip (the resolution memo) or
per timing parameters (the latency estimate), so sharing never makes
one chip's entry evict another's.
"""

import numpy as np
import pytest

import repro.flash.chip as chip_module
import repro.core.mws as mws_module
from reference_data_plane import GEOMETRY
from repro.core.expressions import And, Operand, and_all, evaluate
from repro.core.planner import PlanTemplate
from repro.flash.chip import NandFlashChip
from repro.flash.timing import TimingModel, TimingParameters
from repro.ssd.controller import SmallSsd

N_CHIPS = 8


def _build(seed=3, n_chunks=N_CHIPS, names="abcd"):
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed)
    n_bits = n_chunks * GEOMETRY.page_size_bits - 3
    env = {n: rng.integers(0, 2, n_bits, dtype=np.uint8) for n in names}
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    return ssd, env


def _count_binds(monkeypatch):
    calls = {"n": 0}
    bind = PlanTemplate.bind

    def counting(self, directory):
        calls["n"] += 1
        return bind(self, directory)

    monkeypatch.setattr(PlanTemplate, "bind", counting)
    return calls


def _distinct(plans):
    return {id(plan): plan for plan in plans}


def _query_exact(ssd, expr, env):
    np.testing.assert_array_equal(ssd.query(expr).bits, evaluate(expr, env))


def test_fresh_striped_query_binds_once(monkeypatch):
    ssd, env = _build()
    expr = and_all([Operand(name) for name in "abcd"])
    binds = _count_binds(monkeypatch)
    prepared = ssd.engine.prepare(expr)
    assert binds["n"] == 1
    assert len(prepared.plans) == N_CHIPS
    assert len(_distinct(prepared.plans)) == 1
    assert sorted(prepared.chips) == list(range(N_CHIPS))
    stats = ssd.engine.stats
    assert (stats.planner_invocations, stats.bind_fallbacks) == (1, 0)
    _query_exact(ssd, expr, env)


def _gc_one_chip(ssd, chip):
    """Dead pages everywhere, collected on one chip only: that chip's
    survivors (the group's operands) move to a fresh block."""
    dead = np.zeros(N_CHIPS * GEOMETRY.page_size_bits, dtype=np.uint8)
    ssd.write_vector("dead", dead, group="g")
    ssd.delete_vector("dead")
    assert ssd.maintenance().collect(chip)


def _drain_one_chip(ssd, chip):
    """A probation drain: the chip's chunk column moves whole to
    another chip, under another placement."""
    ssd.maintenance().drain_chip(chip)
    assert chip not in map(ssd.ftl.chip_of_chunk, range(N_CHIPS))


@pytest.mark.parametrize("move", [_gc_one_chip, _drain_one_chip])
def test_a_moved_chunk_binds_its_own_plan(move, monkeypatch):
    ssd, env = _build(names="abc")
    expr = and_all([Operand(name) for name in "abc"])
    before = ssd.engine.prepare(expr)
    assert len(_distinct(before.plans)) == 1
    _query_exact(ssd, expr, env)
    moved_chip = 5
    moved_chunk = before.chunks[before.chips.index(moved_chip)]
    move(ssd, moved_chip)
    binds = _count_binds(monkeypatch)
    after = ssd.engine.prepare(expr)
    assert binds["n"] == 2
    assert ssd.engine.stats.bind_fallbacks == 0
    plans = dict(zip(after.chunks, after.plans))
    own = plans.pop(moved_chunk)
    (shared,) = _distinct(plans.values()).values()
    assert own is not shared and own != shared
    assert shared == before.plans[0]  # the others did not move
    _query_exact(ssd, expr, env)


def _shared_plan(ssd):
    prepared = ssd.engine.prepare(And(Operand("a"), Operand("b")))
    (plan,) = _distinct(prepared.plans).values()
    return prepared, plan


def test_a_shared_plan_resolves_once_per_chip(monkeypatch):
    """Executed alternately on two chips, a shared plan's commands
    resolve once on each: neither chip's memo entry evicts the
    other's.  The chip half of a resolution looks up each target
    block once (``_target_block``)."""
    ssd, env = _build(names="ab")
    prepared, plan = _shared_plan(ssd)
    resolves = {"n": 0}
    resolve = NandFlashChip._target_block

    def counting(self, address):
        resolves["n"] += 1
        return resolve(self, address)

    monkeypatch.setattr(NandFlashChip, "_target_block", counting)
    expected = evaluate(And(Operand("a"), Operand("b")), env)
    page = GEOMETRY.page_size_bits
    for _ in range(3):
        for chip in (2, 6):
            (result,) = ssd.controllers[chip].executor.execute_batch([plan])
            chunk = prepared.chunks[prepared.chips.index(chip)]
            np.testing.assert_array_equal(
                result.bits, expected[chunk * page : (chunk + 1) * page]
            )
    commands = [step.command for step in plan.sense_steps]
    assert resolves["n"] == 2 * sum(len(c.targets) for c in commands)
    for command in (step.command for step in plan.sense_steps):
        assert set(command._resolved) == {ssd.chips[2], ssd.chips[6]}


def test_eight_chips_share_one_resolution_half(monkeypatch):
    """A command resolved on eight chips validates its targets and
    builds its row arrays once: every chip's ``_resolved`` entry holds
    only its own half (token, blocks, layout versions) over the same
    row-array objects."""
    ssd, _ = _build(names="ab")
    _, plan = _shared_plan(ssd)
    builds = {"n": 0}
    validate = chip_module.validate_targets

    def counting(targets, geometry):
        builds["n"] += 1
        return validate(targets, geometry)

    monkeypatch.setattr(chip_module, "validate_targets", counting)
    for controller in ssd.controllers:
        controller.executor.execute_batch([plan])
    commands = [step.command for step in plan.sense_steps]
    assert builds["n"] == len(commands)
    for command in commands:
        _, rows, profile = command._rows
        entries = [command._resolved[chip] for chip in ssd.chips]
        for chip, (token, source, versions) in zip(ssd.chips, entries):
            assert token is chip._resolve_token
            assert len(source) == len(rows) == len(profile)
            assert all(r is shared for (_, r), shared in zip(source, rows))
            assert versions == tuple(b.layout_version for b, _ in source)
        # Each chip's half names its own blocks.
        assert len({id(source[0][0]) for _, source, _ in entries}) == N_CHIPS
    assert builds["n"] == len(commands)


def test_estimate_walks_once_per_timing_parameters(monkeypatch):
    """Chips with equal (frozen) timing parameters share one tMWS walk
    of a shared plan; a chip given other parameters gets its own."""
    ssd, _ = _build(names="ab")
    _, plan = _shared_plan(ssd)
    walks = {"n": 0}
    batch_info = mws_module._batch_info

    def counting(plan_):
        walks["n"] += 1
        return batch_info(plan_)

    monkeypatch.setattr(mws_module, "_batch_info", counting)
    executors = [controller.executor for controller in ssd.controllers]
    assert len({id(executor.timing) for executor in executors}) == N_CHIPS
    estimates = {executor.estimate_latency_us(plan) for executor in executors}
    assert walks["n"] == 1 and len(estimates) == 1
    slow = executors[4]
    slow.timing = TimingModel(TimingParameters(t_read_slc_us=30.0))
    own = slow.estimate_latency_us(plan)
    assert walks["n"] == 2
    assert own > estimates.pop()
    assert slow.estimate_latency_us(plan) == own
    assert executors[0].estimate_latency_us(plan) < own
    assert walks["n"] == 2
