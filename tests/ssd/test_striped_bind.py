"""A striped query binds once per distinct chunk layout.

The FTL stripes a vector group at the same place on every chip, so the
chunks of a query over it bind to one plan value.  ``QueryEngine``
binds that value once and lets every chunk placed alike share the
object; a chunk whose operands moved (GC, a drain) binds its own.  The
memos a shared plan carries are kept per chip (the resolution memo,
and the latency estimate under its per-chip key), so sharing never
makes one chip's entry evict another's.
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
    builds its address rows once: the shared half ``(geometry,
    profile, address rows)`` is one object every chip's resolution
    hands back, and every chip's ``_resolved`` entry holds only its own
    half (token, blocks, layout versions), naming its own blocks,
    whose rows those address rows find in that chip's slab."""
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
        shared = command._rows
        _, profile, rows = shared
        assert profile == tuple(len(w) for _, w in command.targets)
        assert len(rows) == sum(profile) and not rows.flags.writeable
        entries = [command._resolved[chip] for chip in ssd.chips]
        for chip, (token, blocks, versions) in zip(ssd.chips, entries):
            assert token is chip._resolve_token
            assert chip.resolve(command) == (blocks, shared)
            assert chip.resolve(command)[1] is shared
            assert all(
                block is chip.plane_array.block(address)
                for block, (address, _) in zip(blocks, command.targets)
            )
            assert versions == tuple(b.layout_version for b in blocks)
            np.testing.assert_array_equal(
                chip.plane_array.gather(rows),
                np.concatenate(
                    [
                        block.packed_rows(sorted(wordlines))
                        for block, (_, wordlines) in zip(
                            blocks, command.targets
                        )
                    ]
                ),
            )
        # Each chip's half names its own blocks.
        assert len({id(blocks[0]) for _, blocks, _ in entries}) == N_CHIPS
    assert builds["n"] == len(commands)


def test_a_run_estimates_each_chip_key_once(monkeypatch):
    """The scheduler reads a bucket's estimate through the run's
    per-key memo: a service run asks each chip's executor once per
    ``(chip, plan)`` key however many windows schedule it, and a chip
    given other timing parameters prices the shared plan by its own."""
    ssd, env = _build(names="ab")
    expr = And(Operand("a"), Operand("b"))
    slow = ssd.controllers[4].executor
    slow.timing = TimingModel(TimingParameters(t_read_slc_us=30.0))
    asked = {}
    estimate = mws_module.MwsExecutor.estimate_latency_us

    def counting(self, plan_):
        asked.setdefault(self, []).append(estimate(self, plan_))
        return asked[self][-1]

    monkeypatch.setattr(
        mws_module.MwsExecutor, "estimate_latency_us", counting
    )
    service = ssd.service(window_us=50.0, policy="balanced")
    for window in range(3):
        service.submit(expr, at_us=100.0 * window)
    report = service.run()
    assert report.stats.n_windows == 3
    assert asked.keys() == {c.executor for c in ssd.controllers}
    assert all(len(answers) == 1 for answers in asked.values())
    (own,) = asked.pop(slow)
    (shared,) = {answer for (answer,) in asked.values()}
    assert own > shared
    for query in report.queries:
        np.testing.assert_array_equal(query.result.bits, evaluate(expr, env))
