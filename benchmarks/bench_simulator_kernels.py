"""Throughput of the reproduction's own kernels.

Unlike the figure benches (which regenerate the paper's numbers),
these measure the *library's* hot paths with pytest-benchmark proper
(many rounds): functional MWS sensing, ParaBit serial sensing,
randomization, the SSD timeline simulator, the event
sweep fed as a service feeds it, binding a striped query, preparing
fresh queries of one shape, draining it as one stripe of chips, and
one chip's batch of fresh plain plans.  Useful for tracking
performance regressions of the simulator itself.
"""

import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.api import FlashCosmos
from repro.core.expressions import Operand, and_all, evaluate
from repro.core.mws import MwsExecutor
from repro.core.parabit import ParaBit
from repro.core.planner import Planner, PlanTemplate
from repro.flash.chip import NandFlashChip
from repro.flash.geometry import ChipGeometry
from repro.flash.randomizer import LfsrRandomizer
from repro.ssd.config import fig7_config
from repro.ssd.controller import SmallSsd
from repro.ssd.events import StageJob, StageSweep, simulate_stages
from repro.ssd.pipeline import DataflowSpec, PipelineModel, Platform

# The test suites' reference drains live beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_data_plane import (  # noqa: E402
    assert_chips_equal,
    assert_outcomes_equal,
    chip_by_chip,
    drain,
    tasks_of,
)

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=1,
    wordlines_per_string=48,
    page_size_bits=4096,
)


def _loaded_chip(seed=1):
    chip = NandFlashChip(GEOMETRY, inject_errors=True, seed=seed)
    fc = FlashCosmos(chip)
    rng = np.random.default_rng(seed)
    addresses = []
    for i in range(32):
        page = rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)
        addresses.append(fc.fc_write(f"v{i}", page, group="g").address)
    return chip, fc, addresses


def test_kernel_mws_sense(benchmark):
    """One 32-operand intra-block MWS on 4-Kib pages."""
    _, fc, _ = _loaded_chip()
    expr = and_all([Operand(f"v{i}") for i in range(32)])
    plan = fc.plan(expr)
    result = benchmark(fc.executor.execute, plan)
    assert result.n_senses == 1


def test_kernel_parabit_and(benchmark):
    """The same AND via ParaBit's 32 serial senses."""
    chip, _, addresses = _loaded_chip(seed=2)
    pb = ParaBit(chip)
    result = benchmark(pb.bitwise_and, addresses)
    assert result.n_senses == 32


def test_kernel_randomizer(benchmark):
    """16-KiB page randomization (keystream cached)."""
    r = LfsrRandomizer()
    page = np.zeros(16 * 1024 * 8, dtype=np.uint8)
    r.randomize(page, 7)  # warm the keystream cache
    out = benchmark(r.randomize, page, 7)
    assert out.size == page.size


def test_kernel_timeline_simulator(benchmark):
    """The Figure 7 OSP timeline (168 pipelined jobs)."""
    model = PipelineModel(fig7_config())
    spec = DataflowSpec(
        n_operands=3,
        result_bytes=1024 * 1024,
        fc_senses_per_chunk=1,
        pb_senses_per_chunk=3,
    )
    timing = benchmark(model.evaluate, Platform.OSP, spec)
    assert timing.makespan_us > 400


def _edf_windows(n_windows=200, per_window=100, seed=4):
    """A service-shaped ``edf`` stream of 20k jobs: 200 admission
    windows 400 us apart, each job die -> channel -> external link on
    8 dies and 2 channels, ready at its window's close, a third of
    them under a deadline and priorities mixed.  Half are cache hits,
    zero die seconds, one job object per (urgency, chip) of a window
    as the service lists one row per (query, chip): the sweep carries
    their channel stages straight on."""
    rng = np.random.default_rng(seed)
    windows = []
    for w in range(n_windows):
        ready = (w + 1) * 400e-6
        window = []
        hits = {}
        for _ in range(per_window):
            chip = int(rng.integers(8))
            urgency = {
                "priority": float(rng.integers(3)),
                "deadline": (
                    ready + 1.5e-3 if rng.random() < 1 / 3 else None
                ),
            }
            hit = rng.random() < 0.5
            key = (chip, *urgency.values())
            if hit and key in hits:
                window.append(hits[key])
                continue
            job = StageJob(
                ready,
                (0.0 if hit else float(rng.uniform(0.0, 60e-6)), 4e-6, 2e-6),
                (f"chip{chip}", f"chan{chip % 2}", "ext"),
                **urgency,
            )
            if hit:
                hits[key] = job
            window.append(job)
        windows.append(window)
    return windows


def test_kernel_stage_sweep_streamed(benchmark):
    """The 20k-job ``edf`` stream fed to one sweep window by window, as
    the service feeds a run, against the one-shot sweep over the whole
    list (timed once, in ``extra_info``): the same completions, the
    cache hits' channel stages carried."""
    windows = _edf_windows()
    jobs = [job for window in windows for job in window]

    def streamed():
        sweep = StageSweep()
        done = []
        for window in windows:
            done += sweep.feed(window)
        rest, report = sweep.close()
        return done + rest, report, sweep

    done, report, sweep = benchmark(streamed)
    assert sweep._stage_of is not None  # the layout kept the carry on
    start = time.perf_counter()
    whole = simulate_stages(jobs)
    benchmark.extra_info["one_shot_s"] = time.perf_counter() - start
    completion = [None] * len(jobs)
    for index, end in done:
        completion[index] = end
    assert completion == whole.completion_times
    assert report.resource_busy == whole.resource_busy
    assert report.makespan == whole.makespan


def test_kernel_prepare_striped(benchmark, monkeypatch):
    """``QueryEngine.prepare`` of a fresh 8-chunk, 4-operand AND on 8
    chips (the bound-plan memo emptied before every round, the
    template cached): the FTL stripes the vectors at one place on
    every chip, so the 8 chunks bind once and share one plan."""
    ssd = SmallSsd(n_chips=8, geometry=GEOMETRY, seed=5)
    rng = np.random.default_rng(5)
    names = ["a", "b", "c", "d"]
    for name in names:
        bits = rng.integers(0, 2, 8 * GEOMETRY.page_size_bits, dtype=np.uint8)
        ssd.write_vector(name, bits, group="g")
    expr = and_all([Operand(name) for name in names])
    engine = ssd.engine
    engine.prepare(expr)  # plans the template
    binds = []
    bind = PlanTemplate.bind

    def counting(template, directory):
        binds.append(directory)
        return bind(template, directory)

    monkeypatch.setattr(PlanTemplate, "bind", counting)

    def fresh():
        engine._bound.clear()
        binds.clear()
        return (expr,), {}

    prepared = benchmark.pedantic(
        engine.prepare, setup=fresh, rounds=300, warmup_rounds=10
    )
    assert len(prepared.plans) == 8 and len(binds) == 1
    assert len({id(plan) for plan in prepared.plans}) == 1
    assert not prepared.planned


def test_kernel_prepare_fresh_shape(benchmark, monkeypatch):
    """``QueryEngine.prepare`` of 64 fresh 8-chunk, 4-operand ANDs on 8
    chips, each over its own operands of one group (the bound-plan
    memo emptied before every round): they share one shape, placed
    alike, so the template is planned once in all rounds and every
    other query binds it through a renaming."""
    ssd = SmallSsd(n_chips=8, geometry=GEOMETRY, seed=5)
    rng = np.random.default_rng(5)
    names = [f"v{i}" for i in range(16)]
    for name in names:
        bits = rng.integers(0, 2, 8 * GEOMETRY.page_size_bits, dtype=np.uint8)
        ssd.write_vector(name, bits, group="g")
    exprs = {
        and_all([Operand(names[i]) for i in rng.permutation(16)[:4]])
        for _ in range(64)
    }
    engine = ssd.engine
    planned = []
    plan_template = Planner.plan_template

    def counting(planner, expr):
        planned.append(expr)
        return plan_template(planner, expr)

    monkeypatch.setattr(Planner, "plan_template", counting)

    def fresh():
        engine._bound.clear()
        return (), {}

    def prepare_all():
        return [engine.prepare(expr) for expr in exprs]

    prepared = benchmark.pedantic(
        prepare_all, setup=fresh, rounds=50, warmup_rounds=2
    )
    assert len(exprs) == 64 and len(planned) == 1
    assert sum(p.planned for p in prepared) == 0
    assert all(len({id(plan) for plan in p.plans}) == 1 for p in prepared)


def test_kernel_drain_striped(benchmark):
    """``QueryEngine.execute_tasks`` of a fresh 8-chunk, 4-operand AND
    on 8 chips (the result cache emptied before every round): every
    chip's queue is the same plan, so the drain prepares one batch
    layout and runs the 8 chips' batches as one stripe -- equal, chip
    for chip, to the drain that prepares it per chip."""
    ssds = []
    for _ in range(2):
        ssd = SmallSsd(n_chips=8, geometry=GEOMETRY, seed=5)
        rng = np.random.default_rng(5)
        for name in "abcd":
            bits = rng.integers(
                0, 2, 8 * GEOMETRY.page_size_bits, dtype=np.uint8
            )
            ssd.write_vector(name, bits, group="g")
        ssd.engine.enable_result_cache()
        ssds.append(ssd)
    expr = and_all([Operand(name) for name in "abcd"])
    tasks = [tasks_of(ssd.engine.prepare(expr), 0) for ssd in ssds]
    layouts = []
    layout = MwsExecutor.layout.__func__

    def counting(cls, plans):
        layouts.append(plans)
        return layout(cls, plans)

    rounds = []

    def fresh():
        ssds[0].engine.result_cache.clear()
        layouts.clear()
        rounds.append(None)
        return (ssds[0].engine, tasks[0]), {"use_cache": True}

    with mock.patch.object(MwsExecutor, "layout", classmethod(counting)):
        outcomes = benchmark.pedantic(
            drain, setup=fresh, rounds=300, warmup_rounds=10
        )
    assert len(layouts) == 1  # one stripe of eight chips
    # The reference drains as often, so chip state is comparable.
    with chip_by_chip():
        for _ in rounds:
            ssds[1].engine.result_cache.clear()
            reference = drain(ssds[1].engine, tasks[1], use_cache=True)
    assert_outcomes_equal(outcomes, reference)
    assert_chips_equal(ssds[0], ssds[1])
    assert ssds[0].engine.stats == ssds[1].engine.stats


def test_kernel_execute_batch_plain(benchmark):
    """``MwsExecutor.execute_batch`` of one chip's queue of 128 fresh
    plain plans: 16 four-operand ANDs over 8 chunks, bound anew before
    every round (the template cached), so every command resolves cold.
    Each plan is one sense whose sensed row is its result: no latch
    tensor is built and no row is copied."""
    ssd = SmallSsd(n_chips=1, geometry=GEOMETRY, seed=6)
    rng = np.random.default_rng(6)
    names = [f"v{i}" for i in range(16)]
    env = {}
    for name in names:
        env[name] = rng.integers(
            0, 2, 8 * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    exprs = [
        and_all([Operand(names[i]) for i in rng.permutation(16)[:4]])
        for _ in range(16)
    ]
    engine = ssd.engine
    executor = ssd.controllers[0].executor

    def fresh():
        engine._bound.clear()
        plans = [plan for e in exprs for plan in engine.prepare(e).plans]
        return (plans,), {}

    results = benchmark.pedantic(
        executor.execute_batch, setup=fresh, rounds=200, warmup_rounds=5
    )
    plans = [plan for e in exprs for plan in engine.prepare(e).plans]
    assert len(plans) == 128
    assert all(group[1] is None for group in MwsExecutor.layout(plans).groups)
    page = GEOMETRY.page_size_bits
    for index, result in enumerate(results):
        expr, chunk = exprs[index // 8], index % 8
        assert result.n_senses == 1
        np.testing.assert_array_equal(
            result.bits,
            evaluate(expr, env)[chunk * page : (chunk + 1) * page],
        )
