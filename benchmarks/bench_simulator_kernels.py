"""Throughput of the reproduction's own kernels.

Unlike the figure benches (which regenerate the paper's numbers),
these measure the *library's* hot paths with pytest-benchmark proper
(many rounds): functional MWS sensing, ParaBit serial sensing, BCH
decoding, randomization, the SSD timeline simulator, and the event
sweep fed as a service feeds it.  Useful for tracking performance
regressions of the simulator itself.
"""

import time

import numpy as np

from repro.core.api import FlashCosmos
from repro.core.expressions import Operand, and_all
from repro.core.parabit import ParaBit
from repro.ecc.bch import BchCode
from repro.flash.chip import NandFlashChip
from repro.flash.geometry import ChipGeometry
from repro.flash.randomizer import LfsrRandomizer
from repro.ssd.config import fig7_config
from repro.ssd.events import StageJob, StageSweep, simulate_stages
from repro.ssd.pipeline import DataflowSpec, PipelineModel, Platform

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


def test_kernel_bch_decode(benchmark):
    """BCH(63,45,3) decode with two injected errors."""
    code = BchCode(m=6, t=3)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, code.k, dtype=np.uint8)
    word = code.encode(data)
    word[[5, 40]] ^= 1
    decoded, n = benchmark(code.decode, word)
    assert n == 2
    assert (decoded == data).all()

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
    them under a deadline and priorities mixed."""
    rng = np.random.default_rng(seed)
    windows = []
    for w in range(n_windows):
        ready = (w + 1) * 400e-6
        window = []
        for _ in range(per_window):
            chip = int(rng.integers(8))
            window.append(
                StageJob(
                    ready,
                    (float(rng.uniform(0.0, 60e-6)), 4e-6, 2e-6),
                    (f"chip{chip}", f"chan{chip % 2}", "ext"),
                    priority=float(rng.integers(3)),
                    deadline=ready + 1.5e-3 if rng.random() < 1 / 3 else None,
                )
            )
        windows.append(window)
    return windows


def test_kernel_stage_sweep_streamed(benchmark):
    """The 20k-job ``edf`` stream fed to one sweep window by window, as
    the service feeds a run, against the one-shot sweep over the whole
    list (timed once, in ``extra_info``): the same completions."""
    windows = _edf_windows()
    jobs = [job for window in windows for job in window]

    def streamed():
        sweep = StageSweep()
        done = []
        for window in windows:
            done += sweep.feed(window)
        rest, report = sweep.close()
        return done + rest, report

    done, report = benchmark(streamed)
    start = time.perf_counter()
    whole = simulate_stages(jobs)
    benchmark.extra_info["one_shot_s"] = time.perf_counter() - start
    completion = [None] * len(jobs)
    for index, end in done:
        completion[index] = end
    assert completion == whole.completion_times
    assert report.resource_busy == whole.resource_busy
    assert report.makespan == whole.makespan
