"""``tools/service_fingerprint.py``: the same program prints the same
digests, and one counter off by one -- or one float off by an ulp --
prints different ones."""

from __future__ import annotations

import importlib.util
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.flash.packing import pack_rows
from repro.service import QueryService, ServiceStats
from repro.service.metrics import LatencySummary
from repro.ssd.controller import QueryResult

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "service_fingerprint", REPO / "tools" / "service_fingerprint.py"
)
tool = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tool  # dataclasses resolve their module
_SPEC.loader.exec_module(tool)

#: Small enough for tier-1, large enough to cross the chip kill.
SMOKE = ("chip_loss", 3, 0.05)


def _digests(folded):
    return folded.stats.hexdigest(), folded.served.hexdigest()


def test_two_invocations_agree_and_a_perturbed_field_shows(monkeypatch):
    first = tool.fingerprint(*SMOKE)
    assert first.runs > 1 and first.submitted > 0
    assert _digests(tool.fingerprint(*SMOKE)) == _digests(first)

    real_run = QueryService.run

    def one_retry_more(self):
        report = real_run(self)
        stats = replace(
            report.stats, fault_retries=report.stats.fault_retries + 1
        )
        return replace(report, stats=stats)

    monkeypatch.setattr(QueryService, "run", one_retry_more)
    stats_digest, served_digest = _digests(tool.fingerprint(*SMOKE))
    assert stats_digest != first.stats.hexdigest()
    assert served_digest == first.served.hexdigest()

    def one_ulp_later(self):
        report = real_run(self)
        last = report.queries[-1]
        late = replace(
            last, completed_us=math.nextafter(last.completed_us, math.inf)
        )
        return replace(report, queries=report.queries[:-1] + (late,))

    monkeypatch.setattr(QueryService, "run", one_ulp_later)
    stats_digest, served_digest = _digests(tool.fingerprint(*SMOKE))
    assert stats_digest == first.stats.hexdigest()
    assert served_digest != first.served.hexdigest()


def test_the_device_digest_sees_read_disturb_and_the_fault_stream(
    monkeypatch,
):
    """Read disturb and the fault streams reach no report: one read
    more on one block, or one uniform more drawn off a chip's fault
    stream at an episode's end, leaves ``stats`` and ``served`` as they
    were and changes ``device``."""
    first = tool.fingerprint(*SMOKE)
    assert tool.fingerprint(*SMOKE).device.hexdigest() == (
        first.device.hexdigest()
    )
    end_episode = tool.harness.Collector.end_episode

    def perturbed(perturb):
        def end(self, episode):
            perturb(episode.ssd)
            end_episode(self, episode)

        monkeypatch.setattr(tool.harness.Collector, "end_episode", end)
        folded = tool.fingerprint(*SMOKE)
        assert _digests(folded) == _digests(first)
        assert folded.device.hexdigest() != first.device.hexdigest()

    def one_read_more(ssd):
        array = ssd.chips[0].plane_array
        array.block(array.materialized()[0]).note_read()

    def one_draw_more(ssd):
        ssd.fault_injector._rng(0).random()

    perturbed(one_read_more)
    perturbed(one_draw_more)


def test_a_result_hashes_what_it_serves_not_how_it_is_stored():
    """A ``QueryResult`` is hashed by public name -- ``bits`` unpacked,
    then the cost fields, the order they had when ``bits`` was a field
    -- so a tree whose result keeps packed words hashes a served result
    exactly as a tree whose result kept the bits."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2, (2, 80), dtype=np.uint8)
    result = QueryResult(
        words=pack_rows(rows),
        page_bits=80,
        n_bits=150,
        n_senses=3,
        latency_us=1.5,
        energy_nj=2.5,
        makespan_us=4.0,
        template_hit=True,
    )
    assert tool.canonical(result) == [
        ("bits", rows.ravel()[:150].tobytes()),
        ("n_senses", 3),
        ("latency_us", 1.5),
        ("energy_nj", 2.5),
        ("makespan_us", 4.0),
        ("template_hit", True),
    ]
    # The same served bits from differently packed storage (an extra
    # chunk past n_bits) hash the same; one served bit more does not.
    padded = replace(result, words=pack_rows(np.vstack([rows, rows[:1]])))
    assert tool.canonical(padded) == tool.canonical(result)
    longer = replace(result, n_bits=151)
    assert tool.canonical(longer) != tool.canonical(result)


def test_only_a_declared_stats_field_drop_hashes_equal(monkeypatch):
    """A parent whose ``ServiceStats`` still carries a :data:`DROPPED`
    field hashes as the tree without it; a tree that lost any other
    field does not."""
    stats = ServiceStats(
        *range(11),  # the counts, n_queries .. deadlines_met
        latency=LatencySummary.from_latencies([1.0, 2.0]),
        throughput_qps=1.5,
        span_us=2.5,
        makespan_us=3.5,
        bottleneck="chip0",
        preemptions=4,
    )

    @dataclass(frozen=True)
    class ParentStats(ServiceStats):
        preemption_overhead_us: float = 0.0

    assert tool.DROPPED == ("preemption_overhead_us",)
    values = {f.name: getattr(stats, f.name) for f in fields(stats)}
    parent = repr(tool.canonical(ParentStats(**values)))
    assert repr(tool.canonical(stats)) == parent
    # The tree without ``preemptions``, which is not declared dropped.
    every = tool.fields
    monkeypatch.setattr(
        tool,
        "fields",
        lambda record: [f for f in every(record) if f.name != "preemptions"],
    )
    assert repr(tool.canonical(stats)) != parent


def test_main_prints_one_line_per_workload(capsys):
    assert tool.main(["--seed", "3", "--scale", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(tool.BUILDERS)
    assert all(
        "stats=" in line and "served=" in line and "device=" in line
        for line in lines
    )


def test_compare_names_every_workload_that_differs():
    parent = ["a seed=1 stats=1 served=2", "b seed=1 stats=3 served=4"]
    assert tool.compare(parent, parent) == (["a equal", "b equal"], True)
    tree = [parent[0], "b seed=1 stats=3 served=5"]
    verdicts, equal = tool.compare(parent, tree)
    assert not equal
    assert verdicts[0] == "a equal"
    assert verdicts[1].startswith("b DIFFERS\n  parent: ")
    assert verdicts[1].endswith("served=5")
    verdicts, equal = tool.compare(parent[:1], tree)
    assert not equal and verdicts[1].startswith("b DIFFERS")


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], capture_output=True, text=True
    )


def test_parent_differential_runs_both_trees(capsys):
    """``--parent HEAD``: one verdict per workload and an exit status
    that agrees with them; with no change to the program since HEAD,
    every verdict is ``equal``."""
    if shutil.which("git") is None or _git("rev-parse", "HEAD").returncode:
        pytest.skip("not a git checkout")
    code = tool.main(["--scale", "0.05", "--parent", "HEAD"])
    out = capsys.readouterr().out
    verdicts = [line for line in out.splitlines() if not line[:1].isspace()]
    assert [line.split()[0] for line in verdicts] == list(tool.BUILDERS)
    assert {line.split()[1] for line in verdicts} <= {"equal", "DIFFERS"}
    assert code == (1 if "DIFFERS" in out else 0)
    program = ("src", "benchmarks", "tools/service_fingerprint.py")
    if not _git("diff", "--quiet", "HEAD", "--", *program).returncode:
        assert code == 0
