"""``tools/cache_ablation.py``: the pairing and verdict arithmetic on a
scripted clock, and the off-switches against the real program (they
must change no result and leave no patch behind)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "cache_ablation", REPO / "tools" / "cache_ablation.py"
)
tool = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tool  # dataclasses resolve their module
_SPEC.loader.exec_module(tool)


class ScriptedClock:
    """``perf_counter`` stand-in: a pass of side ``s`` advances it by
    the next scripted duration of that side."""

    def __init__(self, on: list[float], off: list[float]) -> None:
        self.now = 100.0
        self.script = {"on": list(on), "off": list(off)}
        self.order: list[str] = []

    def __call__(self) -> float:
        return self.now

    def run(self, side: str):
        def work():
            self.order.append(side)
            self.now += self.script[side].pop(0)

        return lambda: tool.timed(work, self)[0]


def _readings(on, off):
    clock = ScriptedClock(on, off)
    readings = tool.alternating_pairs(
        clock.run("on"), clock.run("off"), len(on)
    )
    return clock, readings


def test_timed_reads_the_clock_twice_and_returns_the_result():
    ticks = iter([2.0, 5.5])
    assert tool.timed(lambda: "report", lambda: next(ticks)) == (
        3.5,
        "report",
    )


def test_sides_alternate_who_runs_first():
    clock, readings = _readings([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert clock.order == ["on", "off", "off", "on", "on", "off"]
    assert readings == [(1.0, 2.0)] * 3


def test_readings_stay_with_their_side_whatever_the_order():
    _, readings = _readings([1.0, 3.0], [2.0, 4.0])
    assert readings == [(1.0, 2.0), (3.0, 4.0)]


def test_cache_that_wins_every_pair_beyond_its_spread_pays():
    on = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    off = [t + 0.2 for t in on]
    _, readings = _readings(on, off)
    verdict = tool.judge(readings)
    assert verdict.word == "pays"
    assert (verdict.on_wins, verdict.off_wins, verdict.pairs) == (10, 0, 10)
    assert verdict.median_on == pytest.approx(1.0)
    assert verdict.median_off == pytest.approx(1.2)
    assert verdict.ratio == pytest.approx(1.2)


def test_cache_that_loses_every_pair_costs():
    off = [1.0, 1.1, 0.9, 1.0]
    on = [t * 1.5 for t in off]
    verdict = tool.judge(_readings(on, off)[1])
    assert verdict.word == "costs"
    assert verdict.ratio == pytest.approx(1 / 1.5)
    assert (verdict.on_wins, verdict.off_wins) == (0, 4)


def test_nine_of_ten_is_enough_eight_is_not():
    on = [1.0] * 10
    nine = [1.3] * 9 + [0.9]
    eight = [1.3] * 8 + [0.9, 0.9]
    assert tool.judge(list(zip(on, nine))).word == "pays"
    assert tool.judge(list(zip(on, eight))).word == "noise"


def test_ties_count_for_neither_side():
    on = [1.0] * 10
    off = [1.0] * 5 + [1.3] * 5  # five ties, five wins: 5 of 5 decided
    verdict = tool.judge(list(zip(on, off)))
    assert (verdict.on_wins, verdict.off_wins) == (5, 0)
    # ... but the medians (1.0 vs 1.15) must still clear the spread.
    assert verdict.word == "pays"
    assert tool.judge([(1.0, 1.0)] * 4).word == "noise"


def test_gap_inside_the_on_sides_own_spread_is_noise():
    on = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3]  # IQR 0.425
    off = [t + 0.05 for t in on]  # wins every pair, by less than that
    verdict = tool.judge(list(zip(on, off)))
    assert verdict.on_wins == 6
    assert verdict.word == "noise"


def test_one_pair_has_no_spread_to_hide_in():
    assert tool.judge([(1.0, 2.0)]).word == "pays"
    assert tool.judge([(2.0, 1.0)]).word == "costs"


def test_row_says_when_a_cache_is_never_consulted():
    verdict = tool.judge([(0.010, 0.011)])
    row = tool.format_row("cold_scan", "StackCache", verdict, tool.Tally())
    assert row.startswith("| StackCache | cold_scan | 10.0 | 11.0 | 1.100 |")
    assert "1-0 of 1" in row and "never consulted" in row
    row = tool.format_row(
        "cold_scan", "StackCache", verdict, tool.Tally(hits=1, lookups=4)
    )
    assert "0.250 (1/4)" in row


# ----------------------------------------------------------------------
# Against the real program
# ----------------------------------------------------------------------


@pytest.fixture
def benchmarks_importable(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))


@pytest.mark.parametrize("cache", list(tool.CACHES))
def test_off_switch_changes_no_result_and_leaves_no_patch(
    cache, benchmarks_importable
):
    """``run_pass`` checks every served result against ``evaluate``
    and raises on a mismatch; afterwards the patched classes are as
    they were."""
    from repro.core.mws import MwsExecutor
    from repro.flash.chip import NandFlashChip

    before = (dict(vars(MwsExecutor)), dict(vars(NandFlashChip)))
    verdict, tally = tool.ablate("write_churn", cache, 1, 0.04, 1)
    assert verdict.pairs == 1
    assert verdict.median_on > 0 and verdict.median_off > 0
    assert 0 <= tally.hits <= tally.lookups
    assert (dict(vars(MwsExecutor)), dict(vars(NandFlashChip))) == before


def test_probes_count_what_the_program_reports(benchmarks_importable):
    """A result-cached service never consults the StackCache (the
    row reads "never consulted", not "0.000"); its bound-plan LRU
    does get hits."""
    tally = tool.Tally()
    tool.run_pass(
        "write_churn",
        1,
        0.04,
        lambda plan: tool.stack_cache_probe(plan, tally),
    )
    assert tally.lookups == 0 and tally.hit_rate is None
    # write_churn repeats its stable shapes between rewrites.
    tally = tool.Tally()
    tool.run_pass(
        "write_churn",
        1,
        0.04,
        lambda plan: tool.bound_plans_probe(plan, tally),
    )
    assert 0 < tally.hits < tally.lookups


def test_main_prints_one_row_per_cache_and_workload(
    benchmarks_importable, capsys
):
    code = tool.main(
        [
            "--scale", "0.04", "--pairs", "1",
            "--workload", "write_churn", "--cache", "_rows_cache",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("| cache | workload |")
    assert len(lines) == 3
    assert lines[2].startswith("| _rows_cache | write_churn | ")
