"""``tools/service_fingerprint.py``: the same program prints the same
digests, and one counter off by one -- or one float off by an ulp --
prints different ones."""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

from repro.service import QueryService

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


def test_main_prints_one_line_per_workload(capsys):
    assert tool.main(["--seed", "3", "--scale", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(tool.BUILDERS)
    assert all("stats=" in line and "served=" in line for line in lines)
