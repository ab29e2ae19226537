"""The stack drains its chips on one thread, and the knobs that only a
thread pool or the arbitrated simulator read stay deleted.

The arbitrated simulator lives beside the tests as the sweep's oracle
(``tests/reference_arbitrated.py``); production has one event sweep.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.service.service import QueryService
from repro.ssd.events import StageJob, background_job, simulate_stages
from repro.ssd.maintenance import MaintenanceConfig
from repro.ssd.query_engine import QueryEngine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def _keywords(function) -> set[str]:
    return set(inspect.signature(function).parameters)


def test_one_drain_thread_and_no_preemption_knobs():
    threaded = {
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in _imports(path)
        if name == "threading" or name.startswith("concurrent")
    }
    assert not threaded

    service = inspect.signature(QueryService.__init__).parameters
    assert sum(p.kind is p.KEYWORD_ONLY for p in service.values()) == 9
    assert not {
        "workers", "preemption", "suspend_cost_us", "resume_cost_us"
    } & set(service)
    assert "workers" not in _keywords(QueryEngine.__init__)
    assert "workers" not in _keywords(QueryEngine.execute_tasks)
    assert "preemptible" not in _keywords(QueryEngine.stage_job)
    assert "arbitration" not in _keywords(simulate_stages)
    assert "priority" not in _keywords(background_job)
    assert "priority" not in {
        f.name for f in dataclasses.fields(MaintenanceConfig)
    }
    assert "preemptible" not in {f.name for f in dataclasses.fields(StageJob)}
