"""``tools/check_e2e_exact.py --moved``: a declared count may move, but
the declaration is checked too."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_e2e_exact", REPO / "tools" / "check_e2e_exact.py"
)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

DISPATCHES = "ssd.query_engine.executor_dispatches"  # better: lower
RESTACKED = "ssd.query_engine.restacked_tensors"  # better: lower


def _record(dispatches=100, restacked=0, p99=5.0):
    return {
        "environment": {"numpy": "2.0.0"},
        "seed": 1,
        "workloads": {
            "chip_loss": {
                "sim": {"sim_p99_us": p99},
                "counts": {DISPATCHES: dispatches, RESTACKED: restacked},
                "host": {
                    name: {"median": 1.0} for name in tool.HOST_METRICS
                },
            }
        },
    }


def _check(tmp_path, capsys, new, *moved):
    base_file, new_file = tmp_path / "base.json", tmp_path / "new.json"
    base_file.write_text(json.dumps(_record()))
    new_file.write_text(json.dumps(new))
    argv = [str(base_file), str(new_file)]
    for spec in moved:
        argv += ["--moved", spec]
    status = tool.main(argv)
    return status, capsys.readouterr().out


def test_unmoved_record_passes_and_undeclared_move_fails(tmp_path, capsys):
    assert _check(tmp_path, capsys, _record())[0] == 0
    status, out = _check(tmp_path, capsys, _record(dispatches=10))
    assert status == 1
    assert f"MOVED chip_loss: counts.{DISPATCHES} = 10, baseline 100" in out


def test_declared_move_in_the_better_direction_passes(tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys, _record(dispatches=10), f"chip_loss:{DISPATCHES}"
    )
    assert status == 0
    assert f"MOVED (declared) chip_loss: counts.{DISPATCHES}" in out


def test_declared_count_that_did_not_move_is_stale(tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys, _record(), f"chip_loss:{DISPATCHES}"
    )
    assert status == 1
    assert f"STALE --moved chip_loss:{DISPATCHES}" in out


def test_declared_count_moving_the_other_way_fails(tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys, _record(dispatches=500), f"chip_loss:{DISPATCHES}"
    )
    assert status == 1
    assert "MOVED (declared the other way)" in out
    # A count expected to get worse has to say so -- and is then held
    # to that direction just the same.
    worse = f"chip_loss:{RESTACKED}:worse"
    assert _check(tmp_path, capsys, _record(restacked=7), worse)[0] == 0
    assert (
        _check(tmp_path, capsys, _record(restacked=7), worse[:-6])[0] == 1
    )


def test_declaration_covers_only_its_own_count(tmp_path, capsys):
    status, out = _check(
        tmp_path,
        capsys,
        _record(dispatches=10, p99=6.0),
        f"chip_loss:{DISPATCHES}",
    )
    assert status == 1
    assert "MOVED chip_loss: sim.sim_p99_us" in out


@pytest.mark.parametrize(
    "spec",
    ["chip_loss:sim_p99_us", "chip_loss:no.such.count", "chip_loss"],
)
def test_sim_metrics_and_unknown_names_cannot_be_declared(
    tmp_path, capsys, spec
):
    with pytest.raises(SystemExit) as exit_info:
        _check(tmp_path, capsys, _record(), spec)
    assert exit_info.value.code == 2
