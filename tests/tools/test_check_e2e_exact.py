"""``tools/check_e2e_exact.py --moved``: a declared count -- or, with
its direction spelled out, a declared sim metric -- may move, but the
declaration is checked too."""

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
    """A sim metric without its direction is as undeclarable as an
    unknown name."""
    with pytest.raises(SystemExit) as exit_info:
        _check(tmp_path, capsys, _record(), spec)
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "chip_loss:wall_qps:better",  # host metrics are never exact
        "chip_loss:sim_p99_us:sideways",
        f"chip_loss:{DISPATCHES}:down",
    ],
)
def test_host_metrics_and_made_up_directions_are_refused(
    tmp_path, capsys, spec
):
    with pytest.raises(SystemExit) as exit_info:
        _check(tmp_path, capsys, _record(), spec)
    assert exit_info.value.code == 2


def test_a_repeated_declaration_is_refused(tmp_path, capsys):
    """Declared twice -- with the same direction or another -- the
    second would silently replace the first."""
    manifest = json.loads(tool.MANIFEST.read_text())
    with pytest.raises(ValueError, match="declared twice"):
        tool.parse_moved(
            [f"chip_loss:{RESTACKED}:worse", f"chip_loss:{RESTACKED}"],
            manifest,
        )
    with pytest.raises(SystemExit) as exit_info:
        _check(
            tmp_path,
            capsys,
            _record(p99=2.0),
            "chip_loss:sim_p99_us:better",
            "chip_loss:sim_p99_us:better",
        )
    assert exit_info.value.code == 2
    # The same name under two workloads is two declarations.
    assert len(
        tool.parse_moved(
            [f"chip_loss:{DISPATCHES}", f"write_churn:{DISPATCHES}"],
            manifest,
        )
    ) == 2


def test_sim_metric_declared_with_its_direction_may_move(tmp_path, capsys):
    # sim_p99_us: better is lower.
    better = "chip_loss:sim_p99_us:better"
    status, out = _check(tmp_path, capsys, _record(p99=2.0), better)
    assert status == 0
    assert "MOVED (declared) chip_loss: sim.sim_p99_us = 2.0" in out
    assert "1 of 3 sim/count values differ" in out
    # Declared, but it did not move; declared, but it moved the other
    # way: both refuse the build.
    status, out = _check(tmp_path, capsys, _record(), better)
    assert status == 1
    assert "STALE --moved chip_loss:sim_p99_us" in out
    status, out = _check(tmp_path, capsys, _record(p99=9.0), better)
    assert status == 1
    assert "MOVED (declared the other way) chip_loss: sim.sim_p99_us" in out


def test_sim_metric_declared_worse_passes_loudly(tmp_path, capsys):
    worse = "chip_loss:sim_p99_us:worse"
    status, out = _check(tmp_path, capsys, _record(p99=9.0), worse)
    assert status == 0
    assert "MOVED (declared WORSE) chip_loss: sim.sim_p99_us" in out
    assert "::warning::" in out
    assert _check(tmp_path, capsys, _record(p99=2.0), worse)[0] == 1
    # A count declared worse stays the quiet, standing kind.
    status, out = _check(
        tmp_path, capsys, _record(restacked=7), f"chip_loss:{RESTACKED}:worse"
    )
    assert status == 0 and "::warning::" not in out


def test_count_may_spell_out_better(tmp_path, capsys):
    status, _ = _check(
        tmp_path,
        capsys,
        _record(dispatches=10),
        f"chip_loss:{DISPATCHES}:better",
    )
    assert status == 0
