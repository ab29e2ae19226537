"""``tools/reachability.py``: the allow-list names real defs, stays
sorted, and the tracer reports exactly the defs a root never enters."""

from __future__ import annotations

import importlib.util
import runpy
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "reachability", REPO / "tools" / "reachability.py"
)
tool = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tool
_SPEC.loader.exec_module(tool)


def test_every_entry_names_a_def_that_exists():
    names = {name for name, _ in tool.definitions(tool.SRC).values()}
    stale = [entry for entry in tool.UNREACHED if entry not in names]
    assert not stale, f"no such def, drop the entry: {stale}"


def test_entries_are_sorted_and_unique():
    assert list(tool.UNREACHED) == sorted(set(tool.UNREACHED))


def test_def_names_are_unique():
    """Two defs under one name (a property setter, a redefinition)
    would make an entry ambiguous."""
    names = [name for name, _ in tool.definitions(tool.SRC).values()]
    assert len(names) == len(set(names))


def test_reports_exactly_the_def_never_entered(tmp_path):
    (tmp_path / "toy.py").write_text(
        '''
import functools


def called():
    def inner():
        return 1

    return 2


def uncalled():
    def inner():
        return 3

    return inner()


class Box:
    @functools.lru_cache(maxsize=None)
    def cached(self):
        return 4

    @property
    def unread(self):
        return 5
'''
    )

    def roots():
        module = runpy.run_path(str(tmp_path / "toy.py"))
        module["called"]()
        module["Box"]().cached()

    assert tool.never_entered(tmp_path, roots) == {
        "toy.py::called.inner",
        "toy.py::uncalled",
        "toy.py::Box.unread",
    }
