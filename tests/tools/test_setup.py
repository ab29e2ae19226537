"""``setup.py`` carries the package's metadata itself."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def _setup(*args: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_name_and_version():
    assert _setup("--name", "--version") == ["repro", repro.__version__]


def test_every_subpackage_is_listed():
    script = (
        "import setuptools\n"
        "setuptools.setup = lambda **kw: print(*kw['packages'])\n"
        "exec(open('setup.py').read())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    on_disk = {
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src").rglob("__init__.py")
    }
    assert set(out.stdout.split()) == on_disk
