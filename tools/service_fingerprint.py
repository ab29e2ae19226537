#!/usr/bin/env python
"""Did a host-side refactor change anything a ``run()`` reports?

Replays the four ``benchmarks/e2e`` workloads exactly as the benchmark
does (``harness.execute`` over the ``workloads.build_*`` plans, read
only) and prints, per workload, one SHA-256 over ``repr`` of every
``ServiceStats`` field of every ``run()``, one over every
``ServedQuery`` field of every query -- floats by ``repr``, result bits
as bytes, an error as its type and message -- and one over the device
state each episode ends in (:func:`device_state`: chip counters, every
materialized block's wear and read disturb, every fault stream)::

    python tools/service_fingerprint.py --seed 1
    python tools/service_fingerprint.py --seed 2 --scale 0.1   # smoke
    python tools/service_fingerprint.py --seed 1 --parent HEAD~1

``tools/check_e2e_exact.py`` compares 38 aggregates per workload; this
sees every field of every run and every query.  ``--parent REV`` is
the differential: it extracts ``REV`` with ``git archive`` into a
temporary directory, copies this file in, runs it there and here, and
prints ``<workload> equal`` or ``<workload> DIFFERS`` per workload
(exit status 1 on any difference).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.calibrate import Sampler  # noqa: E402
from benchmarks.e2e.workloads import BUILDERS  # noqa: E402
from repro.service import ServedQuery, ServiceStats  # noqa: E402
from repro.ssd.controller import QueryResult  # noqa: E402


#: What a ``QueryResult`` serves, by public name.  Not its dataclass
#: fields: how a result is stored (``bits`` as a field, or packed
#: ``words`` unpacked by a ``bits`` property) is not what it serves,
#: and a tree and its parent must hash the same result the same way.
RESULT_NAMES = (
    "bits",
    "n_senses",
    "latency_us",
    "energy_nj",
    "makespan_us",
    "template_hit",
)

#: ``ServiceStats`` fields deleted on purpose, skipped on both sides:
#: ``--parent`` runs this copy of the file in the parent tree, so a
#: parent that still has one hashes exactly what the tree does.
#: ``preemption_overhead_us`` was always 0.0 (suspension costs nothing).
DROPPED = ("preemption_overhead_us",)


def canonical(value):
    """``value`` with everything whose ``repr`` is not its content
    replaced: arrays by their bytes, errors by type and message,
    records by their ``(field, value)`` pairs, the :data:`DROPPED`
    stats fields left out."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    if isinstance(value, QueryResult):
        return [
            (name, canonical(getattr(value, name))) for name in RESULT_NAMES
        ]
    if isinstance(value, (ServiceStats, ServedQuery)):
        return [
            (f.name, canonical(getattr(value, f.name)))
            for f in fields(value)
            if f.name not in DROPPED
        ]
    return value


def device_state(ssd) -> tuple[list, list]:
    """What an SSD's chips and fault streams hold, which no report
    carries: per chip its ``ChipCounters`` fields and, per materialized
    block (address order), its address, ``pe_cycles``, ``programs``,
    ``reads_since_erase`` and ``layout_version``; per chip the
    injector has drawn for, its ``counts()`` and its stream's
    ``bit_generator.state``."""
    chips = []
    for chip in ssd.chips:
        counters, array = chip.counters, chip.plane_array
        addresses = array.materialized()
        blocks = [
            (a, b.pe_cycles, b.programs, b.reads_since_erase, b.layout_version)
            for a, b in zip(addresses, map(array.block, addresses))
        ]
        fold = [(f.name, getattr(counters, f.name)) for f in fields(counters)]
        chips.append((fold, blocks))
    injector = ssd.fault_injector
    streams = [
        (chip, injector.counts(chip), rng.bit_generator.state)
        for chip, rng in sorted((injector._rngs if injector else {}).items())
    ]
    return chips, streams


@dataclass
class Fingerprint(harness.Collector):
    """The harness's collector with the fold replaced by three hashes."""

    stats: object = field(default_factory=hashlib.sha256)
    served: object = field(default_factory=hashlib.sha256)
    device: object = field(default_factory=hashlib.sha256)
    runs: int = 0

    def add_report(self, report, env) -> None:
        self.runs += 1
        self.submitted += len(report.queries)
        self.stats.update(repr(canonical(report.stats)).encode())
        for query in report.queries:
            self.served.update(repr(canonical(query)).encode())

    def end_episode(self, episode) -> None:
        super().end_episode(episode)
        self.device.update(repr(device_state(episode.ssd)).encode())


def fingerprint(workload: str, seed: int, scale: float = 1.0) -> Fingerprint:
    folded = Fingerprint()
    plan = BUILDERS[workload](seed, scale)
    harness.execute(plan, folded, Sampler(sample=False))
    return folded


def lines(workloads, seed: int, scale: float):
    """One printed line per workload."""
    for workload in workloads:
        folded = fingerprint(workload, seed, scale)
        yield (
            f"{workload} seed={seed} scale={scale} "
            f"runs={folded.runs} queries={folded.submitted} "
            f"stats={folded.stats.hexdigest()} "
            f"served={folded.served.hexdigest()} "
            f"device={folded.device.hexdigest()}"
        )


def parent_lines(rev: str, argv: list[str]) -> list[str]:
    """This file's lines for ``argv``, run in a ``git archive`` of
    ``rev`` with this copy of the file put in."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True,
        check=True,
    ).stdout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        copy = Path(tmp) / "tools" / Path(__file__).name
        copy.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, copy)
        done = subprocess.run(
            [sys.executable, str(copy), *argv],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
    return done.stdout.splitlines()


def compare(parent: list[str], tree: list[str]) -> tuple[list[str], bool]:
    """``<workload> equal`` / ``<workload> DIFFERS`` per workload of the
    tree's lines, and whether every one is equal."""
    by_workload = {line.split()[0]: line for line in parent}
    verdicts = []
    for line in tree:
        workload = line.split()[0]
        other = by_workload.get(workload)
        if other == line:
            verdicts.append(f"{workload} equal")
        else:
            verdicts.append(
                f"{workload} DIFFERS\n  parent: {other}\n  tree:   {line}"
            )
    return verdicts, all(v.endswith(" equal") for v in verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--workload", choices=sorted(BUILDERS), action="append"
    )
    parser.add_argument(
        "--parent",
        metavar="REV",
        help="compare against this git revision instead of printing",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or list(BUILDERS)
    if args.parent is None:
        for line in lines(workloads, args.seed, args.scale):
            print(line, flush=True)
        return 0
    passed = ["--seed", str(args.seed), "--scale", str(args.scale)]
    for workload in workloads:
        passed += ["--workload", workload]
    tree = list(lines(workloads, args.seed, args.scale))
    verdicts, equal = compare(parent_lines(args.parent, passed), tree)
    print("\n".join(verdicts))
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
