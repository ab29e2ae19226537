#!/usr/bin/env python
"""Did a host-side refactor change anything a ``run()`` reports?

Replays the four ``benchmarks/e2e`` workloads exactly as the benchmark
does (``harness.execute`` over the ``workloads.build_*`` plans, read
only) and prints, per workload, one SHA-256 over ``repr`` of every
``ServiceStats`` field of every ``run()`` and one over every
``ServedQuery`` field of every query -- floats by ``repr``, result bits
as bytes, an error as its type and message::

    python tools/service_fingerprint.py --seed 1
    python tools/service_fingerprint.py --seed 2 --scale 0.1   # smoke

``tools/check_e2e_exact.py`` compares 38 aggregates per workload; this
sees every field of every run and every query.  The differential is
two runs of this file, one in a scratch ``git clone`` of the parent
(copy the file in) and one in the tree: equal lines, equal reports.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
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


def canonical(value):
    """``value`` with everything whose ``repr`` is not its content
    replaced: arrays by their bytes, errors by type and message,
    records by their ``(field, value)`` pairs."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    if isinstance(value, (ServiceStats, ServedQuery, QueryResult)):
        return [
            (f.name, canonical(getattr(value, f.name))) for f in fields(value)
        ]
    return value


@dataclass
class Fingerprint(harness.Collector):
    """The harness's collector with the fold replaced by two hashes."""

    stats: object = field(default_factory=hashlib.sha256)
    served: object = field(default_factory=hashlib.sha256)
    runs: int = 0

    def add_report(self, report, env) -> None:
        self.runs += 1
        self.submitted += len(report.queries)
        self.stats.update(repr(canonical(report.stats)).encode())
        for query in report.queries:
            self.served.update(repr(canonical(query)).encode())


def fingerprint(workload: str, seed: int, scale: float = 1.0) -> Fingerprint:
    folded = Fingerprint()
    plan = BUILDERS[workload](seed, scale)
    harness.execute(plan, folded, Sampler(sample=False))
    return folded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--workload", choices=sorted(BUILDERS), action="append"
    )
    args = parser.parse_args(argv)
    for workload in args.workload or BUILDERS:
        folded = fingerprint(workload, args.seed, args.scale)
        print(
            f"{workload} seed={args.seed} scale={args.scale} "
            f"runs={folded.runs} queries={folded.submitted} "
            f"stats={folded.stats.hexdigest()} "
            f"served={folded.served.hexdigest()}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
