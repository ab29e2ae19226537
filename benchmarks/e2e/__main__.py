"""Suite front-end.

    PYTHONPATH=src python -m benchmarks.e2e --seed N [--workload NAME] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e manifest

The suite measures each workload in two fresh subprocesses of
``run.py`` (tracing off, then on -- so ``peak_rss_mb`` is per workload
and untraced), checks that both report the same exact numbers, and
writes one record.  ``manifest`` rewrites ``BENCHMARK.json`` from
``spec``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.e2e import compare, spec
from benchmarks.e2e.harness import OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    record_path = OUT_DIR / f"{workload}.trace{trace}.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--record", str(record_path),
        ],
        check=True,
    )
    return json.loads(record_path.read_text())


def suite(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workloads = {}
    for name in args.workload or list(spec.WORKLOADS):
        plain = _run(name, args.seed, args.seconds, 0)
        traced = _run(name, args.seed, args.seconds, 1)
        for section in ("sim", "counts"):
            for key, value in plain[section].items():
                if traced[section][key] != value:
                    sys.exit(
                        f"{name}: {key} differs between the untraced "
                        f"process ({value!r}) and the traced one "
                        f"({traced[section][key]!r})"
                    )
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        workloads[name] = {
            "why": spec.WORKLOADS[name],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "passes": {
                "timed": plain["host"]["wall_qps"]["passes"],
                "traced": traced["passes"],
            },
            "host": plain["host"],
            "host_raw": plain["host_raw"],
            "layers": traced["layers"],
            "sim": plain["sim"],
            "counts": plain["counts"],
        }
    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": args.seed,
        "run_seconds": args.seconds,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: python -m benchmarks.e2e compare A.json B.json")
        return compare.main(argv[1], argv[2])
    if argv == ["manifest"]:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload", action="append", choices=spec.WORKLOADS,
        help="repeatable; default: all four",
    )
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", default=str(OUT_DIR / "e2e.json"))
    return suite(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
