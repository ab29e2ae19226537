"""Measure one workload (the command ``BENCHMARK.json`` names).

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--record FILE]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones, as one JSON object on the last line of stdout.  Exits
non-zero, printing no result, when the program under test is missing
or two passes of the same seed disagree on an exact number.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro  # noqa: F401  (the program under test)
except ImportError:
    sys.exit(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}")

from benchmarks.e2e import harness, spec  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", help="also write the full record (quartiles, counts) here"
    )
    args = parser.parse_args(argv)

    try:
        if args.trace:
            record = harness.measure_layers(
                args.workload, args.seed, args.seconds
            )
            values = {**record["layers"], **record["counts"]}
            declared = spec.PER_LAYER
        else:
            record = harness.measure(args.workload, args.seed, args.seconds)
            # ru_maxrss is KiB on Linux; tracing is off in this process.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record["host"]["peak_rss_mb"] = harness.quartiles([peak_kib / 1024])
            values = {
                **{k: v["median"] for k, v in record["host"].items()},
                **record["sim"],
            }
            declared = spec.END_TO_END
    except harness.DeterminismError as exc:
        sys.exit(f"benchmarks/e2e: {args.workload}: {exc}")

    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1))
    print(
        f"{args.workload} seed {args.seed}: {record['attempted']} queries "
        f"checked against the oracle, {record['failed']} failed"
    )
    for metric in declared:
        print(f"  {metric.name:44s} {values[metric.name]:16.6g} {metric.unit}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
