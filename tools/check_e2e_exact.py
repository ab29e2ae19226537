#!/usr/bin/env python
"""Standing guard that host-side work never moves the modelled SSD.

Compares a fresh ``python -m benchmarks.e2e --seed N --out NEW`` record
against the committed baseline of the same seed::

    python tools/check_e2e_exact.py benchmarks/e2e/BENCH_e2e.json /tmp/e2e.json

Every ``sim`` metric and every ``counts`` entry of every workload must
equal the baseline within 1e-9 relative (they are exact for a seed: the
virtual clock, the caches' hit counts, the flash counters); any
difference exits 1 naming it.  Host medians are printed side by side
and never gated -- shared runners are too noisy to refuse a build on.

The modelled numbers are exact for a *NumPy major version* (the traffic
generators draw from ``numpy.random``), so when the fresh record's
major version differs from the baseline's ``environment`` the check is
skipped with a notice instead of failing on someone else's RNG stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXACT_REL = 1e-9
EXACT_SECTIONS = ("sim", "counts")
HOST_METRICS = ("setup_s", "wall_qps", "cpu_us_per_query", "peak_rss_mb")


def differences(base: dict, new: dict) -> list[str]:
    """One line per exact number that is missing or differs."""
    out = []
    for workload, entry in base["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None:
            out.append(f"{workload}: missing from the new record")
            continue
        for section in EXACT_SECTIONS:
            for name, want in entry[section].items():
                got = fresh[section].get(name)
                if got is None:
                    out.append(f"{workload}: {section}.{name} missing")
                elif abs(got - want) > EXACT_REL * abs(want):
                    out.append(
                        f"{workload}: {section}.{name} = {got!r}, "
                        f"baseline {want!r}"
                    )
    return out


def print_host(base: dict, new: dict) -> None:
    print("host medians (informational, not gated): baseline -> new")
    for workload, entry in base["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None:
            continue
        for name in HOST_METRICS:
            b = entry["host"][name]["median"]
            n = fresh["host"][name]["median"]
            print(f"  {workload:12s} {name:18s} {b:12.6g} -> {n:12.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.baseline.read_text())
    new = json.loads(args.new.read_text())

    base_numpy = base["environment"]["numpy"]
    new_numpy = new["environment"]["numpy"]
    if base_numpy.split(".")[0] != new_numpy.split(".")[0]:
        print(
            f"::notice::e2e-exact skipped: NumPy {new_numpy} here, baseline "
            f"recorded under NumPy {base_numpy} (different major version, "
            f"different random streams)"
        )
        return 0
    if base["seed"] != new["seed"]:
        print(
            f"seeds differ (baseline {base['seed']}, new {new['seed']}): "
            f"exact numbers are only comparable at equal seed"
        )
        return 1

    print_host(base, new)
    diffs = differences(base, new)
    for line in diffs:
        print(f"MOVED {line}")
    checked = sum(
        len(entry[section])
        for entry in base["workloads"].values()
        for section in EXACT_SECTIONS
    )
    print(f"{len(diffs)} of {checked} sim/count values differ from baseline")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
