#!/usr/bin/env python
"""Standing guard that nothing moves the modelled SSD undeclared.

Compares a fresh ``python -m benchmarks.e2e --seed N --out NEW`` record
against the committed baseline of the same seed::

    python tools/check_e2e_exact.py benchmarks/e2e/BENCH_e2e.json /tmp/e2e.json

Every ``sim`` metric and every ``counts`` entry of every workload must
equal the baseline within 1e-9 relative (they are exact for a seed: the
virtual clock, the caches' hit counts, the flash counters); any
difference exits 1 naming it.  Host medians are printed side by side
and never gated -- shared runners are too noisy to refuse a build on.

A host-side PR that legitimately moves a count (fewer executor
dispatches, say) cannot re-record the baseline -- only a ``[benchmark]``
PR may -- so it declares the move instead, once per count::

    --moved chip_loss:ssd.query_engine.executor_dispatches
    --moved chip_loss:ssd.query_engine.restacked_tensors:worse

A declared count is reported ``MOVED (declared)`` and does not fail the
check, but the declaration is itself checked: exit 1 if the count did
*not* differ (a stale list), or moved the other way than declared --
by default towards its ``better`` direction in ``BENCHMARK.json``; a
count expected to get worse must say ``:worse``, in the open.

A PR that changes the *modelled* SSD declares the ``sim`` metrics it
moves the same way, except that the direction is never implied::

    --moved write_churn:sim_p99_us:better

``:worse`` is accepted for a sim metric too, and printed as a warning.
A sim metric named without a direction is refused, an undeclared sim
difference still exits 1, and so does a declared one that did not move
or moved the other way.  The list empties at the next re-record.

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
MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_moved(specs: list[str], manifest: dict) -> dict[tuple, tuple]:
    """``--moved`` arguments as ``(workload, name) -> (lower_expected,
    loud)``: whether the declaration says the number goes *down*, and
    whether it is a sim metric declared to get worse.  Raises
    ``ValueError`` for anything that cannot be declared."""
    counts = {m["name"]: m["better"] for m in manifest["per_layer"]}
    sims = {
        m["name"]: m["better"]
        for m in manifest["end_to_end"]
        if m["name"] not in HOST_METRICS
    }
    moved = {}
    for spec in specs:
        workload, _, rest = spec.partition(":")
        name, _, direction = rest.partition(":")
        if direction not in ("", "better", "worse"):
            raise ValueError(
                f"{spec}: direction is ':better', ':worse' or nothing"
            )
        if name in counts:
            better = counts[name]
        elif name in sims:
            if not direction:
                raise ValueError(
                    f"{spec}: a sim metric is declared with its "
                    f"direction, ':better' or ':worse'"
                )
            better = sims[name]
        else:
            raise ValueError(
                f"{spec}: only a sim metric from BENCHMARK.json's "
                f"end_to_end list or a count from its per_layer list "
                f"can be declared"
            )
        if (workload, name) in moved:
            raise ValueError(f"{spec}: {workload}:{name} is declared twice")
        worse = direction == "worse"
        moved[workload, name] = (
            (better == "lower") != worse,
            worse and name in sims,
        )
    return moved


def verdicts(
    base: dict, new: dict, moved: dict[tuple, tuple]
) -> list[tuple[bool, str]]:
    """``(passes, line)`` per exact number that is missing or differs
    from the baseline, and per declaration nothing matched.  Only a
    declared number that moved the declared way passes."""
    out = []
    unmatched = dict(moved)
    for workload, entry in base["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None:
            out.append(
                (False, f"MOVED {workload}: missing from the new record")
            )
            continue
        for section in EXACT_SECTIONS:
            for name, want in entry[section].items():
                got = fresh[section].get(name)
                what = f"{workload}: {section}.{name}"
                if got is None:
                    out.append((False, f"MOVED {what} missing"))
                    continue
                if abs(got - want) <= EXACT_REL * abs(want):
                    continue
                values = f"= {got!r}, baseline {want!r}"
                declared = unmatched.pop((workload, name), None)
                if declared is None:
                    out.append((False, f"MOVED {what} {values}"))
                    continue
                lower_expected, loud = declared
                if (got < want) != lower_expected:
                    out.append(
                        (
                            False,
                            f"MOVED (declared the other way) {what} {values}",
                        )
                    )
                elif loud:
                    out.append(
                        (
                            True,
                            f"MOVED (declared WORSE) {what} {values}\n"
                            f"::warning::{what} is declared to get worse",
                        )
                    )
                else:
                    out.append((True, f"MOVED (declared) {what} {values}"))
    out.extend(
        (False, f"STALE --moved {workload}:{name}: equals the baseline")
        for workload, name in unmatched
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
    parser.add_argument(
        "--moved",
        action="append",
        default=[],
        metavar="WORKLOAD:NAME[:better|:worse]",
        help=(
            "a count, or with its direction a sim metric, this change "
            "is declared to move (repeatable)"
        ),
    )
    args = parser.parse_args(argv)
    base = json.loads(args.baseline.read_text())
    new = json.loads(args.new.read_text())
    try:
        moved = parse_moved(args.moved, json.loads(MANIFEST.read_text()))
    except ValueError as exc:
        parser.error(str(exc))

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
    found = verdicts(base, new, moved)
    for _, line in found:
        print(line)
    checked = sum(
        len(entry[section])
        for entry in base["workloads"].values()
        for section in EXACT_SECTIONS
    )
    differ = sum(line.startswith("MOVED") for _, line in found)
    print(f"{differ} of {checked} sim/count values differ from baseline")
    return 0 if all(passes for passes, _ in found) else 1


if __name__ == "__main__":
    sys.exit(main())
