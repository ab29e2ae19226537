"""Compare two suite records: one row per workload x end-to-end metric.

Verdicts:

``same``        equal (sim metrics: within 1e-9 relative), or resolved
                as worse but by less than the bound
``better``      moved in the good direction by more than the bound, or
                by any resolved amount
``worse``       moved in the bad direction by more than the bound
``unresolved``  the medians differ by less than the bound and the
                difference cannot be told from noise

A host difference is resolved when the two inter-quartile ranges do not
overlap.  Sim metrics repeat exactly for a seed, so between two records
of the same seed their bound is 0 and any difference is resolved;
between different seeds the cross-seed bound from ``spec`` applies and
nothing inside it is.
"""

from __future__ import annotations

import json

from benchmarks.e2e import spec

EXACT_REL = 1e-9


def _stat(record: dict, workload: str, metric: spec.Metric) -> dict:
    entry = record["workloads"][workload]
    if metric.clock == "sim":
        return {"median": entry["sim"][metric.name]}
    return entry["host"][metric.name]


def verdict(
    metric: spec.Metric, base: dict, new: dict, bound: float, resolved: bool
) -> str:
    b, n = base["median"], new["median"]
    if abs(n - b) <= EXACT_REL * abs(b):
        return "same"
    # Signed worsening as a share of the base.
    worse_by = (n - b) / abs(b) * (1 if metric.better == "lower" else -1)
    if abs(worse_by) <= bound or abs(n - b) <= metric.abs_floor:
        if not resolved:
            return "unresolved"
        return "better" if worse_by < 0 else "same"
    return "worse" if worse_by > 0 else "better"


def compare(base: dict, new: dict) -> list[dict]:
    same_seed = base["seed"] == new["seed"]
    rows = []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        for metric in spec.END_TO_END:
            b = _stat(base, workload, metric)
            n = _stat(new, workload, metric)
            if metric.clock == "sim":
                bound = 0.0 if same_seed else metric.bound
                resolved = same_seed
            else:
                bound = metric.bound
                resolved = n["q1"] > b["q3"] or n["q3"] < b["q1"]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "base": b["median"],
                    "new": n["median"],
                    "ratio": n["median"] / b["median"] if b["median"] else 0.0,
                    "bound": bound,
                    "verdict": verdict(metric, b, n, bound, resolved),
                }
            )
    return rows


def main(base_path: str, new_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    rows = compare(base, new)
    print(f"base = {base_path} (seed {base['seed']}), new = {new_path} "
          f"(seed {new['seed']}); ratio = new / base")
    print(f"{'workload':12s} {'metric':24s} {'base':>14s} {'new':>14s} "
          f"{'ratio':>8s} {'bound':>6s}  verdict")
    for r in rows:
        print(
            f"{r['workload']:12s} {r['metric']:24s} {r['base']:14.6g} "
            f"{r['new']:14.6g} {r['ratio']:8.4f} {r['bound']:6.3f}  "
            f"{r['verdict']}"
        )
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(worse)} worse of {len(rows)} rows")
    return 1 if worse else 0
