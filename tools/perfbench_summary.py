#!/usr/bin/env python3
"""Summarises perfbench runs into BENCH_perfbench.json.

    python3 tools/perfbench_summary.py --out BENCH_perfbench.json \\
        --traced TRACED.out... -- RUN.out...

Each RUN.out is the stdout of one `perfbench/run.py ... --trace 0` run: its
`provenance {...}` line and, last, the JSON result line. Per workload the
summary holds the median and interquartile range of every end-to-end metric
BENCHMARK.json names, over those runs; the provenance line of the workload's
traced run (or of its first timed run); and every per-layer metric whose unit
is `count` from the TRACED.out of one `--trace 1` run. Counts are
deterministic, so they are compared exactly; timings only within their
spread.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path):
    """Returns (provenance, result) from one run's stdout."""
    lines = Path(path).read_text().splitlines()
    provenance = None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    if provenance is None or not lines:
        sys.exit(f"{path}: no provenance line")
    return provenance, json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    workloads = {}
    for path in args.runs:
        provenance, result = read_run(path)
        entry = workloads.setdefault(provenance["workload"], {
            "provenance": provenance, "seeds": [], "correct": True,
            "failed": 0, "values": {name: [] for name in units}})
        entry["seeds"].append(provenance["seed"])
        entry["correct"] = entry["correct"] and bool(result["correct"])
        entry["failed"] += int(result["failed"])
        for name in units:
            entry["values"][name].append(result["metrics"][name]["value"])

    summary = {"schema": "rpas_perfbench_summary.v1", "workloads": {}}
    for workload, entry in sorted(workloads.items()):
        out = {"runs": len(entry["seeds"]), "seeds": sorted(entry["seeds"]),
               "all_correct": entry["correct"], "failed": entry["failed"],
               "provenance": entry["provenance"], "end_to_end": {}}
        for name, values in entry["values"].items():
            q1, median, q3 = quartiles(sorted(values))
            out["end_to_end"][name] = {"unit": units[name], "median": median,
                                       "q1": q1, "q3": q3, "iqr": q3 - q1}
        summary["workloads"][workload] = out

    for path in args.traced:
        provenance, result = read_run(path)
        out = summary["workloads"].get(provenance["workload"])
        if out is None:
            sys.exit(f"{path}: no timed runs of {provenance['workload']}")
        out["provenance"] = provenance
        out["counts"] = {"seed": provenance["seed"]}
        for name in count_names:
            if name in result["metrics"]:
                out["counts"][name] = result["metrics"][name]["value"]

    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
