#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the driver at --tiny size and
checks that
  * each run exits 0, reports correct=true (every invariant held) and no
    failed rounds;
  * --trace 0 emits exactly the end-to-end metrics and --trace 1 exactly the
    per-layer metrics, each with its declared unit;
  * the deterministic metrics (perfbench/metrics.json) repeat exactly for a
    repeated seed and change for a different seed, so a held-out seed is a
    real test.
Exits non-zero on the first workload that fails any check.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED, OTHER_SEED = 3, 4


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n"
                             f"{out.stderr[-3000:]}")
    return json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(workload, result, expected_units):
    check(result["correct"] is True, f"{workload}: correct is not true")
    check(result["failed"] == 0, f"{workload}: {result['failed']} failed rounds")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")
    metrics = result["metrics"]
    check(set(metrics) == set(expected_units),
          f"{workload}: metric names differ: missing "
          f"{sorted(set(expected_units) - set(metrics))}, extra "
          f"{sorted(set(metrics) - set(expected_units))}")
    for name, unit in expected_units.items():
        check(metrics[name]["unit"] == unit,
              f"{workload}: {name} unit {metrics[name]['unit']} != {unit}")


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = json.loads((BENCH_DIR / "metrics.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    det_e2e = [n for n, k in kinds["end_to_end"].items()
               if k["kind"] == "deterministic"]
    det_layer = kinds["per_layer"]["deterministic"]
    check(set(det_e2e) <= set(e2e_units) and set(det_layer) <= set(layer_units),
          "metrics.json names a metric BENCHMARK.json does not declare")

    for workload in (w["name"] for w in spec["workloads"]):
        first = run(workload, SEED, 0)
        again = run(workload, SEED, 0)
        other = run(workload, OTHER_SEED, 0)
        traced = run(workload, SEED, 1)
        traced_again = run(workload, SEED, 1)
        traced_other = run(workload, OTHER_SEED, 1)
        for result in (first, again, other):
            check_result(workload, result, e2e_units)
        for result in (traced, traced_again, traced_other):
            check_result(workload, result, layer_units)

        check(values(first, det_e2e) == values(again, det_e2e),
              f"{workload}: deterministic end-to-end metrics differ for one seed")
        check(values(traced, det_layer) == values(traced_again, det_layer),
              f"{workload}: deterministic per-layer metrics differ for one seed")
        changed = (values(first, det_e2e) != values(other, det_e2e) or
                   values(traced, det_layer) != values(traced_other, det_layer))
        check(changed, f"{workload}: no deterministic metric moved with the seed")
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"selftest: FAILED: {error}", file=sys.stderr)
        sys.exit(1)
