#!/usr/bin/env python3
"""Spread of the end-to-end metrics over seeds, runs interleaved by workload.

    python3 benchmarks/steadiness.py [--seeds 1-10] [--workloads solve,census]
                                     [--out results.json]

For each seed in turn it runs every workload once (``--trace 0``, the
``run_seconds`` of BENCHMARK.json), so that host drift spreads over all
workloads alike.  It then prints, per workload and metric, the median and
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, help="also write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    runs = []
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "result": result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed jobs\n{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"\n{'workload':<9} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            vals = values[workload][metric["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:<9} {metric['name']:<12} {median:>10.4g} "
                  f"{(q3 - q1) / median:>7.3f} {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
