#!/usr/bin/env python3
"""Self-test of the benchmark: each workload once, small, in a fresh process.

    python3 benchmarks/selftest.py

For every workload it runs ``run.py --small`` untraced and twice traced and
checks that every metric named in BENCHMARK.json is printed with its unit,
that every job passed its check, that the exact counters repeat across the
two traced runs, and that the window_radius cache counts follow the
workload's design.  It also checks that the benchmark's own t-flat and strip
generators agree with ``mk gen``, and that the benchmark refuses to run
without the library sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
TIMEOUT = 180


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_result(result: dict, declared: list[dict], label: str) -> dict:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']} of {result['attempted']} jobs failed")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared}, f"{label}: metric names")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number")
    return {name: got["value"] for name, got in metrics.items()}


def check_workload(name: str, spec: dict) -> None:
    base = ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--small"]
    code, result, err = run(*base, "--trace", "0")
    check(code == 0 and result is not None, f"{name} untraced run exited {code}: {err}")
    e2e = check_result(result, spec["end_to_end"], f"{name} untraced")
    check(all(v > 0 for v in e2e.values()), f"{name}: an end-to-end metric is 0: {e2e}")

    traced = []
    for _ in range(2):
        code, result, err = run(*base, "--trace", "1")
        check(code == 0 and result is not None, f"{name} traced run exited {code}: {err}")
        traced.append(check_result(result, spec["per_layer"], f"{name} traced"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [{k: v for k, v in t.items() if units[k] in ("count", "bytes")} for t in traced]
    changed = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
    check(not changed, f"{name}: counters differ between identical runs: {changed}")

    layer = traced[0]
    check(layer["trace.missing"] == 0, f"{name}: traced names are missing")
    hits = layer["classifier.window_radius.cache_hits"]
    misses = layer["classifier.window_radius.cache_misses"]
    classified = layer["classifier.classify.calls"]
    if name == "census":
        check((misses, hits) == (1, classified - 1), f"census: {misses} misses, {hits} hits")
    elif name == "windows":
        check((misses, hits) == (classified, 0), f"windows: {misses} misses, {hits} hits")
    else:
        check(classified == 0 and layer["realizer.unsat.nodes"] > 0, "solve: layer split")
    print(f"ok {name}: {result['attempted']} jobs traced, counters repeat")


def check_generators() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import io
    from contextlib import redirect_stdout

    import oracle
    from mkflats import cli, files

    def mk(*argv: str) -> str:
        out = io.StringIO()
        with redirect_stdout(out):
            check(cli.main(list(argv)) == 0, f"mk {' '.join(argv)} failed")
        return out.getvalue()

    faces, delta = oracle.t_flat_window((3, -5), 6)
    check(mk("gen", "t-flat", "--radius", "6", "--center", "3", "-5") == oracle.rdist_text(delta),
          "t-flat generator disagrees with mk gen t-flat")
    region = files.region_text(files.parse_region(oracle.region_text(faces)))
    check(region == oracle.region_text(faces), "region text does not round-trip")
    # mk gen strips cycles the given directions over the rows from the lowest.
    delta = {v: (1, 2)[(oracle.row_index(v, 0) - 1) % 2] for v in oracle.vertices(oracle.rhombus((2, 1), 5, 4))}
    check(mk("gen", "strips", "--axis", "D0", "--rows", "D1,D2", "--size", "5", "4", "--origin", "2", "1")
          == oracle.rdist_text(delta), "strip generator disagrees with mk gen strips")
    print("ok generators agree with mk gen")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran without the library sources")
    print("ok refuses to run without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    check_generators()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
