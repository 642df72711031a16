"""One small traced pass of each benchmark workload, so the harness in
``benchmarks/`` keeps running against the library it measures."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["solve", "census", "windows"])
def test_benchmark_workload_runs_small(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.missing"] == 0
    if workload == "census":
        assert metrics["classifier.find_gliders.calls"] == 97
        assert metrics["classifier.gliders_found"] == 2874
        assert metrics["classifier.verdict.StripUnion"] == 74
        assert metrics["classifier.verdict.NoGliderNoRowStructure"] == 12
        # Only the sum is pinned: a t-flat frame fix moves windows between these two.
        tflat = metrics["classifier.verdict.TFlat"]
        assert tflat + metrics["classifier.verdict.BoundaryAmbiguous"] == 11
    if workload == "windows":
        assert metrics["classifier.gliders_found"] == 402
