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
    assert result["metrics"]["trace.missing"]["value"] == 0
