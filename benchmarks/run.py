#!/usr/bin/env python3
"""Benchmark of the mkflats library and its ``mk`` CLI.

    python3 benchmarks/run.py --workload solve|census|windows --seed N \\
        --seconds S --trace 0|1 [--small]

Run from the root of a checkout; the library is imported from ``src/``.
The run first re-executes itself with ``PYTHONHASHSEED`` set to the seed.
Set-up (import plus input generation) is repeated and its median reported
as ``setup_s``.  With ``--trace 0`` jobs run untraced until ``--seconds``
of job time have passed.  It prints each job's cost in multiples of a
reference operation timed beside it, the set-up time, and peak memory after
the first pass.  With
``--trace 1`` one pass of the workload's jobs runs traced, then the same
pass runs untraced after a fresh import, and the per-layer metrics are
printed with the tracing overhead between the two.  The last line of
standard output is the JSON result; a line before it starting with
``# meta`` records the seed, interpreter, CPU count and source identity.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed.
MIN_SETUPS = 5
MAX_SETUPS = 15
SETUP_SECONDS = 1.5
# The median needs ten samples beyond it.
MIN_JOBS = 21
# About 0.2 ms on a 2-CPU cloud host.
REFERENCE_SIZE = 64
MODULES = ("lattice", "distributions", "realizer", "classifier", "pauli", "render", "files", "cli")


def load_library() -> SimpleNamespace:
    """A fresh import of mkflats from src/, its module caches empty."""
    package = importlib.import_module("mkflats")
    if Path(package.__file__).resolve().parent != SRC / "mkflats":
        raise RuntimeError(f"mkflats imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"mkflats.{name}") for name in MODULES}
    return SimpleNamespace(package=package, MODULES=MODULES, **modules)


def set_up(workload_cls, seed: int, small: bool):
    for name in [m for m in sys.modules if m == "mkflats" or m.startswith("mkflats.")]:
        del sys.modules[name]
    gc.collect()  # the previous import is garbage now; free it untimed
    start = perf_counter()
    lib = load_library()
    work = workload_cls(lib, seed, small)
    return lib, work, perf_counter() - start


@dataclass(frozen=True, order=True)
class _Point:
    a: int
    b: int

    def step(self, da: int, db: int) -> "_Point":
        return _Point(self.a + da, self.b + db)


def reference_op() -> float:
    """Seconds taken by a fixed pure-Python operation of the kind the library
    does: frozen dataclass points, hashing, comparisons and set lookups.
    Timed before and after every job, it measures how fast the host runs at
    that moment: a shared 2-CPU cloud host was seen to swing in speed by up
    to 1.9x within seconds."""
    start = perf_counter()
    seen = set()
    for i in range(REFERENCE_SIZE):
        p = _Point(i & 15, i >> 4)
        q = p.step(1, -1)
        if q in seen or p < q:
            seen.add(q)
        seen.add(p)
    return perf_counter() - start


def measure(work, seconds: float | None = None, jobs: int | None = None, tracer=None) -> dict:
    """Run jobs until ``seconds`` of job time and MIN_JOBS jobs, or exactly
    ``jobs`` jobs.  Only ``Job.run`` is timed; input generation and checks
    happen between timings.  A job's cost is its time divided by the mean
    time of the reference operations just before and after it.  Peak memory
    is read when the first pass ends, so that it measures a fixed amount of
    work however fast the host runs."""
    times, costs, failures = [], [], []
    pass_rss_kb = None
    for job in work.jobs():
        before = reference_op()
        if tracer is not None:
            tracer.enabled = True
        start = perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        after = reference_op()
        times.append(elapsed)
        costs.append(2.0 * elapsed / (before + after))
        if error is None:
            try:
                job.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{job.kind}: {type(error).__name__}: {error}")
        if len(times) == work.pass_len:
            pass_rss_kb = peak_rss_kb()
        if jobs is not None:
            if len(times) >= jobs:
                break
        elif sum(times) >= seconds and len(times) >= MIN_JOBS:
            break
    return {
        "times": times,
        "costs": costs,
        "failures": failures,
        "pass_rss_kb": pass_rss_kb or peak_rss_kb(),
    }


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mkflats").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="a few jobs per pass, for the self-test")
    args = parser.parse_args()

    # String hashes order the library's sets, and the order decides how much
    # work some searches do (window_radius stops early).  Fixing the hash
    # seed by the run's seed makes the same seed repeat the same work.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not (SRC / "mkflats" / "__init__.py").is_file():
        print(f"error: the mkflats sources are missing under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MK_COLOR", None)
    workload_cls = workloads.WORKLOADS[args.workload]

    setup_times = []
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
    ):
        lib, work, elapsed = set_up(workload_cls, args.seed, args.small)
        setup_times.append(elapsed)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
        for name in tracer.missing:
            print(f"warning: traced name {name} no longer exists", file=sys.stderr)
        traced = measure(work, jobs=work.pass_len, tracer=tracer)
        _, work, _ = set_up(workload_cls, args.seed, args.small)
        plain = measure(work, jobs=work.pass_len)
        runs = [traced, plain]
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (sum(traced["costs"]) / sum(plain["costs"]), "ratio")
        metrics["trace.jobs"] = (len(traced["times"]), "count")
    else:
        run = measure(work, seconds=args.seconds)
        runs = [run]
        metrics = {
            "job_cost.p50": (statistics.median(run["costs"]), "ref"),
            "job_cost.mean": (statistics.fmean(run["costs"]), "ref"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (run["pass_rss_kb"] / 1024.0, "MB"),
        }

    attempted = sum(len(r["times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    times = [t for r in runs for t in r["times"]]
    meta = {
        "wall_jobs_per_s": len(times) / sum(times),
        "wall_job_ms_p50": 1000.0 * statistics.median(times),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "python": platform.python_version(),
        "pythonhashseed": os.environ["PYTHONHASHSEED"],
        "nproc": len(os.sched_getaffinity(0)),
        "samples": attempted,
        **source_identity(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    sys.exit(main())
