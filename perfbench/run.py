#!/usr/bin/env python3
"""lppgate benchmark: offline fit, batch routing and online routing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-direct --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it describes the run (commit, versions,
thread settings, input properties, problems found). The exit code is
nonzero when any correctness check fails or the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("fit-direct", "route-online-cot")
#: CPUs this process may run on, read before a run pins its main thread.
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time; sets the number of passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "lppgate")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def run_metadata(args) -> dict:
    import numpy
    import scipy

    blas = {k: os.environ.get(k) for k in BLAS_ENV}
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        blas["pools"] = [{k: p.get(k) for k in ("internal_api", "num_threads")} for p in threadpool_info()]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lppgate", "__init__.py")):
        print(f"error: no program at {os.path.join('src', 'lppgate')}; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lppgate

    if os.path.dirname(os.path.abspath(lppgate.__file__)) != os.path.join(SRC, "lppgate"):
        print(f"error: imported lppgate from {lppgate.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    out_root = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir)
    started = time.perf_counter()
    run = workloads.Run(args.workload, args.seed, args.seconds, work_dir, traced=bool(args.trace))
    try:
        with run.meter.running() if run.meter else contextlib.nullcontext():
            workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.meter:
        run.info["speed"] = run.meter.summary()

    if args.trace:
        metrics = run.layer_metrics()
        spans_path = os.path.join(out_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write(spans_path)
        run.info["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = dict(run.metrics)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    attempted = max(run.attempted, 1)
    failed = min(len(run.problems) + len(run.undetected), attempted)
    run.info["run_s"] = time.perf_counter() - started
    record = {
        "meta": run_metadata(args),
        "info": run.info,
        "failed_share": failed / attempted,
        "problems": run.problems[:50],
        "checks_that_missed_a_corruption": run.undetected,
    }
    print(json.dumps(record, default=str))
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not run.problems and not run.undetected
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
