#!/usr/bin/env python3
"""Size ladder: each CLI stage's wall time and peak RSS at 1k, 3k and 10k
synthetic items, with and without CoT, written to one JSON file.

Example:
    python scripts/bench_ladder.py --out BENCH_ladder.json

Every stage of synth -> extract -> split -> train -> sweep -> evaluate ->
sensitivity runs as its own ``python -m lppgate.cli`` child process, as a
user running the CLI would start it, on the checkout's ``src/``. Per stage
the file records:

- ``timing_s``: the wall time the stage's manifest records, which starts
  after the imports and argument parsing;
- ``process_s``: the child's wall time as seen from here, interpreter
  start-up and imports included;
- ``peak_rss_mb``: the child's peak resident set size. ``os.wait4`` reads
  it for that one child, the number ``RUSAGE_CHILDREN`` gives in a
  wrapper process that runs only that stage (this process's own
  ``RUSAGE_CHILDREN`` only ever grows, so it cannot be read per stage).

Each corpus uses seed 42 and ``--test-negatives`` n/20, and ``train``
searches the full 672-point grid; the file records the grid size ``train``
reports. The chains run in three rounds: round r runs every corpus's whole
chain once before round r+1 starts, so the three runs of one stage lie
minutes apart and a noisy spell of a shared host lands on one of them
rather than on all three. Each number is the median of the three runs;
the file names the host's CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1000, 3000, 10000)
SEED = 42
STAGES = ("synth", "extract", "split", "train", "sweep", "evaluate", "sensitivity")
REPEATS = 3


def stage_argv(stage: str, out: Path, n_items: int, cot: bool) -> list[str]:
    labelled = [
        "--features", out / "features.csv",
        "--features-sidecar", out / "features.families.json",
        "--labels", out / "labels.csv",
    ]
    model = ["--model", out / "model.json"]
    argv = {
        "synth": ["--n-items", n_items, *(["--cot"] if cot else [])],
        "extract": ["--traces", out / "traces.jsonl"],
        "split": [*labelled, "--test-negatives", n_items // 20],
        "train": [*labelled, "--train-ids", out / "train_ids.txt"],
        "sweep": [*labelled, *model, "--validation-ids", out / "validation_ids.txt"],
        "evaluate": [
            *labelled, *model,
            "--validation-ids", out / "validation_ids.txt", "--test-ids", out / "test_ids.txt",
        ],
        "sensitivity": [*labelled, *model, "--test-ids", out / "test_ids.txt"],
    }[stage]
    return [stage, "--out", str(out), "--seed", str(SEED), *(str(a) for a in argv)]


def run_stage(argv: list[str]) -> tuple[float, float]:
    """Run one CLI stage as a child process; returns (wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lppgate.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"lppgate {argv[0]} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def run_ladder(work: Path) -> list[dict]:
    """Every corpus's chain REPEATS times, in rounds; one row per corpus
    with each stage's medians."""
    corpora = [(n_items, cot) for n_items in SIZES for cot in (False, True)]
    runs = {(n_items, cot, stage): [] for n_items, cot in corpora for stage in STAGES}
    manifests = {}
    for round_no in range(1, REPEATS + 1):
        for n_items, cot in corpora:
            out = work / f"{n_items}-{'cot' if cot else 'direct'}"
            for stage in STAGES:
                wall, rss = run_stage(stage_argv(stage, out, n_items, cot))
                manifest = manifests[n_items, cot, stage] = json.loads((out / f"{stage}.manifest.json").read_text())
                runs[n_items, cot, stage].append((manifest["timing_s"], wall, rss))
                kind = "cot" if cot else "direct"
                print(f"round {round_no} {n_items:>6} {kind:<6} {stage:<12} {runs[n_items, cot, stage][-1]}", file=sys.stderr)
    rows = []
    for n_items, cot in corpora:
        stages = {}
        for stage in STAGES:
            timing, wall, rss = np.median(runs[n_items, cot, stage], axis=0)
            stages[stage] = {
                "timing_s": round(float(timing), 4),
                "process_s": round(float(wall), 4),
                "peak_rss_mb": round(float(rss), 1),
            }
        rows.append({
            "n_items": n_items,
            "cot": cot,
            "split_counts": manifests[n_items, cot, "split"]["extra"]["counts"],
            "grid_size": manifests[n_items, cot, "train"]["extra"]["grid_size"],
            "stages": stages,
        })
    return rows


def git_commit() -> str | None:
    """HEAD's hash, with "-dirty" appended when the checkout has changes."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-ladder-") as work:
        rows = run_ladder(Path(work))
    result = {
        "benchmark": "ladder",
        "command": "python scripts/bench_ladder.py",
        "repeats": REPEATS,
        "git_commit": git_commit(),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": SEED,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
