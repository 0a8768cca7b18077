#!/usr/bin/env python3
"""Run the whole gate pipeline on a synthetic corpus and print the
trust-vs-escalate comparison table.

Example:
    python scripts/run_end_to_end.py --out runs/demo --n-items 3000
    python scripts/run_end_to_end.py --out runs/quick --n-items 600 \
        --quick-grid --test-negatives 45
"""

import argparse
import json
import sys
from pathlib import Path

from lppgate.cli import main as lppgate, stage_argv


def run(*argv):
    code = lppgate([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--n-items", type=int, default=3000)
    parser.add_argument("--error-rate", type=float, default=0.15)
    parser.add_argument("--abstention-rate", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--test-negatives", type=int, default=150)
    parser.add_argument("--cost-ratio", type=float, default=0.64)
    parser.add_argument("--quick-grid", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    run("synth", "--out", out, "--n-items", args.n_items,
        "--error-rate", args.error_rate, "--abstention-rate", args.abstention_rate,
        "--seed", args.seed)
    common = ["--seed", args.seed, "--cost-ratio", args.cost_ratio]
    flags = {
        "extract": ["--seed", args.seed],
        "split": [*common, "--test-negatives", args.test_negatives],
        "train": [*common, *(["--quick-grid"] if args.quick_grid else [])],
    }
    for command in ("extract", "split", "train", "sweep", "evaluate", "sensitivity"):
        run(*stage_argv(command, out), *flags.get(command, common))

    print((out / "evaluation.csv").read_text())
    report = json.loads((out / "evaluation.json").read_text())
    tau = report["methods"]["meta_model"]["tau_star"]
    print(f"frozen tau* = {tau}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
