#!/usr/bin/env python3
"""Feature-family ablation study on a synthetic corpus: synth, extract and
split it, then retrain the gate on that split with each family removed and
report the cost increase over the full model.

Example:
    python scripts/run_ablation_study.py --out runs/ablation --n-items 3000
"""

import argparse
import sys
from pathlib import Path

from lppgate.cli import main as lppgate


def run(*argv):
    code = lppgate([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--n-items", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--test-negatives", type=int, default=150)
    parser.add_argument("--family", default="all", help="one family value or 'all'")
    parser.add_argument("--quick-grid", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    common = [
        "--features", out / "features.csv",
        "--features-sidecar", out / "features.families.json",
        "--labels", out / "labels.csv",
        "--seed", args.seed,
    ]
    run("synth", "--out", out, "--n-items", args.n_items, "--seed", args.seed)
    run("extract", "--out", out, "--traces", out / "traces.jsonl", "--seed", args.seed)
    run("split", "--out", out, *common, "--test-negatives", args.test_negatives)
    ablate_args = [
        "ablate", "--out", out, *common,
        "--train-ids", out / "train_ids.txt",
        "--validation-ids", out / "validation_ids.txt",
        "--test-ids", out / "test_ids.txt",
        "--family", args.family,
    ]
    if args.quick_grid:
        ablate_args.append("--quick-grid")
    run(*ablate_args)
    print((out / "ablation.csv").read_text())


if __name__ == "__main__":
    main()
