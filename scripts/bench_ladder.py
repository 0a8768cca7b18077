#!/usr/bin/env python3
"""Size ladder: each CLI stage's wall time and peak RSS at 1k, 3k and 10k
synthetic items, with and without CoT, written to one JSON file.

Example:
    python scripts/bench_ladder.py --out BENCH_ladder.json

Every stage of synth -> extract -> split -> train -> sweep -> evaluate ->
sensitivity runs as its own ``python -m lppgate.cli`` child process, as a
user running the CLI would start it, on the checkout's ``src/``, with the
argv ``cli.stage_argv`` builds from that ``src/``. Per stage the file
records:

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
the file names the host's CPU count and its Python and numpy versions.
It names the tree it measured twice: ``git_commit`` is HEAD's hash, with
"-dirty" appended for a checkout with changes, and ``source_digest`` is
the sha256 of ``src/lppgate`` by the rule of perfbench's run record
(``source_sha256``), so two runs on uncommitted trees can be told apart.
The numpy version is part of what a run measures: the corpora are numpy's
random streams (``tests/test_synth.py`` pins synth's draws to numpy's
own), so another numpy may draw other corpora.

The file also records each stage's layers (``layers``). After the
timed rounds, one more chain per corpus runs in a child process that
calls every stage in-process under perfbench's span tracer, with
``perfbench.tracer.TRACED`` extended by ``EXTRA_TRACED`` before it wraps
anything. Per stage and layer the file records calls, total seconds and
self seconds (the time no traced child covers); ``cli.<stage>`` is the
stage's own span, so the self seconds of a stage's spans add up to its
total. Per layer it records the growth of its chain total from 3k to 10k
items, and flags a layer whose growth exceeds ``GROWTH_FLAG`` times the
items' growth. The timed rounds run untraced.

Last, the ``online`` block routes the 1k CoT corpus one trace at a time,
as a deployed gate would, with the ``model.json`` that rung's ``train``
wrote, in a spawned child process. Over ``ONLINE_PASSES`` passes it
records the p50 and p99 microseconds per item of ``schema.token_span`` on
the trace's reasoning triples, ``pipeline.extract_table([trace])``,
``trainer.predict_score`` plus ``policy.decisions_at``, and the three
together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's lppgate, as the stages' children run it
from lppgate import cli  # noqa: E402

SIZES = (1000, 3000, 10000)
SEED = 42
STAGES = ("synth", "extract", "split", "train", "sweep", "evaluate", "sensitivity")
REPEATS = 3
#: Layers the traced chain wraps on top of perfbench.tracer.TRACED.
EXTRA_TRACED = ("manifest.write_csv_atomic",)
GROWTH_SIZES = (3000, 10000)
GROWTH_FLAG = 1.2
#: The corpus the online block routes item by item, and its passes over it.
ONLINE_CORPUS = (1000, True)
ONLINE_PASSES = 3


def stage_argv(stage: str, out: Path, n_items: int, cot: bool) -> list[str]:
    if stage == "synth":
        return [stage, "--out", str(out), "--seed", str(SEED), "--n-items", str(n_items), *(["--cot"] if cot else [])]
    flags = ["--test-negatives", str(n_items // 20)] if stage == "split" else []
    return [*cli.stage_argv(stage, out), "--seed", str(SEED), *flags]


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


def traced_chain(out: str, n_items: int, cot: bool) -> tuple[list[str], dict]:
    """Run one corpus's chain in this process, each stage under its own
    tracer; returns the traced names and {stage: {span: summary}}. Meant
    for a fresh child process: it imports lppgate and perfbench from the
    checkout and wraps their functions for good."""
    sys.path.insert(0, str(ROOT))
    from perfbench import tracer

    tracer.TRACED += EXTRA_TRACED
    stages = {}
    for stage in STAGES:
        t = tracer.Tracer()
        uninstall = t.install()
        try:
            with t.span(f"cli.{stage}"):
                code = cli.main(stage_argv(stage, Path(out), n_items, cot))
        finally:
            uninstall()
        if code != 0:
            raise RuntimeError(f"traced lppgate {stage} exited with {code}")
        stages[stage] = {
            name: {"calls": e["calls"], "s": round(e["s"], 5), "self_s": round(e["self_s"], 5)}
            for name, e in sorted(t.summary().items())
        }
    return list(tracer.TRACED), stages


def run_layers(work: Path) -> dict:
    """One traced chain per corpus, each in a spawned child process, and
    each layer's growth from the first to the second of GROWTH_SIZES."""
    corpora = [(n_items, cot) for n_items in SIZES for cot in (False, True)]
    rows = []
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for n_items, cot in corpora:
            out = work / f"{n_items}-{'cot' if cot else 'direct'}-traced"
            traced, stages = pool.apply(traced_chain, (str(out), n_items, cot))
            print(f"traced {n_items:>6} {'cot' if cot else 'direct'}", file=sys.stderr)
            rows.append({"n_items": n_items, "cot": cot, "stages": stages})
    small, large = GROWTH_SIZES
    limit = GROWTH_FLAG * large / small
    growth = []
    for cot in (False, True):
        totals = {}
        for row in rows:
            if row["cot"] == cot and row["n_items"] in GROWTH_SIZES:
                for layers in row["stages"].values():
                    for name, e in layers.items():
                        totals.setdefault(name, dict.fromkeys(GROWTH_SIZES, 0.0))[row["n_items"]] += e["s"]
        for name, s in sorted(totals.items()):
            ratio = s[large] / s[small] if s[small] > 0 else None
            growth.append({
                "layer": name,
                "cot": cot,
                f"s_{small}": round(s[small], 5),
                f"s_{large}": round(s[large], 5),
                "growth": None if ratio is None else round(ratio, 3),
                "flagged": ratio is not None and ratio > limit,
            })
    return {
        "traced": traced,
        "growth_items": [small, large],
        "growth_flag_above": round(limit, 3),
        "rows": rows,
        "growth": growth,
    }


def online_items(out: str) -> dict:
    """Route every trace of ``out``'s traces.jsonl alone, ONLINE_PASSES
    times; returns each step's p50 and p99 microseconds per item. Meant
    for a fresh child process."""
    from lppgate import pipeline, policy, schema, trainer

    traces = schema.read_traces_jsonl(Path(out) / cli.RUN_FILES["traces"])
    gate = trainer.load_gate(Path(out) / cli.RUN_FILES["model"])
    # each trace's reasoning span as the gateway hands it to token_span
    triples = []
    for t in traces:
        span = t.reasoning
        rows = zip(span.chosen, span.chosen_logprobs.tolist(), span.surfaces, span.logprobs.tolist())
        triples.append(tuple((c, lp, tuple(zip(srf, row))) for c, lp, srf, row in rows))
    clock = time.perf_counter
    steps = {"token_span": [], "extract_table": [], "predict_score+decisions_at": [], "total": []}
    for _ in range(ONLINE_PASSES):
        for trace, span in zip(traces, triples):
            t0 = clock()
            schema.token_span(span)
            t1 = clock()
            table = pipeline.extract_table([trace])
            t2 = clock()
            policy.decisions_at(trainer.predict_score(gate, table.names, table.matrix), gate.tau_star)
            t3 = clock()
            for name, s in zip(steps, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                steps[name].append(s)
    return {
        name: {"p50_us": round(float(np.percentile(v, 50)) * 1e6, 1), "p99_us": round(float(np.percentile(v, 99)) * 1e6, 1)}
        for name, v in steps.items()
    }


def run_online(work: Path) -> dict:
    """The online block for ONLINE_CORPUS, run in a spawned child process
    on the directory the timed rounds left."""
    n_items, cot = ONLINE_CORPUS
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        steps = pool.apply(online_items, (str(work / f"{n_items}-{'cot' if cot else 'direct'}"),))
    print(f"online {n_items:>6} {'cot' if cot else 'direct'}", file=sys.stderr)
    return {"n_items": n_items, "cot": cot, "passes": ONLINE_PASSES, "steps": steps}


def git_commit() -> str | None:
    """HEAD's hash, with "-dirty" appended when the checkout has changes."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """sha256 over src/lppgate's .py and .json files, walked in sorted
    order without __pycache__, each as its path relative to src/ and its
    bytes: the rule of perfbench/run.py's source_digest, which reads the
    working directory, so it is not imported."""
    src = ROOT / "src"
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src / "lppgate"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-ladder-") as work:
        rows = run_ladder(Path(work))
        layers = run_layers(Path(work))
        online = run_online(Path(work))
    result = {
        "benchmark": "ladder",
        "command": "python scripts/bench_ladder.py",
        "repeats": REPEATS,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": SEED,
        "rows": rows,
        "layers": layers,
        "online": online,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
