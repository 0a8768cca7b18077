"""Command-line pipeline: synth/generate -> extract -> split -> train ->
sweep -> evaluate -> ablate -> sensitivity.

Configuration precedence is flags > config file > defaults; the defaults
encode the experiment constants (seed 42, top-k 5, top-20 logprobs, tau in
[0.35, 0.70] step 0.005, cost ratio 0.64, and the full hyperparameter
grids). Every artifact-writing command emits exactly one manifest that
hash-chains outputs to inputs.

Each subcommand's input files are declared once, in `INPUTS`, and their
files in a run directory in `RUN_FILES`. `main` checks and hashes them,
then reads each through its `READERS` entry, so a command gets its inputs
already read. A command takes each output path from `out(name)` just
before writing it and returns only its manifest `extra`: the manifest's
outputs are the paths `out()` handed out plus the inputs `REWRITES` says
the command rewrites. On error `main` prints a JSON error to stderr,
exits 1 and removes every path `out()` handed out, never a rewritten input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time
import types
import typing
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import evaluation, gateway, pipeline, policy, synth, trainer
from .dataset import ResampleConfig, SplitSpec, stratified_split
from .features import ALL_FAMILIES, DEFAULT_TOP_K, FeatureFamily, family_of
from .manifest import build_manifest, sha256_file, write_csv_atomic, write_json_atomic
from .policy import CostModel
from .schema import Reason, read_traces_jsonl, write_traces_jsonl

__all__ = ["main", "RunConfig", "INPUTS", "RUN_FILES", "READERS", "REWRITES", "stage_argv"]


@dataclass
class RunConfig:
    seed: int = 42
    top_k: int = DEFAULT_TOP_K
    cost_mis: float = 1.0
    cost_ratio: float = 0.64
    tau_min: float = policy.DEFAULT_TAU_RANGE[0]
    tau_max: float = policy.DEFAULT_TAU_RANGE[1]
    tau_step: float = policy.DEFAULT_TAU_STEP
    families: list[str] = field(default_factory=lambda: [f.value for f in ALL_FAMILIES])
    dataset_profile: str = "openai-mod"
    test_negatives: int | None = None  # overrides the profile when set
    validation_fraction: float = 0.20
    target_majority_ratio: float = 4.0
    sensitivity_ratios: list[float] = field(default_factory=lambda: list(policy.DEFAULT_SENSITIVITY_RATIOS))

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                expected = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be an integer of at least 1, got {self.top_k!r}")
        if self.dataset_profile not in pipeline.PROFILE_TEST_NEGATIVES:
            profiles = sorted(pipeline.PROFILE_TEST_NEGATIVES)
            raise ValueError(f"config key 'dataset_profile' must be one of {profiles}, got {self.dataset_profile!r}")
        families = [f.value for f in ALL_FAMILIES]
        for family in self.families:
            if family not in families:
                raise ValueError(f"config key 'families' must hold values of {families}, got {family!r}")
        # the derived settings run their own range checks, so a bad value is
        # refused before any stage runs, not by the first stage that reads it
        self.cost_model(), self.tau_grid(), self.split_spec(), self.resample_config()
        for r in self.sensitivity_ratios:
            policy.check_ratio(r, "config key 'sensitivity_ratios'")

    def cost_model(self) -> CostModel:
        return CostModel(c_mis=self.cost_mis, c_rev=self.cost_ratio * self.cost_mis)

    def tau_grid(self) -> np.ndarray:
        return policy.tau_grid(self.tau_min, self.tau_max, self.tau_step)

    def split_spec(self) -> SplitSpec:
        negatives = self.test_negatives
        if negatives is None:
            negatives = pipeline.PROFILE_TEST_NEGATIVES[self.dataset_profile]
        return SplitSpec(
            test_negative_count=negatives,
            validation_fraction=self.validation_fraction,
            seed=self.seed,
        )

    def resample_config(self) -> ResampleConfig:
        return ResampleConfig(target_majority_ratio=self.target_majority_ratio, seed=self.seed)

    def family_set(self) -> tuple[FeatureFamily, ...]:
        return tuple(FeatureFamily(f) for f in self.families)


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. A bool is not a number,
    and an int is a float."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _floats(flag: str, text: str, n: int) -> list[float]:
    """Parse a colon-separated flag value of exactly n numbers."""
    try:
        values = [float(v) for v in text.split(":")]
    except ValueError:
        values = []
    if len(values) != n:
        raise ValueError(f"{flag} takes {n} colon-separated numbers, got {text!r}")
    return values


def _load_config(args) -> RunConfig:
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            kind = type(values).__name__
            raise ValueError(f"--config must hold a JSON object of config keys, got {kind} ({args.config})")
    unknown = set(values) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags: dict = {}
    for name in ("seed", "cost_ratio", "cost_mis", "tau_step", "dataset_profile", "test_negatives"):
        if getattr(args, name) is not None:
            flags[name] = getattr(args, name)
    if args.tau_range is not None:
        flags["tau_min"], flags["tau_max"] = _floats("--tau-range", args.tau_range, 2)
    if args.families is not None:
        flags["families"] = [f.strip() for f in args.families.split(",") if f.strip()]
    # a value set by a flag is rejected here, so a value rejected below came
    # from the file
    RunConfig(**flags)
    try:
        return RunConfig(**{**values, **flags})
    except ValueError as exc:
        raise ValueError(f"{exc} (--config {args.config})") from None


#: Each command's input file dests, in the order of its flags.
INPUTS: dict[str, tuple[str, ...]] = {
    "synth": (),
    "generate": ("items", "stub"),
    "extract": ("traces",),
    "split": ("features", "features_sidecar", "labels"),
    "train": ("features", "features_sidecar", "labels", "train_ids"),
    "sweep": ("model", "features", "features_sidecar", "labels", "validation_ids"),
    "evaluate": ("model", "features", "features_sidecar", "labels", "validation_ids", "test_ids"),
    "ablate": ("features", "features_sidecar", "labels", "train_ids", "validation_ids", "test_ids"),
    "sensitivity": ("model", "features", "features_sidecar", "labels", "test_ids"),
}

#: Each input's file in a run directory, where the command upstream writes
#: it. perfbench's workloads._stage_argv spells these names too, so they stay.
RUN_FILES = {
    "traces": "traces.jsonl",
    "labels": "labels.csv",
    "features": "features.csv",
    "features_sidecar": "features.families.json",
    "train_ids": "train_ids.txt",
    "validation_ids": "validation_ids.txt",
    "test_ids": "test_ids.txt",
    "model": "model.json",
}

#: How main reads each input, by dest, into what the command gets under
#: that name. The features reader reads the sidecar too, and generate reads
#: its own items and stub. Each reader looks its function up when it runs,
#: so a function rebound in its module is the one called.
READERS = {
    "traces": lambda args: read_traces_jsonl(args.traces),
    "labels": lambda args: pipeline.load_labels(args.labels),
    # the CSV's sha256 comes from main's input snapshot, so each stage hashes it once
    "features": lambda args: pipeline.load_features(
        args.features, args.features_sidecar, csv_sha256=args.snapshot[args.features]
    ),
    "train_ids": lambda args: pipeline.read_id_list(args.train_ids),
    "validation_ids": lambda args: pipeline.read_id_list(args.validation_ids),
    "test_ids": lambda args: pipeline.read_id_list(args.test_ids),
    "model": lambda args: trainer.load_gate(args.model),
}

#: The inputs a command rewrites in place: its manifest lists them among
#: its outputs, and main never removes them on failure.
REWRITES = {"sweep": ("model",)}


def stage_argv(command: str, run_dir: str | os.PathLike) -> list[str]:
    """`command`'s argv on run_dir: --out and each input flag at its
    RUN_FILES path there. The caller adds the flags that name no file; an
    input that is no run-directory file is a ValueError."""
    argv = [command, "--out", str(run_dir)]
    for dest in INPUTS[command]:
        flag = "--" + dest.replace("_", "-")
        if dest not in RUN_FILES:
            raise ValueError(f"{command} reads {flag}, which names no run-directory file")
        argv += [flag, os.path.join(run_dir, RUN_FILES[dest])]
    return argv


def _require_inputs(args) -> dict[str, str]:
    """Check the command's declared input files exist and snapshot their
    hashes before it runs, so the manifest chains to the bytes it read."""
    paths = [getattr(args, dest) for dest in args.inputs if getattr(args, dest) is not None]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"declared inputs missing: {missing}")
    return {p: sha256_file(p) for p in paths}


# ---------------------------------------------------------------------------
# Commands: each gets its read inputs by dest and out(name), the path to
# write an output to, and returns its manifest extra
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: RunConfig, read, out):
    signal = dict(synth.DEFAULT_SIGNAL)
    if args.signal:
        try:
            given = json.loads(args.signal)
        except ValueError as exc:
            raise ValueError(f"--signal is not valid JSON: {exc}") from None
        if not isinstance(given, dict):
            raise ValueError(f"--signal must be a JSON object of family -> strength, got {args.signal}")
        signal.update(given)
    scfg = synth.SynthConfig(
        n_items=args.n_items,
        error_rate=args.error_rate,
        abstention_rate=args.abstention_rate,
        signal=signal,
        cot=args.cot,
        seed=cfg.seed,
    )
    traces, labels = synth.generate_corpus(scfg)
    write_traces_jsonl(traces, out(RUN_FILES["traces"]))
    pipeline.save_labels(labels, out(RUN_FILES["labels"]))
    return {"n_items": scfg.n_items, "synth_config": dataclasses.asdict(scfg)}


def cmd_generate(args, cfg: RunConfig, read, out):
    template = gateway.load_template(args.template)
    if args.stub:
        provider = gateway.StubProvider.from_file(args.stub)
    else:
        if not (args.endpoint and args.model_name):
            raise ValueError("--endpoint and --model-name are required without --stub")
        provider = gateway.HttpProvider(args.endpoint, args.model_name)
    # run_inference refuses non-default values without the override flag.
    decoding = gateway.DecodingConfig(
        temperature=args.temperature,
        top_p=args.top_p,
        n=1,
        max_output_tokens=args.max_output_tokens,
        top_logprobs=args.top_logprobs,
    )
    items = []
    with open(args.items, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                item = json.loads(line)
            except ValueError:
                item = None
            if not isinstance(item, dict) or "item_id" not in item:
                raise ValueError(f"line {n} of {args.items} is not a JSON object with an item_id")
            items.append(item)
    # before any request: a repeated id would be sent twice and traced twice
    pipeline.check_item_ids([str(item["item_id"]) for item in items], args.items)
    result = gateway.run_inference(
        items,
        template,
        provider,
        decoding=decoding,
        allow_decoding_override=args.allow_decoding_override,
        pool_width=args.pool_width,
    )
    write_traces_jsonl(result.traces, out(RUN_FILES["traces"]))
    reasons = result.reasons.items()
    return {
        "template": template.id,
        "decoding": dataclasses.asdict(decoding),
        "decoding_override": bool(args.allow_decoding_override),
        "items": len(items),
        "accepted": len(result.traces),
        "give_ups": [{"item_id": i, "attempts": n, "failure": r.failure} for i, (r, n) in reasons if r.failure],
        "gray_box_unavailable": [i for i, (r, _) in reasons if r is Reason.NO_LOGPROBS],
    }


def cmd_extract(args, cfg: RunConfig, read, out):
    table = pipeline.extract_table(read.traces, cfg.family_set(), k=cfg.top_k)
    csv_path = out(RUN_FILES["features"])
    out(os.path.basename(pipeline.binary_copy_path(csv_path)))
    pipeline.save_features(table, csv_path, out(RUN_FILES["features_sidecar"]))
    return {
        "rows": len(table.item_ids),
        "columns": len(table.names),
        "families": sorted({family_of(name) for name in table.names}),
        "invalid_items": sorted(table.invalid_ids),
    }


def cmd_split(args, cfg: RunConfig, read, out):
    split = stratified_split(pipeline.build_examples(read.features, read.labels), cfg.split_spec())
    counts = {}
    for name, ids in zip(("train", "validation", "test"), split):
        pipeline.write_id_list(ids, out(RUN_FILES[f"{name}_ids"]))
        counts[name] = len(ids)
    return {"counts": counts, "split": dataclasses.asdict(cfg.split_spec())}


def cmd_train(args, cfg: RunConfig, read, out):
    space = _search_space(args)
    gate, report = pipeline.train_gate(
        read.features, read.labels, read.train_ids, cfg.resample_config(), space, cfg.seed
    )
    trainer.save_gate(gate, out(RUN_FILES["model"]))
    write_json_atomic(out("train_report.json"), report)
    return {
        "chosen_config": report["chosen_config"],
        "grid_size": report["grid_size"],
        "distinct_configs": len(trainer.distinct_configs(space)),
        "tomek_removed": report["resample"]["tomek_removed"],
        "undersampled": report["resample"]["undersampled"],
    }


def cmd_sweep(args, cfg: RunConfig, read, out):
    grid = cfg.tau_grid()
    result = pipeline.sweep_gate(read.model, read.features, read.labels, read.validation_ids, cfg.cost_model(), grid)
    report = policy.policy_report(result, cfg.cost_model(), cfg.sensitivity_ratios)
    # The report goes first: a failure up to here leaves the trained model
    # as it was, while the model rewrite below is atomic and the last step.
    write_json_atomic(out("policy_report.json"), report)
    trainer.save_gate(read.model, args.model)
    # a tau* on the grid's edge says the optimum may lie outside the grid
    on_edge = bool(result.tau_star in (grid.min(), grid.max()))
    return {"tau_star": result.tau_star, "tau_star_on_grid_edge": on_edge}


def cmd_evaluate(args, cfg: RunConfig, read, out):
    results = pipeline.evaluate_methods(
        read.model, read.features, read.labels, read.validation_ids, read.test_ids,
        cfg.cost_model(), cfg.tau_grid(), cfg.sensitivity_ratios,
    )
    write_csv_atomic(out("evaluation.csv"), evaluation.REPORT_COLUMNS, evaluation.emit_report(results))
    write_json_atomic(out("evaluation.json"), {"methods": results})
    return {"meta_expected_cost": results["meta_model"]["metrics"]["expected_cost"]}


def cmd_ablate(args, cfg: RunConfig, read, out):
    included = dict.fromkeys(FeatureFamily(family_of(name)) for name in read.features.names)
    drop = list(included) if args.family == "all" else [FeatureFamily(args.family)]
    split = [read.train_ids, read.validation_ids, read.test_ids]
    rows = pipeline.run_ablation(
        read.features, read.labels, drop, split, cfg.cost_model(),
        resample_cfg=cfg.resample_config(), space=_search_space(args), grid=cfg.tau_grid(), seed=cfg.seed,
    )
    columns = ("dropped_family", "expected_cost", "delta_vs_full")
    write_csv_atomic(out("ablation.csv"), columns, ([r[c] for c in columns] for r in rows))
    return {"rows": rows}


def cmd_sensitivity(args, cfg: RunConfig, read, out):
    gate = read.model
    test = pipeline.build_examples(read.features, read.labels, read.test_ids)
    scores = trainer.predict_score(gate, read.features.names, test.X)
    counts = policy.confusion(policy.decisions_at(scores, gate.tau_star), test.z)
    r_grid = _floats("--r-grid", args.r_grid, 3) if args.r_grid else (0.4, 0.9, 0.05)
    r_values = [policy.check_ratio(r, "--r-grid ratio") for r in policy.tau_grid(*r_grid).tolist()]
    m = cfg.cost_model()
    # the operating ratio is always on the curve so the main expected cost
    # is recoverable from the sensitivity report
    if m.ratio not in r_values:
        r_values = sorted(set(r_values) | {m.ratio})
    curve = policy.cost_ratio_sensitivity(counts, r_values)
    doc = {
        "tau_star": gate.tau_star,
        "counts": dataclasses.asdict(counts),
        "curve": curve,
        "expected_cost": policy.expected_cost(counts, m),
        "cost_model": m.to_dict(),
    }
    write_json_atomic(out("sensitivity.json"), doc)
    rows = ([row["r"], row["relative_cost"]] for row in curve)
    write_csv_atomic(out("sensitivity.csv"), ("r", "relative_cost"), rows)
    return {"tau_star": gate.tau_star}


def _search_space(args) -> list[trainer.RidgeConfig]:
    """The full grid, or under --quick-grid a reduced space for smoke runs:
    alpha x class-weight x calibration."""
    if not args.quick_grid:
        return trainer.default_grid()
    return [
        trainer.RidgeConfig(alpha=a, class_weight=cw, calibration=cal)
        for a, cw, cal in product((0.1, 10.0), ("1:1", "balanced"), ("sigmoid", "isotonic"))
    ]


# Help text of the file flags that have any; every file flag is required
# except --stub.
_INPUT_HELP = {"items": "items JSONL", "stub": "stub provider fixture file"}

# A word that starts with "-" and then a digit, ".", inf or nan is a value,
# so `--tau-range -0.1:0.7` and `--cost-ratio -inf` reach the flag. No flag
# of any command starts so: each is "--name" or -h. argparse's own rule
# takes only a plain number such as -1 or -0.5 for a value.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args reads
    it and changes nothing in it, so each call of main starts from the same
    flags and defaults."""
    parser = argparse.ArgumentParser(
        prog="lppgate", description="trust-or-escalate gate pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        """Add a subcommand with the common flags and one --flag per dest
        of INPUTS[name]; main checks, hashes and reads those files before
        run()."""
        p = sub.add_parser(name, help=summary)
        # argparse's parse of each word reads this attribute (3.10, 3.11)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(run=run, inputs=INPUTS[name])
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cost-ratio", type=float, dest="cost_ratio")
        p.add_argument("--cost-mis", type=float, dest="cost_mis")
        p.add_argument("--tau-range", dest="tau_range", help="LO:HI, e.g. 0.35:0.70")
        p.add_argument("--tau-step", type=float, dest="tau_step")
        p.add_argument("--families", help="comma-separated feature families")
        p.add_argument("--dataset-profile", dest="dataset_profile")
        p.add_argument("--test-negatives", type=int, dest="test_negatives")
        for dest in INPUTS[name]:
            p.add_argument("--" + dest.replace("_", "-"), required=dest != "stub", help=_INPUT_HELP.get(dest))
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus with known truth")
    p.add_argument("--n-items", type=int, default=3000)
    p.add_argument("--error-rate", type=float, default=0.15)
    p.add_argument("--abstention-rate", type=float, default=0.03)
    p.add_argument("--signal", help="JSON mapping family -> signal strength")
    p.add_argument("--cot", action="store_true")

    p = command("generate", cmd_generate, "run inference and capture traces")
    p.add_argument("--template", default="text-direct", choices=gateway.TEMPLATE_IDS)
    p.add_argument("--endpoint")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--pool-width", type=int, default=4)
    p.add_argument("--allow-decoding-override", action="store_true")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--max-output-tokens", type=int, default=8096)
    p.add_argument("--top-logprobs", type=int, default=20)

    command("extract", cmd_extract, "compute the feature matrix from traces")
    command("split", cmd_split, "deterministic stratified split")

    p = command("train", cmd_train, "grid search and fit the gate")
    p.add_argument("--quick-grid", action="store_true", help="reduced grid for smoke runs")

    command("sweep", cmd_sweep, "choose tau* on validation and freeze it")
    command("evaluate", cmd_evaluate, "meta-model vs baselines on the test split")

    p = command("ablate", cmd_ablate, "retrain the gate on the run's split with each feature family dropped")
    p.add_argument("--family", default="all")
    p.add_argument("--quick-grid", action="store_true")

    p = command("sensitivity", cmd_sensitivity, "cost-ratio sensitivity at the frozen tau*")
    p.add_argument("--r-grid", dest="r_grid", help="LO:HI:STEP, default 0.4:0.9:0.05")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    written: list[str] = []

    def out(name: str) -> str:
        """Path of an output about to be written; removed if the command fails."""
        os.makedirs(args.out, exist_ok=True)
        written.append(os.path.join(args.out, name))
        return written[-1]

    start = time.perf_counter()
    try:
        cfg = _load_config(args)
        inputs = args.snapshot = _require_inputs(args)
        read = types.SimpleNamespace(**{dest: READERS[dest](args) for dest in args.inputs if dest in READERS})
        extra = args.run(args, cfg, read, out)
        manifest = build_manifest(
            command=args.command,
            config=dataclasses.asdict(cfg),
            inputs=inputs,
            outputs=written + [getattr(args, dest) for dest in REWRITES.get(args.command, ())],
            timing_s=time.perf_counter() - start,
            extra=extra,
        )
        write_json_atomic(out(f"{args.command}.manifest.json"), manifest)
        return 0
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
