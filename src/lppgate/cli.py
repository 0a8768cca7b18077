"""Command-line pipeline: synth/generate -> extract -> split -> train ->
sweep -> evaluate -> ablate -> sensitivity.

Configuration precedence is flags > config file > defaults; the defaults
encode the experiment constants (seed 42, top-k 5, top-20 logprobs, tau in
[0.35, 0.70] step 0.005, cost ratio 0.64, and the full hyperparameter
grids). Every artifact-writing command emits exactly one manifest that
hash-chains outputs to inputs. Module errors exit nonzero with a
machine-readable error JSON on stderr and remove partial outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, gateway, pipeline, policy, synth, trainer
from .dataset import ResampleConfig, SplitSpec, stratified_split
from .features import ALL_FAMILIES, FeatureFamily, family_of
from .manifest import build_manifest, sha256_file, write_json_atomic, write_text_atomic
from .policy import CostModel
from .schema import read_traces_jsonl, write_traces_jsonl

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    seed: int = 42
    top_k: int = 5
    cost_mis: float = 1.0
    cost_ratio: float = 0.64
    tau_min: float = 0.35
    tau_max: float = 0.70
    tau_step: float = 0.005
    families: list[str] = field(default_factory=lambda: [f.value for f in ALL_FAMILIES])
    dataset_profile: str = "openai-mod"
    test_negatives: int | None = None  # overrides the profile when set
    validation_fraction: float = 0.20
    target_majority_ratio: float = 4.0
    sensitivity_ratios: list[float] = field(default_factory=lambda: [0.4, 0.64, 0.9])

    def __post_init__(self):
        if isinstance(self.top_k, bool) or not isinstance(self.top_k, int) or self.top_k < 1:
            raise ValueError(f"top_k must be an integer of at least 1, got {self.top_k!r}")

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


def _load_config(args) -> RunConfig:
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values.update(json.load(fh))
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**values)

    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "cost_ratio", None) is not None:
        cfg.cost_ratio = args.cost_ratio
    if getattr(args, "cost_mis", None) is not None:
        cfg.cost_mis = args.cost_mis
    if getattr(args, "tau_range", None) is not None:
        lo, hi = (float(v) for v in args.tau_range.split(":"))
        cfg.tau_min, cfg.tau_max = lo, hi
    if getattr(args, "tau_step", None) is not None:
        cfg.tau_step = args.tau_step
    if getattr(args, "families", None) is not None:
        cfg.families = [f.strip() for f in args.families.split(",") if f.strip()]
    if getattr(args, "dataset_profile", None) is not None:
        cfg.dataset_profile = args.dataset_profile
    if getattr(args, "test_negatives", None) is not None:
        cfg.test_negatives = args.test_negatives
    return cfg


def _out(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _require_inputs(*paths) -> dict[str, str]:
    """Check declared inputs exist and snapshot their hashes immediately, so
    the manifest chains to the bytes that were actually read."""
    missing = [str(p) for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"declared inputs missing: {missing}")
    return {str(p): sha256_file(p) for p in paths}


# ---------------------------------------------------------------------------
# Commands: each returns (inputs, outputs, extra) for the manifest
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: RunConfig, written: list[str]):
    signal = dict(synth.DEFAULT_SIGNAL)
    if args.signal:
        signal.update(json.loads(args.signal))
    scfg = synth.SynthConfig(
        n_items=args.n_items,
        error_rate=args.error_rate,
        abstention_rate=args.abstention_rate,
        signal=signal,
        cot=args.cot,
        seed=cfg.seed,
    )
    traces, labels = synth.generate_corpus(scfg)
    traces_path = _out(args, "traces.jsonl")
    labels_path = _out(args, "labels.csv")
    write_traces_jsonl(traces, traces_path)
    written.append(traces_path)
    pipeline.save_labels(labels, labels_path)
    written.append(labels_path)
    extra = {"n_items": scfg.n_items, "synth_config": dataclasses.asdict(scfg)}
    return [], [traces_path, labels_path], extra


def cmd_generate(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(args.items)
    template = gateway.load_template(args.template)
    if args.stub:
        inputs.update(_require_inputs(args.stub))
        provider = gateway.StubProvider.from_file(args.stub)
    else:
        if not (args.endpoint and args.model_name):
            raise ValueError("--endpoint and --model-name are required without --stub")
        provider = gateway.HttpProvider(args.endpoint, args.model_name)
    decoding = gateway.DEFAULT_DECODING
    if args.allow_decoding_override:
        decoding = gateway.DecodingConfig(
            temperature=args.temperature,
            top_p=args.top_p,
            n=1,
            max_output_tokens=args.max_output_tokens,
            top_logprobs=args.top_logprobs,
        )
    items = []
    with open(args.items, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                items.append(json.loads(line))
    result = gateway.run_inference(
        items,
        template,
        provider,
        decoding=decoding,
        allow_decoding_override=args.allow_decoding_override,
        pool_width=args.pool_width,
    )
    traces_path = _out(args, "traces.jsonl")
    write_traces_jsonl(result.traces, traces_path)
    written.append(traces_path)
    extra = {
        "template": template.id,
        "decoding": dataclasses.asdict(decoding),
        "decoding_override": bool(args.allow_decoding_override),
        "items": len(items),
        "accepted": len(result.traces),
        "give_ups": result.give_ups,
        "gray_box_unavailable": result.no_logprobs,
    }
    return inputs, [traces_path], extra


def cmd_extract(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(args.traces)
    traces = read_traces_jsonl(args.traces)
    table = pipeline.extract_table(traces, cfg.family_set(), k=cfg.top_k)
    features_path = _out(args, "features.csv")
    sidecar_path = _out(args, "features.families.json")
    pipeline.save_features(table, features_path, sidecar_path)
    written += [features_path, sidecar_path]
    extra = {
        "rows": len(table.item_ids),
        "columns": len(table.names),
        "families": sorted({family_of(name) for name in table.names}),
        "invalid_items": sorted(table.invalid_ids),
    }
    return inputs, [features_path, sidecar_path], extra


def cmd_split(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(args.features, args.features_sidecar, args.labels)
    table = pipeline.load_features(args.features, args.features_sidecar)
    labels = pipeline.load_labels(args.labels)
    split = stratified_split(pipeline.build_examples(table, labels), cfg.split_spec())
    ids = dict(zip(("train", "validation", "test"), split))
    outputs = []
    for name in ("train", "validation", "test"):
        path = _out(args, f"{name}_ids.txt")
        pipeline.write_id_list(ids[name], path)
        written.append(path)
        outputs.append(path)
    extra = {
        "counts": {name: len(ids[name]) for name in ids},
        "split": dataclasses.asdict(cfg.split_spec()),
    }
    return inputs, outputs, extra


def cmd_train(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(args.features, args.features_sidecar, args.labels, args.train_ids)
    table = pipeline.load_features(args.features, args.features_sidecar)
    labels = pipeline.load_labels(args.labels)
    train_ids = pipeline.read_id_list(args.train_ids)
    space = trainer.default_grid() if not args.quick_grid else _quick_grid()
    gate, report = pipeline.train_gate(
        table, labels, train_ids, cfg.resample_config(), space, cfg.seed
    )
    model_path = _out(args, "model.json")
    report_path = _out(args, "train_report.json")
    trainer.save_gate(gate, model_path)
    written.append(model_path)
    write_json_atomic(report_path, report)
    written.append(report_path)
    extra = {
        "chosen_config": report["chosen_config"],
        "grid_size": report["grid_size"],
        "distinct_configs": len(trainer.distinct_configs(space)),
    }
    return inputs, [model_path, report_path], extra


def cmd_sweep(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(
        args.model, args.features, args.features_sidecar, args.labels, args.validation_ids
    )
    gate = trainer.load_gate(args.model)
    table = pipeline.load_features(args.features, args.features_sidecar)
    labels = pipeline.load_labels(args.labels)
    validation_ids = pipeline.read_id_list(args.validation_ids)
    result = pipeline.sweep_gate(gate, table, labels, validation_ids, cfg.cost_model(), cfg.tau_grid())
    z_val = pipeline.build_examples(table, labels, validation_ids).z
    report = policy.policy_report(result, z_val, cfg.cost_model(), cfg.sensitivity_ratios)
    # The report goes first: a failure up to here leaves the trained model
    # as it was, while the model rewrite below is atomic and the last step.
    report_path = _out(args, "policy_report.json")
    write_json_atomic(report_path, report)
    written.append(report_path)
    trainer.save_gate(gate, args.model)
    return inputs, [args.model, report_path], {"tau_star": result.tau_star}


def cmd_evaluate(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(
        args.model, args.features, args.features_sidecar, args.labels,
        args.validation_ids, args.test_ids,
    )
    gate = trainer.load_gate(args.model)
    table = pipeline.load_features(args.features, args.features_sidecar)
    labels = pipeline.load_labels(args.labels)
    validation_ids = pipeline.read_id_list(args.validation_ids)
    test_ids = pipeline.read_id_list(args.test_ids)
    results = pipeline.evaluate_methods(
        gate, table, labels, validation_ids, test_ids,
        cfg.cost_model(), cfg.tau_grid(), cfg.sensitivity_ratios,
    )
    csv_text, json_doc = evaluation.emit_report(results)
    csv_path = _out(args, "evaluation.csv")
    json_path = _out(args, "evaluation.json")
    write_text_atomic(csv_path, csv_text)
    written.append(csv_path)
    write_json_atomic(json_path, json_doc)
    written.append(json_path)
    meta_cost = results["meta_model"]["metrics"]["expected_cost"]
    return inputs, [csv_path, json_path], {"meta_expected_cost": meta_cost}


def cmd_ablate(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(args.traces, args.labels)
    traces = read_traces_jsonl(args.traces)
    labels = pipeline.load_labels(args.labels)
    include = cfg.family_set()
    table = pipeline.extract_table(traces, include, k=cfg.top_k)
    drop = list(include) if args.family == "all" else [FeatureFamily(args.family)]
    space = trainer.default_grid() if not args.quick_grid else _quick_grid()
    rows = pipeline.run_ablation(
        table, labels, drop, cfg.split_spec(), cfg.cost_model(),
        resample_cfg=cfg.resample_config(), space=space, grid=cfg.tau_grid(), seed=cfg.seed,
    )
    lines = ["dropped_family,expected_cost,delta_vs_full"]
    lines += [f"{r['dropped_family']},{r['expected_cost']!r},{r['delta_vs_full']!r}" for r in rows]
    csv_path = _out(args, "ablation.csv")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    written.append(csv_path)
    return inputs, [csv_path], {"rows": rows}


def cmd_sensitivity(args, cfg: RunConfig, written: list[str]):
    inputs = _require_inputs(
        args.model, args.features, args.features_sidecar, args.labels, args.test_ids
    )
    gate = trainer.load_gate(args.model)
    table = pipeline.load_features(args.features, args.features_sidecar)
    labels = pipeline.load_labels(args.labels)
    test_ids = pipeline.read_id_list(args.test_ids)
    test, _, trust = pipeline.score_and_route(gate, table, labels, test_ids)
    counts = policy.confusion(trust, test.z)
    if args.r_grid:
        lo, hi, step = (float(v) for v in args.r_grid.split(":"))
        n = int(round((hi - lo) / step)) + 1
        r_values = [round(lo + step * i, 9) for i in range(n)]
    else:
        r_values = [round(0.4 + 0.05 * i, 9) for i in range(11)]
    m = cfg.cost_model()
    # the operating ratio is always on the curve so the main expected cost
    # is recoverable from the sensitivity report
    if m.ratio not in r_values:
        r_values = sorted(set(r_values) | {m.ratio})
    curve = policy.cost_ratio_sensitivity(counts, r_values)
    doc = {
        "tau_star": gate.tau_star,
        "counts": dataclasses.asdict(counts),
        "curve": [{"r": r, "relative_cost": rel} for r, rel in curve],
        "expected_cost": policy.expected_cost(counts, m),
        "cost_model": {"c_mis": m.c_mis, "c_rev": m.c_rev, "ratio": m.ratio},
    }
    json_path = _out(args, "sensitivity.json")
    write_json_atomic(json_path, doc)
    written.append(json_path)
    lines = ["r,relative_cost"] + [f"{r!r},{rel!r}" for r, rel in curve]
    csv_path = _out(args, "sensitivity.csv")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    written.append(csv_path)
    return inputs, [json_path, csv_path], {"tau_star": gate.tau_star}


def _quick_grid() -> list[trainer.RidgeConfig]:
    """Reduced space for smoke runs: alpha x class-weight x calibration."""
    from itertools import product

    return [
        trainer.RidgeConfig(alpha=a, class_weight=cw, calibration=cal)
        for a, cw, cal in product((0.1, 10.0), ("1:1", "balanced"), ("sigmoid", "isotonic"))
    ]


COMMANDS = {
    "synth": cmd_synth,
    "generate": cmd_generate,
    "extract": cmd_extract,
    "split": cmd_split,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "sensitivity": cmd_sensitivity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lppgate", description="trust-or-escalate gate pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cost-ratio", type=float, dest="cost_ratio")
        p.add_argument("--cost-mis", type=float, dest="cost_mis")
        p.add_argument("--tau-range", dest="tau_range", help="LO:HI, e.g. 0.35:0.70")
        p.add_argument("--tau-step", type=float, dest="tau_step")
        p.add_argument("--families", help="comma-separated feature families")
        p.add_argument(
            "--dataset-profile", dest="dataset_profile", choices=("openai-mod", "multimodal")
        )
        p.add_argument("--test-negatives", type=int, dest="test_negatives")

    p = sub.add_parser("synth", help="generate a synthetic corpus with known truth")
    common(p)
    p.add_argument("--n-items", type=int, default=3000)
    p.add_argument("--error-rate", type=float, default=0.15)
    p.add_argument("--abstention-rate", type=float, default=0.03)
    p.add_argument("--signal", help="JSON mapping family -> signal strength")
    p.add_argument("--cot", action="store_true")

    p = sub.add_parser("generate", help="run inference and capture traces")
    common(p)
    p.add_argument("--items", required=True, help="items JSONL")
    p.add_argument("--template", default="text-direct", choices=gateway.TEMPLATE_IDS)
    p.add_argument("--stub", help="stub provider fixture file")
    p.add_argument("--endpoint")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--pool-width", type=int, default=4)
    p.add_argument("--allow-decoding-override", action="store_true")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--max-output-tokens", type=int, default=8096)
    p.add_argument("--top-logprobs", type=int, default=20)

    p = sub.add_parser("extract", help="compute the feature matrix from traces")
    common(p)
    p.add_argument("--traces", required=True)

    p = sub.add_parser("split", help="deterministic stratified split")
    common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--features-sidecar", required=True)
    p.add_argument("--labels", required=True)

    p = sub.add_parser("train", help="grid search and fit the gate")
    common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--features-sidecar", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--train-ids", required=True)
    p.add_argument("--quick-grid", action="store_true", help="reduced grid for smoke runs")

    p = sub.add_parser("sweep", help="choose tau* on validation and freeze it")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--features-sidecar", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--validation-ids", required=True)

    p = sub.add_parser("evaluate", help="meta-model vs baselines on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--features-sidecar", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--validation-ids", required=True)
    p.add_argument("--test-ids", required=True)

    p = sub.add_parser("ablate", help="retrain the gate with each feature family dropped")
    common(p)
    p.add_argument("--traces", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--family", default="all")
    p.add_argument("--quick-grid", action="store_true")

    p = sub.add_parser("sensitivity", help="cost-ratio sensitivity at the frozen tau*")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--features-sidecar", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--test-ids", required=True)
    p.add_argument("--r-grid", dest="r_grid", help="LO:HI:STEP, default 0.4:0.9:0.05")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    written: list[str] = []
    start = time.perf_counter()
    try:
        cfg = _load_config(args)
        inputs, outputs, extra = COMMANDS[args.command](args, cfg, written)
        manifest = build_manifest(
            command=args.command,
            config=dataclasses.asdict(cfg),
            inputs=inputs,
            outputs=outputs,
            timing_s=time.perf_counter() - start,
            extra=extra,
        )
        manifest_path = _out(args, f"{args.command}.manifest.json")
        write_json_atomic(manifest_path, manifest)
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
