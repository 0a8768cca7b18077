"""End-to-end orchestration shared by the CLI, the ablation runner, and the
acceptance suite: feature tables, file formats, and the stage functions
(extract, split, train, sweep, evaluate, ablate)."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import evaluation, policy, trainer
from .dataset import (
    ABSTENTIONS,
    LabeledRows,
    ResampleConfig,
    SplitSpec,
    label_correctness,
    resample,
    stratified_split,
)
from .features import (
    ALL_FAMILIES,
    DEFAULT_TOP_K,
    FeatureFamily,
    assemble_feature_vector,
    catalog_names,
    family_of,
)
from .manifest import write_json_atomic, write_text_atomic
from .policy import CostModel, PolicyResult, cost_ratio_sensitivity, decisions_at, sweep_threshold
from .schema import OutcomeLabel, ResponseTrace
from .trainer import TrainedGate, cross_fit_calibrated, grid_search, predict_score

__all__ = [
    "FeatureTable",
    "extract_table",
    "save_features",
    "load_features",
    "save_labels",
    "load_labels",
    "write_id_list",
    "read_id_list",
    "build_examples",
    "score_and_route",
    "train_gate",
    "sweep_gate",
    "evaluate_methods",
    "run_ablation",
    "PROFILE_TEST_NEGATIVES",
]

#: Dataset profiles fix the number of negative (error) cases in the test
#: split: 150 for the text profile, 45 for the multimodal profile.
PROFILE_TEST_NEGATIVES = {"openai-mod": 150, "multimodal": 45}


@dataclass
class FeatureTable:
    """One feature row per valid item; column j is feature names[j], whose
    family is family_of(names[j])."""

    item_ids: list[str]
    names: list[str]
    matrix: np.ndarray
    invalid_ids: list[str] = field(default_factory=list)

    def row_map(self) -> dict[str, int]:
        return {item: i for i, item in enumerate(self.item_ids)}

    def submatrix(self, ids: Sequence[str]) -> np.ndarray:
        rows = self.row_map()
        return self.matrix[[rows[i] for i in ids]]

    def without(self, family: FeatureFamily) -> FeatureTable:
        """The same rows without the columns of one family."""
        keep = [j for j, name in enumerate(self.names) if family_of(name) != family.value]
        if len(keep) == len(self.names):
            raise ValueError(f"family {family.value!r} not in the included set")
        if not keep:
            raise ValueError("cannot drop every feature family")
        names = [self.names[j] for j in keep]
        return FeatureTable(self.item_ids, names, self.matrix[:, keep], self.invalid_ids)


def extract_table(
    traces: Iterable[ResponseTrace],
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
) -> FeatureTable:
    """One feature row per trace, in item_id order, under the column names
    catalog_names(include), all computed in one pass over the corpus; the
    online path is the same call with one trace.

    Rows that are invalid with NoLabelMass or NonFiniteFeature are excluded
    from the matrix and listed in invalid_ids, to be escalated by default
    downstream.
    """
    include = frozenset(include)
    traces = sorted(traces, key=lambda t: t.item_id)
    matrix, invalid = assemble_feature_vector(traces, include, k=k) if traces else (None, {})
    if len(invalid) == len(traces):
        raise ValueError("no valid traces to extract features from")
    keep = [i for i in range(len(traces)) if i not in invalid]
    if invalid:
        matrix = matrix[keep]
    return FeatureTable(
        [traces[i].item_id for i in keep],
        catalog_names(include),
        matrix,
        [traces[i].item_id for i in sorted(invalid)],
    )


def save_features(table: FeatureTable, csv_path, sidecar_path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id"] + table.names)
    for item_id, row in zip(table.item_ids, table.matrix):
        writer.writerow([item_id] + [repr(float(v)) for v in row])
    write_text_atomic(csv_path, buf.getvalue())
    families: dict[str, list[str]] = {}
    for name in table.names:
        families.setdefault(family_of(name), []).append(name)
    write_json_atomic(sidecar_path, {"families": families, "invalid_items": sorted(table.invalid_ids)})


def load_features(csv_path, sidecar_path) -> FeatureTable:
    import json

    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header[1:]
        item_ids, rows = [], []
        for record in reader:
            item_ids.append(record[0])
            rows.append([float(v) for v in record[1:]])
    with open(sidecar_path, encoding="utf-8") as fh:
        invalid_ids = json.load(fh).get("invalid_items", [])
    return FeatureTable(item_ids, names, np.asarray(rows, dtype=float), invalid_ids)


def save_labels(rows: Sequence, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id", "ground_truth", "llm_outcome"])
    for row in rows:
        writer.writerow([row.item_id, row.ground_truth, row.llm_outcome])
    write_text_atomic(path, buf.getvalue())


def load_labels(path) -> dict[str, tuple[int, OutcomeLabel]]:
    labels: dict[str, tuple[int, OutcomeLabel]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            labels[record["item_id"]] = (
                int(record["ground_truth"]),
                OutcomeLabel(int(record["llm_outcome"])),
            )
    return labels


def write_id_list(ids: Sequence[str], path) -> None:
    write_text_atomic(path, "".join(f"{i}\n" for i in ids))


def read_id_list(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def build_examples(
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    ids: Sequence[str] | None = None,
) -> LabeledRows:
    """Pair the feature rows of ids (all rows by default, in table order)
    with their correctness labels; a row without a label is a KeyError."""
    if ids is None:
        ids, X = table.item_ids, table.matrix
    else:
        X = table.submatrix(ids)
    missing = [i for i in ids if i not in labels]
    if missing:
        raise KeyError(f"no label for item {missing[0]!r}")
    outcomes = [labels[i][1] for i in ids]
    z = [label_correctness(o, int(labels[i][0])) for i, o in zip(ids, outcomes)]
    return LabeledRows(
        tuple(ids),
        X,
        np.array(z, dtype=int),
        np.array([o in ABSTENTIONS for o in outcomes], dtype=bool),
    )


def score_and_route(
    gate: TrainedGate,
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    ids: Sequence[str],
) -> tuple[LabeledRows, np.ndarray, np.ndarray]:
    """Score the rows of ids with the gate and route them at its frozen
    tau*: (labelled rows, scores, trust decisions)."""
    if gate.tau_star is None:
        raise ValueError("gate has no frozen threshold; run the sweep first")
    rows = build_examples(table, labels, ids)
    scores = predict_score(gate, table.names, rows.X)
    return rows, scores, decisions_at(scores, gate.tau_star)


def train_gate(
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    train_ids: Sequence[str],
    resample_cfg: ResampleConfig | None = None,
    space: Sequence[trainer.RidgeConfig] | None = None,
    seed: int = 42,
) -> tuple[TrainedGate, dict]:
    """Resample the training split, grid-search the configuration, and fit
    the final cross-fit calibrated gate (threshold still unset)."""
    if resample_cfg is None:
        resample_cfg = ResampleConfig(seed=seed)
    reduced, resample_report = resample(build_examples(table, labels, train_ids), resample_cfg)
    best_cfg, grid_report = grid_search(reduced.X, reduced.z, space=space, seed=seed)
    gate = cross_fit_calibrated(reduced.X, reduced.z, best_cfg, seed=seed, feature_names=table.names)
    report = {
        "resample": resample_report,
        "grid_size": len(grid_report),
        "chosen_config": asdict(best_cfg),
        "grid": grid_report,
    }
    return gate, report


def sweep_gate(
    gate: TrainedGate,
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    validation_ids: Sequence[str],
    cost: CostModel,
    grid: np.ndarray | None = None,
) -> PolicyResult:
    """Choose tau* on validation scores and freeze it into the gate."""
    val = build_examples(table, labels, validation_ids)
    result = sweep_threshold(predict_score(gate, table.names, val.X), val.z, cost, grid)
    gate.tau_star = result.tau_star
    return result


def evaluate_methods(
    gate: TrainedGate,
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    validation_ids: Sequence[str],
    test_ids: Sequence[str],
    cost: CostModel,
    grid: np.ndarray | None = None,
    r_values: Sequence[float] = policy.DEFAULT_SENSITIVITY_RATIOS,
) -> dict[str, dict]:
    """Meta-model at its frozen threshold plus the three single-feature
    baselines (thresholds swept on validation) plus always-trust, all
    evaluated on the test split."""
    test, scores, decisions = score_and_route(gate, table, labels, test_ids)
    val = build_examples(table, labels, validation_ids)

    def entry(tau_star: float, metrics: evaluation.MetricsReport) -> dict:
        sensitivity = cost_ratio_sensitivity(metrics.counts, r_values)
        return {"tau_star": tau_star, "metrics": metrics.to_dict(), "sensitivity": sensitivity}

    meta = evaluation.compute_metrics(scores, decisions, test.z, cost)
    results = {"meta_model": entry(gate.tau_star, meta)}
    for spec in evaluation.BASELINES:
        val_policy, test_metrics = evaluation.run_baseline(
            spec, table.names, val.X, val.z, test.X, test.z, cost, grid
        )
        results[spec.feature] = entry(val_policy.tau_star, test_metrics)

    at_metrics = evaluation.always_trust_report(test.z, cost)
    results["always_trust"] = {"tau_star": None, "metrics": at_metrics.to_dict()}
    return results


def run_ablation(
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    drop_families: Sequence[FeatureFamily],
    split_spec: SplitSpec,
    cost: CostModel,
    resample_cfg: ResampleConfig | None = None,
    space: Sequence[trainer.RidgeConfig] | None = None,
    grid: np.ndarray | None = None,
    seed: int = 42,
) -> list[dict]:
    """Retrain, sweep and route the table once whole and once without each
    dropped family's columns, all on one split of its rows, and report the
    test-cost delta against the full feature set."""
    subsets = [table.without(family) for family in drop_families]
    train_ids, validation_ids, test_ids = stratified_split(build_examples(table, labels), split_spec)

    def test_cost(t: FeatureTable) -> float:
        gate, _ = train_gate(t, labels, train_ids, resample_cfg, space, seed)
        sweep_gate(gate, t, labels, validation_ids, cost, grid)
        test, _, trust = score_and_route(gate, t, labels, test_ids)
        return policy.expected_cost(policy.confusion(trust, test.z), cost)

    full_cost = test_cost(table)
    rows = []
    for family, subset in zip(drop_families, subsets):
        cost_without = test_cost(subset)
        rows.append(
            {
                "dropped_family": family.value,
                "expected_cost": cost_without,
                "delta_vs_full": cost_without - full_cost,
                "full_cost": full_cost,
            }
        )
    return rows
