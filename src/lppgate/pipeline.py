"""End-to-end orchestration shared by the CLI, the ablation runner, and the
acceptance suite: feature tables, file formats, and the stage functions
(extract, split, train, sweep, evaluate, ablate)."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import evaluation, manifest, policy, trainer
from .dataset import (
    ABSTENTIONS,
    LabeledRows,
    ResampleConfig,
    label_correctness,
    resample,
)
from .features import (
    ALL_FAMILIES,
    DEFAULT_TOP_K,
    FeatureFamily,
    assemble_feature_vector,
    catalog_names,
    family_of,
)
from .manifest import open_atomic, write_csv_atomic, write_json_atomic, write_text_atomic
from .policy import CostModel, PolicyResult, cost_ratio_sensitivity, sweep_threshold
from .schema import OutcomeLabel, Reason, ResponseTrace, check_item_ids
from .trainer import TrainedGate, cross_fit_calibrated, grid_search, predict_score

__all__ = [
    "FeatureTable",
    "check_item_ids",
    "extract_table",
    "save_features",
    "load_features",
    "binary_copy_path",
    "BINARY_COPY_KEY",
    "save_labels",
    "load_labels",
    "write_id_list",
    "read_id_list",
    "build_examples",
    "gate_split",
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
    family is family_of(names[j]). invalid_ids maps each item with no row to
    its Reason, in item order; a table that load_features reads maps each to
    None, since the sidecar records the ids only."""

    item_ids: list[str]
    names: list[str]
    matrix: np.ndarray
    invalid_ids: dict[str, Reason | None] = field(default_factory=dict)

    def row_map(self) -> dict[str, int]:
        return {item: i for i, item in enumerate(self.item_ids)}

    def submatrix(self, ids: Sequence[str]) -> np.ndarray:
        """The rows of ids, in their order; an id with no row is a KeyError
        naming it."""
        rows = self.row_map()
        try:
            return self.matrix[[rows[i] for i in ids]]
        except KeyError as err:
            (item,) = err.args
            invalid = " (extract listed it as invalid)" if item in self.invalid_ids else ""
            raise KeyError(f"item {item!r} has no feature row{invalid}") from None

    def without(self, family: FeatureFamily) -> FeatureTable:
        """The same rows without the columns of one family."""
        keep = [j for j, name in enumerate(self.names) if family_of(name) != family.value]
        if len(keep) == len(self.names):
            raise ValueError(f"family {family.value!r} not in the included set")
        if not keep:
            raise ValueError("cannot drop every feature family")
        names = [self.names[j] for j in keep]
        # take keeps the C order of an extraction of the same columns
        return FeatureTable(self.item_ids, names, self.matrix.take(keep, axis=1), self.invalid_ids)


def extract_table(
    traces: Iterable[ResponseTrace],
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
) -> FeatureTable:
    """One feature row per trace, in item_id order, under the column names
    catalog_names(include), all computed in one pass over the corpus; the
    online path is the same call with one trace.

    Rows invalid with NoLabelMass or NonFiniteFeature are left out of the
    matrix; invalid_ids maps their ids to that exception's reason, to be
    escalated by default. An item_id check_item_ids refuses is a ValueError.
    """
    include = frozenset(include)
    traces = sorted(traces, key=lambda t: t.item_id)
    check_item_ids([t.item_id for t in traces], "the traces")
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
        {traces[i].item_id: invalid[i].reason for i in sorted(invalid)},
    )


#: The sidecar key that records the binary copy of features.csv.
BINARY_COPY_KEY = "binary_copy"


def binary_copy_path(csv_path) -> str:
    """Where save_features puts the binary copy: beside the CSV, under its
    stem with the suffix .npy (features.csv -> features.npy)."""
    return os.path.splitext(os.fspath(csv_path))[0] + ".npy"


def save_features(table: FeatureTable, csv_path, sidecar_path) -> None:
    """Write features.csv, one row per item of its id and repr(float) of
    each value, a binary copy of the table beside it (binary_copy_path),
    and the family sidecar.

    The binary copy holds what the CSV reads back as, in two np.save
    records: the UTF-8 JSON of {"item_ids": [...], "names": [...]} as
    uint8, then the C-ordered float64 matrix, with every NaN stored as the
    one NaN that the CSV's "nan" parses to. JSON keeps each id exactly, a
    trailing NUL included, and the row count with it. The sidecar's
    BINARY_COPY_KEY records the sha256_file of the CSV and of the copy,
    each taken once its file is written; load_features reads the copy only
    while both hold."""
    check_item_ids(table.item_ids, "the feature table")
    matrix = np.ascontiguousarray(table.matrix, dtype=float)
    rows = ([item_id, *row.tolist()] for item_id, row in zip(table.item_ids, matrix))
    write_csv_atomic(csv_path, ["item_id", *table.names], rows)
    nan = np.isnan(matrix)
    if nan.any():
        matrix = np.where(nan, np.nan, matrix)
    header = json.dumps({"item_ids": table.item_ids, "names": table.names}).encode()
    npy_path = binary_copy_path(csv_path)
    # np.save hands a real file the array's own buffer (tofile), not a copy
    with open_atomic(npy_path, "wb") as fh:
        np.save(fh, np.frombuffer(header, dtype=np.uint8))
        np.save(fh, matrix)
    families: dict[str, list[str]] = {}
    for name in table.names:
        families.setdefault(family_of(name), []).append(name)
    copy = {"csv_sha256": manifest.sha256_file(csv_path), "sha256": manifest.sha256_file(npy_path)}
    sidecar = {"families": families, "invalid_items": sorted(table.invalid_ids), BINARY_COPY_KEY: copy}
    write_json_atomic(sidecar_path, sidecar)


def _ignore(_field: str) -> float:
    """np.loadtxt converter of the id column: counted, never parsed."""
    return 0.0


def _parse_csv(csv_path) -> tuple[list[str], list[str], np.ndarray]:
    """Item ids, names and matrix of features.csv. One np.loadtxt parses
    every row, quoted ids included; each id is its line's first field,
    which csv.reader unquotes when it starts with a quote."""
    # universal newlines: \r\n and \r end a line, as they do for csv.reader
    with open(csv_path, encoding="utf-8") as fh:
        # not splitlines(): it also splits at characters an id may hold
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or not lines[0]:
        raise ValueError(f"{csv_path} has no header line")
    names = next(csv.reader(lines[:1]))[1:]
    rows = lines[1:]
    item_ids = [
        next(csv.reader([line]))[0] if line.startswith('"') else line.partition(",")[0] for line in rows
    ]
    check_item_ids(item_ids, csv_path)
    malformed = f"every row of {csv_path} must hold an item_id and {len(names)} values"
    matrix = np.empty((0, len(names) + 1))
    if rows:
        try:
            # comments=None: an id may hold a '#'
            matrix = np.loadtxt(
                rows, delimiter=",", quotechar='"', converters={0: _ignore}, ndmin=2, comments=None
            )
        except ValueError as err:  # a row wider or narrower than the first, or a value no float
            raise ValueError(f"{malformed}: {err}") from None
    # loadtxt skips blank lines
    if matrix.shape != (len(rows), len(names) + 1):
        raise ValueError(malformed)
    return item_ids, names, np.ascontiguousarray(matrix[:, 1:])


def _read_binary_copy(csv_path, sidecar, csv_sha256: str | None):
    """Item ids, names and matrix of the binary copy at
    binary_copy_path(csv_path), or None unless the sidecar records it and
    the CSV's sha256 and the copy's own both equal the recorded ones."""
    copy = sidecar.get(BINARY_COPY_KEY)
    if not isinstance(copy, dict) or not all(isinstance(copy.get(k), str) for k in ("csv_sha256", "sha256")):
        return None
    if (csv_sha256 if csv_sha256 is not None else manifest.sha256_file(csv_path)) != copy["csv_sha256"]:
        return None
    path = binary_copy_path(csv_path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != copy["sha256"]:
        return None
    buf = io.BytesIO(data)
    header = json.loads(np.load(buf, allow_pickle=False).tobytes())
    matrix = np.load(buf, allow_pickle=False)
    item_ids, names = header["item_ids"], header["names"]
    check_item_ids(item_ids, path)
    if matrix.dtype != np.float64 or matrix.shape != (len(item_ids), len(names)):
        raise ValueError(f"{path} must hold {len(item_ids)} rows of {len(names)} float64 values")
    return item_ids, names, np.ascontiguousarray(matrix)


def load_features(csv_path, sidecar_path, *, csv_sha256: str | None = None) -> FeatureTable:
    """Read what save_features wrote: the binary copy the sidecar records
    when the sha256 of features.csv (csv_sha256 if given, else hashed
    here) and of the copy both equal the recorded ones; otherwise the CSV
    itself (_parse_csv). So the CSV stays the source of truth: an edited
    CSV, a changed or missing copy, or a sidecar without the record gives
    the CSV's own rows. Either way the ids pass check_item_ids, the matrix
    must hold one value per name on every row, and the sidecar must be a
    JSON object whose invalid_items is a list of strings, which is checked
    before either matrix is read."""
    with open(sidecar_path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValueError(f"{sidecar_path} must hold a JSON object, got {type(sidecar).__name__}")
    invalid_ids = sidecar.get("invalid_items", [])
    if not isinstance(invalid_ids, list) or not all(isinstance(i, str) for i in invalid_ids):
        raise ValueError(f"'invalid_items' in {sidecar_path} must be a list of item ids, got {invalid_ids!r}")
    read = _read_binary_copy(csv_path, sidecar, csv_sha256)
    item_ids, names, matrix = read if read is not None else _parse_csv(csv_path)
    return FeatureTable(item_ids, names, matrix, dict.fromkeys(invalid_ids))


def save_labels(rows: Sequence, path) -> None:
    check_item_ids([row.item_id for row in rows], "the labels")
    header = ["item_id", "ground_truth", "llm_outcome"]
    write_csv_atomic(path, header, ([r.item_id, r.ground_truth, r.llm_outcome] for r in rows))


#: The field texts load_labels accepts, and what each reads as.
_TRUTH_CODES = {"0": 0, "1": 1}
_OUTCOME_CODES = {str(int(label)): label for label in OutcomeLabel}


def load_labels(path) -> dict[str, tuple[int, OutcomeLabel]]:
    labels: dict[str, tuple[int, OutcomeLabel]] = {}
    item_ids: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        columns = ("item_id", "ground_truth", "llm_outcome")
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{path} has no column {missing[0]!r}")
        i_item, i_truth, i_outcome = (header.index(name) for name in columns)
        width = max(i_item, i_truth, i_outcome) + 1
        for record in reader:
            if not record:
                continue
            if len(record) < width:
                item = record[i_item] if i_item < len(record) else None
                raise ValueError(f"item {item!r} in {path} has {len(record)} fields, not {len(header)}")
            item, truth, outcome = record[i_item], record[i_truth], record[i_outcome]
            z = _TRUTH_CODES.get(truth)
            if z is None:
                raise ValueError(f"item {item!r} has ground_truth {truth}, not 0 or 1, in {path}")
            label = _OUTCOME_CODES.get(outcome)
            if label is None:
                raise ValueError(f"item {item!r} has llm_outcome {outcome}, not one of 0-3, in {path}")
            item_ids.append(item)
            labels[item] = (z, label)
    check_item_ids(item_ids, path)
    return labels


def write_id_list(ids: Sequence[str], path) -> None:
    """One id a line. read_id_list skips blank lines and refuses a list of
    none, so an empty id or list is refused before anything is written."""
    check_item_ids(ids, "the id list")
    if not ids:
        raise ValueError(f"the id list {path} would hold no ids")
    if "" in ids:
        raise ValueError(f"item_id '' cannot be written to the id list {path}: its line would be blank")
    write_text_atomic(path, "".join(f"{i}\n" for i in ids))


def read_id_list(path) -> list[str]:
    """The ids of a file write_id_list wrote; a file of none is refused, as no split is empty."""
    with open(path, encoding="utf-8") as fh:
        # only the terminator goes: an id keeps any spaces it has
        ids = [line.rstrip("\n") for line in fh if line != "\n"]
    if not ids:
        raise ValueError(f"the id list {path} holds no ids")
    check_item_ids(ids, path)
    return ids


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


def gate_split(
    gate: TrainedGate, names: Sequence[str], val: LabeledRows, test: LabeledRows
) -> evaluation.ScoredSplit:
    """The gate's scored split of the val and test rows, at its frozen tau*."""
    val_scores, test_scores = (predict_score(gate, names, rows.X) for rows in (val, test))
    return evaluation.ScoredSplit("meta_model", val_scores, val.z, test_scores, test.z, gate.tau_star)


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
    evaluated on the test split, each scored one through its ScoredSplit.
    The two id lists must be disjoint."""
    test_set = set(test_ids)
    shared = next((i for i in validation_ids if i in test_set), None)
    if shared is not None:
        raise ValueError(f"item_id {shared!r} is in both the validation and the test ids")
    val, test = (build_examples(table, labels, ids) for ids in (validation_ids, test_ids))
    splits = [gate_split(gate, table.names, val, test)]
    splits += [evaluation.run_baseline(method, table.names, val, test, cost, grid) for method in evaluation.BASELINES]
    results = {}
    for split in splits:
        metrics = split.test_metrics(cost)
        sensitivity = cost_ratio_sensitivity(metrics.counts, r_values)
        results[split.method] = {"tau_star": split.tau_star, "metrics": metrics.to_dict(), "sensitivity": sensitivity}

    at_metrics = evaluation.always_trust_report(test.z, cost)
    results["always_trust"] = {"tau_star": None, "metrics": at_metrics.to_dict()}
    return results


def run_ablation(
    table: FeatureTable,
    labels: Mapping[str, tuple[int, OutcomeLabel]],
    drop_families: Sequence[FeatureFamily],
    split: Sequence[Sequence[str]],
    cost: CostModel,
    resample_cfg: ResampleConfig | None = None,
    space: Sequence[trainer.RidgeConfig] | None = None,
    grid: np.ndarray | None = None,
    seed: int = 42,
) -> list[dict]:
    """Retrain, sweep and route the table on split's (train, validation,
    test) ids, once whole, as train..evaluate do, and once without each
    dropped family's columns; report each test-cost delta against the whole."""
    subsets = [table.without(family) for family in drop_families]
    train_ids, validation_ids, test_ids = split

    def test_cost(t: FeatureTable) -> float:
        gate, _ = train_gate(t, labels, train_ids, resample_cfg, space, seed)
        sweep_gate(gate, t, labels, validation_ids, cost, grid)
        val, test = (build_examples(t, labels, ids) for ids in (validation_ids, test_ids))
        return gate_split(gate, t.names, val, test).test_metrics(cost).expected_cost

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
