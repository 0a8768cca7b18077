"""Evaluation metrics, single-feature baselines, and comparison reports.

Per-class F1 is computed against correctness with trust as the positive
decision; Macro-F1 averages the two classes. AUC-ROC uses the rank
(Mann-Whitney) statistic with ties credited 1/2, so any strictly
increasing transform of the scores leaves it unchanged. A metric whose
class is absent is reported as absent (None), never as 0.

Baselines score items by a single feature (MSP, top-2 margin, or entropy
with the low-is-confident orientation flipped), min-max rescaled to [0,1]
on the validation split, and then reuse the exact threshold-sweep
machinery of the meta-model so the comparison is like for like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .policy import (
    ConfusionCounts,
    CostModel,
    PolicyResult,
    confusion,
    cost_ratio_sensitivity,
    expected_cost,
    sweep_threshold,
)

__all__ = [
    "MetricsReport",
    "BaselineSpec",
    "BASELINES",
    "BASELINE_FEATURE_COLUMNS",
    "MissingFeature",
    "auc_roc",
    "per_class_f1",
    "compute_metrics",
    "minmax_rescale",
    "run_baseline",
    "always_trust_report",
    "emit_report",
    "METHOD_ORDER",
]

METHOD_ORDER = ("msp", "top2_margin", "entropy", "meta_model", "always_trust")


class MissingFeature(KeyError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    f1_trust_class: float | None
    f1_error_class: float | None
    macro_f1: float | None
    auc_roc: float | None
    expected_cost: float
    escalations: int
    escalation_ratio: float
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "f1_trust_class": self.f1_trust_class,
            "f1_error_class": self.f1_error_class,
            "macro_f1": self.macro_f1,
            "auc_roc": self.auc_roc,
            "expected_cost": self.expected_cost,
            "escalations": self.escalations,
            "escalation_ratio": self.escalation_ratio,
            "counts": {
                "tp": self.counts.tp,
                "fp": self.counts.fp,
                "tn": self.counts.tn,
                "fn": self.counts.fn,
            },
        }


@dataclass(frozen=True)
class BaselineSpec:
    feature: str
    orientation: str  # "higher_is_correct" or "lower_is_correct"


BASELINES = (
    BaselineSpec("msp", "higher_is_correct"),
    BaselineSpec("top2_margin", "higher_is_correct"),
    BaselineSpec("entropy", "lower_is_correct"),
)

BASELINE_FEATURE_COLUMNS = {
    "msp": "outcome_topk.msp",
    "top2_margin": "outcome_topk.margin",
    "entropy": "outcome_topk.entropy",
}


def auc_roc(scores: Sequence[float], z: Sequence[int]) -> float | None:
    """Rank-statistic AUC with ties counted 1/2; None when a class is absent."""
    s = np.asarray(scores, dtype=float)
    zz = np.asarray(z, dtype=int)
    n_pos = int(np.sum(zz == 1))
    n_neg = len(zz) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # 1-based ranks, tied scores sharing the mean of the positions they span
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    return float((ranks[zz == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _f1(tp: int, fp: int, fn: int) -> float | None:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else None


def per_class_f1(decisions: Sequence[bool], z: Sequence[int]) -> tuple[float | None, float | None]:
    """(trust-class F1, error-class F1); None when the class is absent."""
    c = confusion(decisions, z)
    zz = np.asarray(z, dtype=int)
    f1_trust = _f1(c.tp, c.fp, c.fn) if np.any(zz == 1) else None
    f1_error = _f1(c.tn, c.fn, c.fp) if np.any(zz == 0) else None
    return f1_trust, f1_error


def compute_metrics(
    scores: Sequence[float],
    decisions: Sequence[bool],
    z: Sequence[int],
    m: CostModel,
) -> MetricsReport:
    f1_trust, f1_error = per_class_f1(decisions, z)
    macro = (f1_trust + f1_error) / 2.0 if f1_trust is not None and f1_error is not None else None
    counts = confusion(decisions, z)
    return MetricsReport(
        f1_trust_class=f1_trust,
        f1_error_class=f1_error,
        macro_f1=macro,
        auc_roc=auc_roc(scores, z),
        expected_cost=expected_cost(counts, m),
        escalations=counts.escalations,
        escalation_ratio=counts.escalations / counts.total if counts.total else 0.0,
        counts=counts,
    )


def minmax_rescale(fit_values: np.ndarray, apply_values: np.ndarray) -> np.ndarray:
    """Rescale to [0,1] using the min/max of the fitting split; a constant
    fitting split maps everything to 0.5. Out-of-range values clip."""
    lo = float(np.min(fit_values))
    hi = float(np.max(fit_values))
    if hi == lo:
        return np.full(len(apply_values), 0.5)
    return np.clip((np.asarray(apply_values, dtype=float) - lo) / (hi - lo), 0.0, 1.0)


def _oriented(values: np.ndarray, orientation: str) -> np.ndarray:
    if orientation == "lower_is_correct":
        return -np.asarray(values, dtype=float)
    return np.asarray(values, dtype=float)


def run_baseline(
    spec: BaselineSpec,
    names: Sequence[str],
    X_val: np.ndarray,
    z_val: Sequence[int],
    X_test: np.ndarray,
    z_test: Sequence[int],
    m: CostModel,
    grid: np.ndarray | None = None,
) -> tuple[PolicyResult, MetricsReport]:
    """Sweep the baseline's threshold on validation and evaluate the frozen
    threshold on test; returns (validation policy, test metrics)."""
    column = BASELINE_FEATURE_COLUMNS[spec.feature]
    if column not in names:
        raise MissingFeature(column)
    col = list(names).index(column)
    raw_val = _oriented(np.asarray(X_val, dtype=float)[:, col], spec.orientation)
    raw_test = _oriented(np.asarray(X_test, dtype=float)[:, col], spec.orientation)
    s_val = minmax_rescale(raw_val, raw_val)
    s_test = minmax_rescale(raw_val, raw_test)
    policy = sweep_threshold(s_val, z_val, m, grid)
    decisions = s_test >= policy.tau_star
    return policy, compute_metrics(s_test, decisions, z_test, m)


def always_trust_report(z_test: Sequence[int], m: CostModel) -> MetricsReport:
    """The cost-insensitive baseline: every decision is trusted."""
    n = len(z_test)
    decisions = np.ones(n, dtype=bool)
    scores = np.ones(n, dtype=float)
    return compute_metrics(scores, decisions, z_test, m)


_CSV_COLUMNS = (
    "method",
    "tau_star",
    "f1_trust_class",
    "f1_error_class",
    "macro_f1",
    "auc_roc",
    "expected_cost",
    "escalations",
    "escalation_ratio",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(results: Mapping[str, dict]) -> tuple[str, dict]:
    """Render the method comparison as CSV text plus a JSON-ready dict.

    Rows follow the fixed method order (MSP, top-2 margin, entropy,
    meta-model, then always-trust) for whichever methods are present.
    """
    if not results:
        raise ValueError("no method results to report")
    rows = [",".join(_CSV_COLUMNS)]
    ordered = [m for m in METHOD_ORDER if m in results]
    ordered += [m for m in results if m not in METHOD_ORDER]
    for method in ordered:
        entry = results[method]
        metrics = entry["metrics"]
        row = {
            "method": method,
            "tau_star": entry.get("tau_star"),
            **{k: metrics[k] for k in _CSV_COLUMNS[2:]},
        }
        rows.append(",".join(_fmt(row[c]) for c in _CSV_COLUMNS))
    csv_text = "\n".join(rows) + "\n"
    return csv_text, {"methods": {m: results[m] for m in ordered}}


def sensitivity_consistency(
    counts: ConfusionCounts, m: CostModel
) -> tuple[float, float]:
    """(relative cost at r = c_rev/c_mis, expected cost / c_mis); the two
    must agree, tying the sensitivity curve to the main cost report."""
    [(_, relative)] = cost_ratio_sensitivity(counts, [m.ratio])
    return relative, expected_cost(counts, m) / m.c_mis
