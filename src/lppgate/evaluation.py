"""Evaluation metrics, single-feature baselines, and comparison reports.

Per-class F1 is computed against correctness with trust as the positive
decision; Macro-F1 averages the two classes. AUC-ROC uses the rank
(Mann-Whitney) statistic with ties credited 1/2, so any strictly
increasing transform of the scores leaves it unchanged. A metric whose
class is absent is reported as absent (None), never as 0.

Every scored method, the meta-model or a baseline, is one ScoredSplit:
its scores and labels on the validation and test halves, and the tau* it
froze on validation. Its test_metrics, the test half routed at tau* by
decisions_at, is the one route from a method's scores to its metrics.

The baselines are one table, BASELINES: method -> (feature column, sign).
A baseline scores items by its column times its sign (entropy's -1 makes
low entropy look confident), min-max rescaled to [0,1] on the validation
split; run_baseline sweeps its threshold there with the meta-model's
sweep_threshold, so the comparison is like for like.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .policy import (
    ConfusionCounts,
    CostModel,
    confusion,
    decisions_at,
    expected_cost,
    sweep_threshold,
)

if TYPE_CHECKING:
    from .dataset import LabeledRows

__all__ = [
    "MetricsReport",
    "ScoredSplit",
    "BASELINES",
    "MissingFeature",
    "auc_roc",
    "per_class_f1",
    "compute_metrics",
    "minmax_rescale",
    "run_baseline",
    "always_trust_report",
    "emit_report",
    "METHOD_ORDER",
    "REPORT_COLUMNS",
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
        return asdict(self)


# method -> (feature column, sign): a baseline's score is column * sign,
# so that higher means more likely correct
BASELINES = {
    "msp": ("outcome_topk.msp", 1.0),
    "top2_margin": ("outcome_topk.margin", 1.0),
    "entropy": ("outcome_topk.entropy", -1.0),
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


def per_class_f1(c: ConfusionCounts) -> tuple[float | None, float | None]:
    """(trust-class F1, error-class F1) of counted decisions; None when the
    class is absent."""
    f1_trust = _f1(c.tp, c.fp, c.fn) if c.tp + c.fn else None
    f1_error = _f1(c.tn, c.fn, c.fp) if c.tn + c.fp else None
    return f1_trust, f1_error


def compute_metrics(
    scores: Sequence[float],
    decisions: Sequence[bool],
    z: Sequence[int],
    m: CostModel,
) -> MetricsReport:
    counts = confusion(decisions, z)
    f1_trust, f1_error = per_class_f1(counts)
    macro = (f1_trust + f1_error) / 2.0 if f1_trust is not None and f1_error is not None else None
    return MetricsReport(
        f1_trust_class=f1_trust,
        f1_error_class=f1_error,
        macro_f1=macro,
        auc_roc=auc_roc(scores, z),
        expected_cost=expected_cost(counts, m),
        escalations=counts.escalations,
        escalation_ratio=counts.escalation_ratio,
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


@dataclass(frozen=True)
class ScoredSplit:
    """One method's scores and correctness labels on the validation and
    test halves of a split, and the threshold it froze on validation (None
    for a gate that sweep has not frozen)."""

    method: str
    val_scores: np.ndarray
    val_z: np.ndarray
    test_scores: np.ndarray
    test_z: np.ndarray
    tau_star: float | None

    def test_metrics(self, m: CostModel) -> MetricsReport:
        """compute_metrics of the test half routed at tau* by decisions_at,
        which refuses a tau* of None."""
        decisions = decisions_at(self.test_scores, self.tau_star)
        return compute_metrics(self.test_scores, decisions, self.test_z, m)


def run_baseline(
    method: str,
    names: Sequence[str],
    val: LabeledRows,
    test: LabeledRows,
    m: CostModel,
    grid: np.ndarray | None = None,
) -> ScoredSplit:
    """The BASELINES method's scored split of the val and test rows, its
    tau* swept on the validation half."""
    column, sign = BASELINES[method]
    if column not in names:
        raise MissingFeature(column)
    col = list(names).index(column)
    raw_val, raw_test = (sign * np.asarray(rows.X, dtype=float)[:, col] for rows in (val, test))
    s_val = minmax_rescale(raw_val, raw_val)
    tau_star = sweep_threshold(s_val, val.z, m, grid).tau_star
    return ScoredSplit(method, s_val, val.z, minmax_rescale(raw_val, raw_test), test.z, tau_star)


def always_trust_report(z_test: Sequence[int], m: CostModel) -> MetricsReport:
    """The cost-insensitive baseline: every decision is trusted."""
    n = len(z_test)
    decisions = np.ones(n, dtype=bool)
    scores = np.ones(n, dtype=float)
    return compute_metrics(scores, decisions, z_test, m)


REPORT_COLUMNS = (
    "method", "tau_star", "f1_trust_class", "f1_error_class", "macro_f1",
    "auc_roc", "expected_cost", "escalations", "escalation_ratio",
)


def emit_report(results: Mapping[str, dict]) -> list[list]:
    """The method comparison as rows of evaluation.csv under REPORT_COLUMNS.

    Rows follow the fixed method order (MSP, top-2 margin, entropy,
    meta-model, then always-trust) for whichever methods are present.
    """
    if not results:
        raise ValueError("no method results to report")
    ordered = [m for m in METHOD_ORDER if m in results]
    ordered += [m for m in results if m not in METHOD_ORDER]
    return [
        [m, results[m].get("tau_star"), *(results[m]["metrics"][k] for k in REPORT_COLUMNS[2:])]
        for m in ordered
    ]
