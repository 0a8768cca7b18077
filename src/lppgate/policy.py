"""Cost-aware trust-or-escalate policy.

A calibrated correctness score s in [0,1] is trusted when s >= tau and
escalated to human review otherwise. The objective is

    C = c_mis * FP + (c_rev - c_mis) * TN + c_rev * FN

with the confusion counted against LLM correctness: trusting a correct
prediction is free (TP), trusting an error misses it (FP, costs c_mis),
escalating an error catches it (TN, review cost offset by the avoided
miss), and escalating a correct prediction wastes a review (FN).

C is not the cost relative to always trusting, which costs
c_mis * (FP + TN). It is the absolute cost c_mis * FP + c_rev * (TN + FN),
every miss plus every review, minus c_mis * TN: each caught error is
credited with the miss it avoided.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CostModel",
    "ConfusionCounts",
    "PolicyResult",
    "decisions_at",
    "confusion",
    "expected_cost",
    "always_trust_cost",
    "tau_grid",
    "sweep_threshold",
    "cost_ratio_sensitivity",
    "policy_report",
    "DEFAULT_TAU_RANGE",
    "DEFAULT_TAU_STEP",
    "DEFAULT_SENSITIVITY_RATIOS",
]

DEFAULT_TAU_RANGE = (0.35, 0.70)
DEFAULT_TAU_STEP = 0.005
DEFAULT_SENSITIVITY_RATIOS = (0.4, 0.64, 0.9)


@dataclass(frozen=True)
class CostModel:
    """Per-item costs: c_mis for an undetected misclassification, c_rev for
    a human review. The default ratio c_rev/c_mis is 0.64."""

    c_mis: float = 1.0
    c_rev: float = 0.64

    def __post_init__(self):
        if self.c_mis <= 0 or self.c_rev <= 0:
            raise ValueError("costs must be positive")

    @property
    def ratio(self) -> float:
        return self.c_rev / self.c_mis


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def escalations(self) -> int:
        return self.tn + self.fn


@dataclass(frozen=True)
class PolicyResult:
    tau_star: float
    expected_cost: float
    escalations: int
    escalation_ratio: float
    counts: ConfusionCounts


def decisions_at(scores: Sequence[float], tau: float) -> np.ndarray:
    """Vectorized routing: boolean array, True = trust."""
    return np.asarray(scores, dtype=float) >= tau


def confusion(decisions: Sequence[bool], z: Sequence[int]) -> ConfusionCounts:
    """Count selector decisions against correctness (positive = trust)."""
    d = np.asarray(decisions, dtype=bool)
    zz = np.asarray(z, dtype=int)
    if d.shape != zz.shape:
        raise ValueError(f"length mismatch: {d.shape} decisions vs {zz.shape} labels")
    return ConfusionCounts(
        tp=int(np.sum(d & (zz == 1))),
        fp=int(np.sum(d & (zz == 0))),
        tn=int(np.sum(~d & (zz == 0))),
        fn=int(np.sum(~d & (zz == 1))),
    )


def expected_cost(c: ConfusionCounts, m: CostModel) -> float:
    """The objective C; may be negative, because each caught error (TN)
    is credited with the c_mis it avoided."""
    return m.c_mis * c.fp + (m.c_rev - m.c_mis) * c.tn + m.c_rev * c.fn


def always_trust_cost(z: Sequence[int], m: CostModel) -> float:
    errors = int(np.sum(np.asarray(z, dtype=int) == 0))
    return m.c_mis * errors


def tau_grid(
    lo: float = DEFAULT_TAU_RANGE[0],
    hi: float = DEFAULT_TAU_RANGE[1],
    step: float = DEFAULT_TAU_STEP,
) -> np.ndarray:
    """Inclusive threshold grid; 71 points for the default range and step."""
    n = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(n), 9)


def sweep_threshold(
    scores: Sequence[float],
    z: Sequence[int],
    m: CostModel,
    grid: np.ndarray | None = None,
) -> PolicyResult:
    """Pick tau* minimizing expected cost over the grid.

    Ties are broken by fewer escalations, then by lower tau; the scores are
    expected to come from the validation split, and tau* is frozen for test
    evaluation afterwards.
    """
    if grid is None:
        grid = tau_grid()
    s = np.asarray(scores, dtype=float)
    best = None
    for tau in grid:
        counts = confusion(s >= tau, z)
        key = (expected_cost(counts, m), counts.escalations, float(tau))
        if best is None or key < best[0]:
            best = (key, counts)
    (cost, escalations, tau_star), counts = best
    return PolicyResult(
        tau_star=tau_star,
        expected_cost=cost,
        escalations=escalations,
        escalation_ratio=escalations / counts.total if counts.total else 0.0,
        counts=counts,
    )


def cost_ratio_sensitivity(
    counts: ConfusionCounts,
    r_values: Sequence[float] = DEFAULT_SENSITIVITY_RATIOS,
) -> list[tuple[float, float]]:
    """Relative cost C/c_mis at the frozen operating point, as a function of
    the cost ratio r = c_rev/c_mis: FP + (r-1)*TN + r*FN. Affine in r with
    slope TN+FN."""
    return [(float(r), counts.fp + (r - 1.0) * counts.tn + r * counts.fn) for r in r_values]


def policy_report(
    result: PolicyResult,
    z: Sequence[int],
    m: CostModel,
    r_values: Sequence[float] = DEFAULT_SENSITIVITY_RATIOS,
) -> dict:
    """JSON-ready policy summary for one evaluation split."""
    c = result.counts
    return {
        "tau_star": result.tau_star,
        "expected_cost": result.expected_cost,
        "always_trust_cost": always_trust_cost(z, m),
        "counts": asdict(c),
        "escalations": result.escalations,
        "escalation_ratio": result.escalation_ratio,
        "cost_model": {"c_mis": m.c_mis, "c_rev": m.c_rev, "ratio": m.ratio},
        "sensitivity": [
            {"r": r, "relative_cost": rel} for r, rel in cost_ratio_sensitivity(c, r_values)
        ],
    }
