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

`expected_cost` is the one expression of C: the tau sweep applies it to
the counts of every threshold at once, the sensitivity curve at c_mis = 1
and c_rev = r, and evaluate and ablate to their test splits. The cost
rows of every report (sensitivity, cost model) are built here too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "CostModel",
    "ConfusionCounts",
    "PolicyResult",
    "decisions_at",
    "confusion",
    "expected_cost",
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

    def to_dict(self) -> dict:
        return {"c_mis": self.c_mis, "c_rev": self.c_rev, "ratio": self.ratio}


# (c_mis, c_rev) without CostModel's positivity check: the curve prices r = 0 too
_Prices = NamedTuple("_Prices", [("c_mis", float), ("c_rev", float)])


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

    @property
    def escalation_ratio(self) -> float:
        return self.escalations / self.total if self.total else 0.0


@dataclass(frozen=True)
class PolicyResult:
    tau_star: float
    expected_cost: float
    counts: ConfusionCounts


def decisions_at(scores: Sequence[float], tau: float) -> np.ndarray:
    """Vectorized routing: boolean array, True = trust."""
    return np.asarray(scores, dtype=float) >= tau


def _correctness(z: Sequence[int], shape: tuple) -> np.ndarray:
    """Correctness labels as ints, checked to be 0/1 and to match the
    decisions' (or scores') shape."""
    zz = np.asarray(z)
    binary = (zz == 0) | (zz == 1)
    if not np.all(binary):
        bad = sorted({repr(v) for v in zz[~binary].tolist()})
        raise ValueError(f"correctness labels must be 0 or 1, got {', '.join(bad[:5])}")
    if tuple(shape) != zz.shape:
        raise ValueError(f"length mismatch: {tuple(shape)} decisions vs {zz.shape} labels")
    return zz.astype(int)


def confusion(decisions: Sequence[bool], z: Sequence[int]) -> ConfusionCounts:
    """Count selector decisions against correctness (positive = trust)."""
    d = np.asarray(decisions, dtype=bool)
    zz = _correctness(z, d.shape)
    return ConfusionCounts(
        tp=int(np.sum(d & (zz == 1))),
        fp=int(np.sum(d & (zz == 0))),
        tn=int(np.sum(~d & (zz == 0))),
        fn=int(np.sum(~d & (zz == 1))),
    )


def expected_cost(c: ConfusionCounts, m: CostModel | _Prices) -> float:
    """The objective C, elementwise for counts held as arrays; may be
    negative, because each caught error (TN) is credited with the c_mis it
    avoided."""
    return m.c_mis * c.fp + (m.c_rev - m.c_mis) * c.tn + m.c_rev * c.fn


def tau_grid(
    lo: float = DEFAULT_TAU_RANGE[0],
    hi: float = DEFAULT_TAU_RANGE[1],
    step: float = DEFAULT_TAU_STEP,
) -> np.ndarray:
    """Inclusive threshold grid; 71 points for the default range and step."""
    if not (step > 0 and lo <= hi):
        raise ValueError(f"threshold grid needs step > 0 and lo <= hi, got {lo}:{hi} step {step}")
    n = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(n), 9)


def sweep_threshold(
    scores: Sequence[float],
    z: Sequence[int],
    m: CostModel,
    grid: np.ndarray | None = None,
) -> PolicyResult:
    """Pick tau* minimizing expected cost over the grid.

    Every threshold is counted in one pass: the scores are sorted once, one
    searchsorted gives each tau's escalations (the scores below it, plus
    every nan score, which fails s >= tau), and a cumulative sum of z in
    score order gives FN; TN, TP and FP follow from the totals. The costs
    are `expected_cost`'s expression over those count vectors, so tau* and
    its cost are exactly those of recounting the split at every tau.

    Ties are broken by fewer escalations, then by lower tau, then by the
    earlier grid point; the scores are expected to come from the validation
    split, and tau* is frozen for test evaluation afterwards.
    """
    if grid is None:
        grid = tau_grid()
    if len(grid) == 0:
        raise ValueError("empty threshold grid")
    taus = np.asarray(grid, dtype=float)
    s = np.asarray(scores, dtype=float)
    zz = _correctness(z, s.shape)
    order = np.argsort(s)  # nan scores sort last, and searchsorted agrees
    below = np.searchsorted(s[order], taus, side="left")
    correct_before = np.concatenate(([0], np.cumsum(zz[order])))
    n_nan = int(np.isnan(s).sum())
    n_correct = int(correct_before[-1])
    escalations = below + n_nan
    fn = correct_before[below] + (n_correct - correct_before[len(s) - n_nan])
    tn = escalations - fn
    tp = n_correct - fn
    fp = (len(s) - n_correct) - tn
    cost = expected_cost(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn), m)
    i = np.lexsort((taus, escalations, cost))[0]
    counts = ConfusionCounts(tp=int(tp[i]), fp=int(fp[i]), tn=int(tn[i]), fn=int(fn[i]))
    return PolicyResult(tau_star=float(taus[i]), expected_cost=cost[i].item(), counts=counts)


def cost_ratio_sensitivity(
    counts: ConfusionCounts,
    r_values: Sequence[float] = DEFAULT_SENSITIVITY_RATIOS,
) -> list[dict]:
    """The {"r", "relative_cost"} rows of the frozen operating point: C/c_mis
    as a function of the cost ratio r = c_rev/c_mis, i.e. C at c_mis = 1 and
    c_rev = r, FP + (r-1)*TN + r*FN. Affine in r with slope TN+FN."""
    return [
        {"r": float(r), "relative_cost": expected_cost(counts, _Prices(1.0, float(r)))}
        for r in r_values
    ]


def policy_report(
    result: PolicyResult,
    m: CostModel,
    r_values: Sequence[float] = DEFAULT_SENSITIVITY_RATIOS,
) -> dict:
    """JSON-ready policy summary for one evaluation split."""
    c = result.counts
    return {
        "tau_star": result.tau_star,
        "expected_cost": result.expected_cost,
        "always_trust_cost": m.c_mis * (c.fp + c.tn),
        "counts": asdict(c),
        "escalations": c.escalations,
        "escalation_ratio": c.escalation_ratio,
        "cost_model": m.to_dict(),
        "sensitivity": cost_ratio_sensitivity(c, r_values),
    }
