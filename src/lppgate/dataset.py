"""Labeled corpus construction: correctness labels, resampling, splits.

Correctness is binary: z=1 when the emitted decision matches the ground
truth (yes on violating, no on non-violating); abstentions never match and
count as incorrect, which keeps them escalate-prone downstream.

Class imbalance on the training portion is handled by Tomek-link boundary
cleaning, over features z-scored as the trainer z-scores them, followed
by seeded random undersampling of the majority class, with abstention
examples always retained. The nearest neighbours behind the Tomek links
are found one block of rows at a time, at most ``_TOMEK_BLOCK_ENTRIES``
(2**16) distances per block, so memory grows linearly in the number of
rows; a distance within a rounding tolerance of a row's minimum counts as
a tie (see ``tomek_links``). Splitting fixes the number of negative (error)
cases in the test set and carves a validation fraction out of the
remaining training pool, stratified on z.

Every operation takes a ``LabeledRows`` view (item_ids, feature matrix,
z and abstention flags) and is a deterministic function of its contents
and the seed: internal processing uses item_id-sorted order, so permuting
the input rows selects the same item_ids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import OutcomeLabel
from .trainer import standardize_apply, standardize_fit

__all__ = [
    "LabeledRows",
    "ABSTENTIONS",
    "SplitSpec",
    "ResampleConfig",
    "InsufficientNegatives",
    "RatioUnreachableWarning",
    "label_correctness",
    "tomek_links",
    "random_undersample",
    "resample",
    "stratified_split",
]

ABSTENTIONS = (OutcomeLabel.INCONCLUSIVE_EVIDENCE, OutcomeLabel.INCONCLUSIVE_DEFINITION)

#: Most squared distances one row block of tomek_links holds at a time.
_TOMEK_BLOCK_ENTRIES = 1 << 16


class InsufficientNegatives(ValueError):
    """The requested split would leave no negatives to train on."""


class RatioUnreachableWarning(UserWarning):
    """Protected abstention examples alone exceed the undersampling target;
    the target is relaxed upward instead of failing."""


@dataclass(frozen=True, eq=False)
class LabeledRows:
    """Feature rows paired with their labels: one row of X, one z (1 =
    the LLM decision was correct) and one abstention flag per item_id."""

    item_ids: tuple[str, ...]
    X: np.ndarray
    z: np.ndarray
    abstain: np.ndarray

    def __len__(self) -> int:
        return len(self.item_ids)

    def take(self, idx) -> LabeledRows:
        """The rows at positions idx, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return LabeledRows(
            tuple(self.item_ids[i] for i in idx), self.X[idx], self.z[idx], self.abstain[idx]
        )


@dataclass(frozen=True)
class SplitSpec:
    """Dataset-profile split: 150 test negatives for the text profile, 45
    for the multimodal profile."""

    test_negative_count: int
    validation_fraction: float = 0.20
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.test_negative_count < 1:
            raise ValueError("test_negative_count must be positive")


@dataclass(frozen=True)
class ResampleConfig:
    target_majority_ratio: float = 4.0
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.target_majority_ratio) and self.target_majority_ratio > 0):
            raise ValueError(f"target_majority_ratio must be positive and finite, got {self.target_majority_ratio!r}")


def label_correctness(llm_outcome: OutcomeLabel, ground_truth: int) -> int:
    """z=1 iff the decision matches the binary truth; abstentions are 0."""
    if llm_outcome is OutcomeLabel.YES:
        return 1 if ground_truth == 1 else 0
    if llm_outcome is OutcomeLabel.NO:
        return 1 if ground_truth == 0 else 0
    return 0


def _id_order(rows: LabeledRows) -> np.ndarray:
    """Canonical processing order: positions sorted by item_id."""
    return np.array(sorted(range(len(rows)), key=rows.item_ids.__getitem__), dtype=np.intp)


def _majority_label(z: np.ndarray) -> int:
    # Ties count the correct class as majority, matching the usual imbalance
    # direction (most LLM decisions are correct).
    return 1 if int(np.sum(z == 1)) >= int(np.sum(z == 0)) else 0


def tomek_links(rows: LabeledRows) -> np.ndarray:
    """Ascending positions of majority-class members of cross-class
    mutual-1-NN pairs.

    Distances are Euclidean over features z-scored by the trainer's
    standardize_fit/standardize_apply (fit on the input set); distance ties
    resolve to the earlier item in item_id order.

    Squared distances come from the Gram form
    ``sq_i + sq_j - 2 x_i.x_j`` over blocks of rows, each block holding at
    most ``_TOMEK_BLOCK_ENTRIES`` entries, so the memory beyond the
    z-scored copy of X is O(n*d + _TOMEK_BLOCK_ENTRIES) floats rather than
    O(n^2). That form carries a rounding error, and its last bits change
    with how BLAS splits the product, so two neighbours at exactly equal
    distance need not come out equal. Row i's neighbour is therefore the
    earliest column whose squared distance lies within
    ``4 * (d + 3) * eps * (sq_i + max_j sq_j)`` of the row's minimum, a
    bound on the Gram form's error for d features.
    """
    if len(rows) < 2:
        return np.empty(0, dtype=np.intp)
    order = _id_order(rows)
    X = rows.X[order]
    z = rows.z[order]
    if len(np.unique(z)) < 2:
        return np.empty(0, dtype=np.intp)

    Xs = standardize_apply(standardize_fit(X), X)
    n, d = Xs.shape
    sq = np.sum(Xs**2, axis=1)
    tol = 4.0 * (d + 3) * np.finfo(float).eps * (sq + sq.max())
    step = max(1, _TOMEK_BLOCK_ENTRIES // n)
    nn = np.empty(n, dtype=np.intp)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (Xs[lo:hi] @ Xs.T)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        near = d2.min(axis=1) + tol[lo:hi]
        nn[lo:hi] = np.argmax(d2 <= near[:, None], axis=1)  # first True = earliest item

    own = np.arange(n)
    linked = (nn[nn] == own) & (z != z[nn])
    losers = np.where(z == _majority_label(z), own, nn)[linked]
    return np.unique(order[losers])


def random_undersample(rows: LabeledRows, cfg: ResampleConfig) -> LabeledRows:
    """Uniformly drop majority-class rows until majority:minority is at
    most the target ratio.

    Abstention rows are never removed; when the protected rows alone
    exceed the target, the target relaxes upward with a
    RatioUnreachableWarning rather than an error. Minority rows are never
    touched. Input order is preserved in the result.
    """
    majority = rows.z == _majority_label(rows.z)
    n_min = int(np.sum(~majority))
    if n_min == 0:
        return rows
    target_keep = int(cfg.target_majority_ratio * n_min)
    if int(np.sum(majority)) <= target_keep:
        return rows

    protected = majority & rows.abstain
    n_protected = int(np.sum(protected))
    n_sample = target_keep - n_protected
    if n_sample < 0:
        warnings.warn(
            f"{n_protected} protected abstention examples exceed the majority "
            f"target of {target_keep}; keeping all of them",
            RatioUnreachableWarning,
        )
        n_sample = 0

    # Seeded choice over the item_id-sorted droppable pool for permutation
    # invariance.
    order = _id_order(rows)
    droppable = order[(majority & ~protected)[order]]
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(len(droppable), size=min(n_sample, len(droppable)), replace=False)
    keep = ~majority | protected
    keep[droppable[chosen]] = True
    return rows.take(np.flatnonzero(keep))


def resample(rows: LabeledRows, cfg: ResampleConfig) -> tuple[LabeledRows, dict]:
    """Tomek-link cleaning followed by random undersampling; returns the
    reduced rows plus a count report."""
    links = tomek_links(rows)
    cleaned = rows.take(np.setdiff1d(np.arange(len(rows)), links))
    reduced = random_undersample(cleaned, cfg)

    def counts(r: LabeledRows) -> dict:
        return {"total": len(r), "z1": int(np.sum(r.z == 1)), "z0": int(np.sum(r.z == 0))}

    report = {
        "input": counts(rows),
        "tomek_removed": len(links),
        "undersampled": len(cleaned) - len(reduced),
        "output": counts(reduced),
    }
    return reduced, report


def stratified_split(
    rows: LabeledRows, spec: SplitSpec
) -> tuple[list[str], list[str], list[str]]:
    """Partition into (train, validation, test) item_id lists, each in
    item_id order.

    The test set receives exactly spec.test_negative_count z=0 rows plus
    positives matching the overall positive:negative proportion (capped at
    availability); the remainder splits into train/validation with the
    validation fraction stratified on z. Raises InsufficientNegatives when
    the request would exhaust the negatives entirely (an untrainable
    split).
    """
    order = _id_order(rows)
    z = rows.z[order]
    negatives = np.flatnonzero(z == 0)
    positives = np.flatnonzero(z == 1)
    if spec.test_negative_count > len(negatives):
        raise InsufficientNegatives(
            f"requested {spec.test_negative_count} test negatives, have {len(negatives)}"
        )
    if spec.test_negative_count == len(negatives):
        raise InsufficientNegatives("split would leave zero negatives for training")
    if positives.size == 0:
        raise ValueError("no positive (z=1) examples to split")

    # Each draw is a seeded sample from an item_id-sorted pool, in the fixed
    # order: test negatives, test positives, validation negatives, positives.
    rng = np.random.default_rng(spec.seed)

    def draw(pool: np.ndarray, count: int, into: np.ndarray) -> None:
        into[pool[rng.choice(len(pool), size=count, replace=False)]] = True

    test = np.zeros(len(order), dtype=bool)
    draw(negatives, spec.test_negative_count, test)
    desired_pos = int(np.floor(spec.test_negative_count * len(positives) / len(negatives) + 0.5))
    draw(positives, min(desired_pos, max(len(positives) - 2, 0)), test)

    pool_neg = negatives[~test[negatives]]
    pool_pos = positives[~test[positives]]
    val_neg_count = int(np.floor(spec.validation_fraction * len(pool_neg) + 0.5))
    val_pos_count = int(np.floor(spec.validation_fraction * len(pool_pos) + 0.5))
    if val_neg_count >= len(pool_neg):
        raise InsufficientNegatives("validation split would leave zero negatives in train")
    if val_pos_count >= len(pool_pos):
        raise ValueError("validation split would leave zero positives in train")
    validation = np.zeros(len(order), dtype=bool)
    draw(pool_neg, val_neg_count, validation)
    draw(pool_pos, val_pos_count, validation)

    def ids(mask: np.ndarray) -> list[str]:
        return [rows.item_ids[i] for i in order[mask]]

    return ids(~test & ~validation), ids(validation), ids(test)
