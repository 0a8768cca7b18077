"""Correctness meta-model: weighted ridge, calibration, and grid search.

The gate is a class-weighted ridge regressor on standardized features,

    min_{w,b}  sum_i omega_i (z_i - (w.x_i + b))^2 + alpha ||w||^2

with the intercept unpenalized, solved in closed form by the normal
equations. The grid's tol and max_iter are kept in the configuration and
the reports, but no solver or calibrator reads them. Raw scores are
mapped to probabilities by cross-fit calibration: three stratified folds,
ridge fit on two, the calibrator (Platt sigmoid or isotonic/PAVA) fit on
the held-out fold, and the final score is the fold-pipeline average
clamped to [0,1]. The Platt sigmoid is numpy's own 1 / (1 + exp(-x)),
with exp overflow ignored on purpose, so lppgate runs on numpy alone.

Hyperparameters are chosen by a grid over alpha, tol, max_iter, seven
class-weight configurations, and the two calibrators (672 points), scored
by stratified 3-fold cross-validated F1 of the minority (error) class at
threshold 0.5. A fold is judged by the rule evaluate applies to the test
split: policy.decisions_at routes it, policy.confusion counts it and
evaluation.per_class_f1 gives the F1. Ties go to the earlier point in
enumeration order (alpha, tol, max_iter, class_weight, calibration).
All 672 points are enumerated and reported, but since tol and max_iter
bind nowhere, only the 56 distinct (alpha, class_weight, calibration)
configurations are fitted, and each fold's ridge fit is shared by both
calibrators.

One routine, _fit_pipelines, fits the fold pipelines of the search and of
the final gate alike, each kind of fit in bulk: one fit_ridge_weighted
call per (cross-fit, class weight, fold) solves every alpha from one Gram
matrix, then one calibrator call per calibration kind fits every held-out
fold of that kind. Both calibrators run equal-length fits in lockstep:
fit_platt its Newton steps, fit_isotonic its PAVA passes, each pass
pooling every run of adjacent blocks whose means are equal or decreasing
(a valid PAVA step, so on 0/1 labels every block sum stays an exact
integer). Each fit is bit-identical to fitting it alone, and a Platt fit
that fails falls back to identity on its own. The search then scores
each outer fold once for all configurations: their fold pipelines are
averaged as one stack, routed by one decisions_at call and counted by one
policy.confusion call, row by row.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .evaluation import per_class_f1
from .manifest import sha256_obj, write_json_atomic
from .policy import ConfusionCounts, confusion, decisions_at

__all__ = [
    "ALPHA_GRID",
    "TOL_GRID",
    "MAX_ITER_GRID",
    "CLASS_WEIGHT_GRID",
    "CALIBRATION_GRID",
    "RidgeConfig",
    "Scaler",
    "FoldPipeline",
    "TrainedGate",
    "SingularSystem",
    "NonConvergence",
    "DegenerateFold",
    "FeatureMismatch",
    "standardize_fit",
    "standardize_apply",
    "resolve_class_weights",
    "fit_ridge_weighted",
    "SigmoidCalibrator",
    "IsotonicCalibrator",
    "IdentityCalibrator",
    "fit_platt",
    "fit_isotonic",
    "stratified_kfold_indices",
    "cross_fit_calibrated",
    "default_grid",
    "distinct_configs",
    "grid_search",
    "predict_score",
    "gate_to_dict",
    "gate_from_dict",
    "save_gate",
    "load_gate",
]

ALPHA_GRID = (0.1, 1.0, 10.0, 100.0)
TOL_GRID = (1e-6, 1e-5, 1e-4, 1e-3)
MAX_ITER_GRID = (1000, 2000, 3000)
# Seven class-weight configurations: uniform, cost-informed ratios around
# w0/w1 = 0.64, their inverses/halves/doubles, and frequency-balanced.
CLASS_WEIGHT_GRID = ("1:1", "0.64:1", "1:0.64", "0.5:1", "1:0.5", "2:1", "balanced")
CALIBRATION_GRID = ("sigmoid", "isotonic")

_ARTIFACT_VERSION = 1


class SingularSystem(np.linalg.LinAlgError):
    pass


class NonConvergence(RuntimeError):
    pass


class DegenerateFold(ValueError):
    pass


class FeatureMismatch(ValueError):
    pass


@dataclass(frozen=True)
class RidgeConfig:
    alpha: float = 1.0
    tol: float = 1e-6
    max_iter: int = 1000
    class_weight: str = "1:1"
    calibration: str = "sigmoid"

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        # the grid's own kinds only: a model.json naming another is refused
        if self.class_weight not in CLASS_WEIGHT_GRID:
            raise ValueError(f"class_weight must be one of {CLASS_WEIGHT_GRID}, got {self.class_weight!r}")
        if self.calibration not in CALIBRATION_GRID:
            raise ValueError(f"calibration must be one of {CALIBRATION_GRID}, got {self.calibration!r}")


def default_grid() -> list[RidgeConfig]:
    """The full 672-point hyperparameter space in enumeration order."""
    return [
        RidgeConfig(alpha=a, tol=t, max_iter=m, class_weight=cw, calibration=cal)
        for a, t, m, cw, cal in product(
            ALPHA_GRID, TOL_GRID, MAX_ITER_GRID, CLASS_WEIGHT_GRID, CALIBRATION_GRID
        )
    ]


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray


def standardize_fit(X: np.ndarray) -> Scaler:
    """Per-feature z-score parameters; zero-variance features get std 1."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean=mean, std=std)


def standardize_apply(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - scaler.mean) / scaler.std


# ---------------------------------------------------------------------------
# Weighted ridge
# ---------------------------------------------------------------------------


def resolve_class_weights(name: str, z: np.ndarray) -> tuple[float, float]:
    """Map a named class-weight configuration to (w0, w1).

    "balanced" follows the n/(2*n_c) convention on the fitting labels.
    """
    if name == "balanced":
        z = np.asarray(z, dtype=int)
        n = len(z)
        n0 = int(np.sum(z == 0))
        n1 = n - n0
        if n0 == 0 or n1 == 0:
            raise DegenerateFold("balanced weights need both classes")
        return n / (2.0 * n0), n / (2.0 * n1)
    try:
        w0_str, w1_str = name.split(":")
        return float(w0_str), float(w1_str)
    except ValueError as exc:
        raise ValueError(f"unknown class-weight configuration {name!r}") from exc


def _sample_weights(z: np.ndarray, weights: tuple[float, float]) -> np.ndarray:
    w0, w1 = weights
    if w0 <= 0 or w1 <= 0:
        raise ValueError("class weights must be positive")
    return np.where(np.asarray(z, dtype=int) == 1, w1, w0)


def fit_ridge_weighted(
    X: np.ndarray,
    z: Sequence[int],
    weights: tuple[float, float] = (1.0, 1.0),
    alphas: Sequence[float] = (1.0,),
) -> list[tuple[np.ndarray, float]]:
    """Minimize the weighted ridge objective for each alpha; returns one
    (w, b) per alpha.

    Solves the normal equations of the augmented system with an
    unpenalized intercept. The Gram matrix and right-hand side are built
    once, each alpha's penalty is added to its own copy, and all systems
    are solved by one stacked solve; each (w, b) is bit-identical to
    solving its system alone.
    """
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    if X.ndim != 2 or len(zz) != X.shape[0]:
        raise ValueError("X must be n x d with matching labels")
    omega = _sample_weights(zz, weights)
    n, d = X.shape
    alphas = np.asarray(alphas, dtype=float)

    Xa = np.empty((n, d + 1))
    Xa[:, :d] = X
    Xa[:, d] = 1.0
    penalty = np.zeros((alphas.size, d + 1, d + 1))
    penalty[:, :d, :d] = alphas.reshape(-1, 1, 1) * np.eye(d)
    gram = Xa.T @ (omega[:, None] * Xa) + penalty
    rhs = Xa.T @ (omega * zz)
    try:
        beta = np.linalg.solve(gram, rhs[:, None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return [(row[:d], float(row[d])) for row in beta]


# ---------------------------------------------------------------------------
# Calibrators
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")
def _sigmoid(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise, within 2 ulp
    of the exact value wherever that value is a normal float.

    For x below about -709.78, exp(-x) overflows to inf and the result is
    0.0, less than 1e-307 from the exact value; that overflow is expected,
    so it is ignored on purpose. Only overflow is: a nan in x gives nan,
    and a nan made before the call (a * s with a = -inf and s = 0) still
    raises its invalid-operation warning where it is made."""
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class SigmoidCalibrator:
    """Platt scaling p = sigmoid(a*s + b); a > 0 preserves score order.
    The sigmoid is `_sigmoid`, whose exp overflow for very negative a*s + b
    is ignored on purpose: it gives p = 0.0, not a warning."""

    a: float
    b: float

    def predict(self, scores: np.ndarray) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        return _sigmoid(self.a * s + self.b)

    def to_dict(self) -> dict:
        return {"kind": "sigmoid", "a": self.a, "b": self.b}


@dataclass(frozen=True, eq=False)
class IsotonicCalibrator:
    """Non-decreasing step function; left-constant between knots, clamped.
    The knots and values are the float arrays predict reads: one or more
    strictly increasing knots and one value in [0, 1] per knot, as
    fit_isotonic builds them and _calibrator_from_dict checks them."""

    knots: np.ndarray
    values: np.ndarray

    def predict(self, scores: np.ndarray) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        # searchsorted's result is at most len(knots), so only the lower clamp can bind
        return self.values.take(self.knots.searchsorted(s, side="right") - 1, mode="clip")

    def to_dict(self) -> dict:
        return {"kind": "isotonic", "knots": self.knots.tolist(), "values": self.values.tolist()}


@dataclass(frozen=True)
class IdentityCalibrator:
    """Clamp-only fallback, also used when Platt fails to converge."""

    def predict(self, scores: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(scores, dtype=float), 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"kind": "identity"}


def _calibrator_from_dict(obj: dict):
    kind = obj["kind"]
    if kind == "sigmoid":
        return SigmoidCalibrator(obj["a"], obj["b"])
    if kind == "isotonic":
        knots = np.asarray(obj["knots"], dtype=float)
        values = np.asarray(obj["values"], dtype=float)
        if knots.ndim != 1 or len(knots) == 0:
            raise ValueError("isotonic calibrator needs a non-empty list of knots")
        if values.shape != knots.shape:
            raise ValueError(f"isotonic calibrator has {len(knots)} knots but {values.size} values")
        if not np.all(knots[1:] > knots[:-1]):
            raise ValueError("isotonic knots must be strictly increasing")
        return IsotonicCalibrator(knots, np.clip(values, 0.0, 1.0))
    if kind == "identity":
        return IdentityCalibrator()
    raise ValueError(f"unknown calibrator kind {kind!r}")


def fit_platt(
    scores: Sequence[Sequence[float]],
    z: Sequence[Sequence[int]],
    grad_tol: float = 1e-9,
    max_iter: int = 100,
) -> list[SigmoidCalibrator | NonConvergence]:
    """Fit sigmoid calibration by Newton iterations on smoothed targets, for
    many (scores, labels) pairs at once; returns one result per pair, in
    order: the fitted calibrator, or the NonConvergence that pair's fit
    ended with (returned, not raised, so one failure spares the others).

    Targets are t+ = (N+ + 1)/(N+ + 2) and t- = 1/(N- + 2), which keeps the
    likelihood bounded on separable folds. Convergence is declared when the
    gradient infinity-norm drops below grad_tol; a constant-score input has
    a flat likelihood direction resolved by a = 0. Each step's p comes from
    `_sigmoid`, which ignores exp overflow on purpose (p = 0.0 there); a
    non-finite a*s + b is left to the failure tests below.

    Fits of equal length run their Newton steps in lockstep on one
    (fits, length) array, so every row sum runs over a row of its true
    length and each fit's steps are bit-identical to fitting it alone. A
    fit leaves the loop when its own gradient test passes; it fails after
    max_iter steps, when its own Hessian overflows or is singular, or as
    soon as a step leaves its (a, b) non-finite.
    """
    results: list[SigmoidCalibrator | NonConvergence | None] = [None] * len(scores)
    by_length: dict[int, list[int]] = {}
    for i, (s_i, z_i) in enumerate(zip(scores, z, strict=True)):
        s_i = np.asarray(s_i, dtype=float)
        if np.all(s_i == s_i[0]):
            zz = np.asarray(z_i, dtype=int)
            mean_t = float(_platt_targets(zz[None])[0].mean())
            results[i] = SigmoidCalibrator(a=0.0, b=float(np.log(mean_t / (1.0 - mean_t))))
        else:
            by_length.setdefault(len(s_i), []).append(i)

    for fits in by_length.values():
        S = np.array([scores[i] for i in fits], dtype=float)
        T = _platt_targets(np.array([z[i] for i in fits], dtype=int))
        ab = np.zeros((len(fits), 2))
        ids = np.array(fits)
        for _ in range(max_iter):
            p = _sigmoid(ab[:, :1] * S + ab[:, 1:])
            grad = np.stack([np.sum((p - T) * S, axis=1), np.sum(p - T, axis=1)], axis=1)
            done = np.max(np.abs(grad), axis=1) < grad_tol
            for i, (a, b) in zip(ids[done], ab[done]):
                results[i] = SigmoidCalibrator(a=float(a), b=float(b))
            if done.any():
                keep = ~done
                S, T, ab, ids, p, grad = S[keep], T[keep], ab[keep], ids[keep], p[keep], grad[keep]
            if not len(ids):
                break
            r = p * (1.0 - p) + 1e-12
            with np.errstate(over="ignore"):  # an overflow fails only its own fit, below
                h_ab = np.sum(r * S, axis=1)
                hess = np.stack([np.sum(r * S * S, axis=1), h_ab, h_ab, np.sum(r, axis=1)], axis=1)
            overflow = ~np.isfinite(hess).all(axis=1)
            hess[overflow] = (1.0, 0.0, 0.0, 1.0)  # a stand-in that keeps the stacked solve finite
            steps, singular = _solve_each(hess.reshape(-1, 2, 2), grad)
            ab = ab - steps
            # a singular fit takes a zero step, so its (a, b) stays finite
            failed = overflow | singular | ~np.isfinite(ab).all(axis=1)
            for i, over, is_singular in zip(ids[failed], overflow[failed], singular[failed]):
                why = "singular Hessian" if is_singular else "Newton step left (a, b) non-finite"
                results[i] = NonConvergence(f"{'non-finite Hessian' if over else why} in Platt fit")
            if failed.any():
                keep = ~failed
                S, T, ab, ids = S[keep], T[keep], ab[keep], ids[keep]
        for i in ids:
            results[i] = NonConvergence(f"Platt fit did not reach gradient tolerance {grad_tol}")
    return results


def _platt_targets(z: np.ndarray) -> np.ndarray:
    """Each row's smoothed targets, from that row's class counts."""
    n_pos = np.sum(z == 1, axis=1, keepdims=True)
    n_neg = z.shape[1] - n_pos
    return np.where(z == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))


def _solve_each(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each 2x2 system; returns the steps and a mask of the singular
    systems. A stacked solve raises when any matrix is singular, so only
    then is each system solved on its own to find which."""
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0], np.zeros(len(hess), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(grad)
    singular = np.zeros(len(hess), dtype=bool)
    for k in range(len(hess)):
        try:
            steps[k] = np.linalg.solve(hess[k], grad[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return steps, singular


def fit_isotonic(
    scores: Sequence[Sequence[float]], z: Sequence[Sequence[float]]
) -> list[IsotonicCalibrator]:
    """Isotonic regression by pool-adjacent-violators in score order, for
    many (scores, targets) pairs at once; returns one calibrator per pair,
    in order.

    Fits of equal length are stacked and each row is sorted stably. Equal
    scores are pre-pooled (weighted by multiplicity), the knot being the
    first score seen, so -0.0 and 0.0 pool under whichever came first. The
    blocks are kept as (sum, weight) pairs, and every pass merges each run
    of adjacent blocks of one fit whose means are equal or decreasing,
    S[b] * W[b+1] >= S[b+1] * W[b]. Passes stop when no fit has a strict
    violator left.

    Pooling equal means as well as decreasing ones is a valid PAVA step
    (Best & Chakravarti 1990), and it is what lets a pass merge whole runs
    at once: on the 252 held-out folds of a full grid search over 400
    training rows, no stack needed more than three passes, where merging
    only strict violators took 40 to 66. For integer targets, such as 0/1
    labels, every sum, weight and cross product is an exact integer, so
    each block value sum / weight is the correctly rounded mean that any
    PAVA order reaches, and each calibrator is bit-identical to a
    one-fit-at-a-time PAVA. Non-integer targets are summed in another order
    and agree with it to rounding only.
    """
    results: list[IsotonicCalibrator | None] = [None] * len(scores)
    by_length: dict[int, list[int]] = {}
    for i, (s_i, z_i) in enumerate(zip(scores, z, strict=True)):
        if len(s_i) != len(z_i):
            raise ValueError(f"fit {i} has {len(s_i)} scores but {len(z_i)} targets")
        if not len(s_i):
            raise ValueError(f"fit {i} has no scores, so no knots")
        by_length.setdefault(len(s_i), []).append(i)

    for fits in by_length.values():
        for i, calibrator in zip(fits, _fit_isotonic_rows([scores[i] for i in fits], [z[i] for i in fits])):
            results[i] = calibrator
    return results


def _fit_isotonic_rows(scores: list, targets: list) -> list[IsotonicCalibrator]:
    """fit_isotonic for fits of one length, stacked as the rows of one
    array. Each array is dropped once used, which keeps the call's peak
    memory near five times the size of its scores."""
    S = np.array(scores, dtype=float)
    order = np.argsort(S, axis=1, kind="stable")
    order += np.arange(len(order))[:, None] * order.shape[1]  # flat indices, row by row
    S = S.ravel()[order]
    Y = np.array(targets, dtype=float).ravel()[order]
    del order
    # equal scores pre-pooled; the blocks of all fits are flat and in fit order
    first = np.ones(S.shape, dtype=bool)
    first[:, 1:] = S[:, 1:] != S[:, :-1]
    starts = np.flatnonzero(first)
    knots = S.ravel()[starts]
    del S
    sums = np.add.reduceat(Y.ravel(), starts)
    del Y
    values = _pool_adjacent_violators(sums, np.diff(starts, append=first.size), starts % first.shape[1] == 0)
    del starts, sums
    np.clip(values, 0.0, 1.0, out=values)
    bounds = np.concatenate(([0], np.cumsum(first.sum(axis=1))))
    # slices copied, so that a kept calibrator does not pin the whole batch
    return [IsotonicCalibrator(knots[lo:hi].copy(), values[lo:hi].copy()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _pool_adjacent_violators(sums: np.ndarray, weights: np.ndarray, fit_start: np.ndarray) -> np.ndarray:
    """The value of every pre-pooled block after PAVA, each fit's blocks
    pooled apart from the others' (fit_start marks each fit's first block).

    Each pass pools every run of adjacent blocks of one fit whose means are
    equal or decreasing, until no fit has a strict violator left."""
    count = np.ones(len(sums), dtype=np.intp)
    while True:
        lhs = sums[:-1] * weights[1:]
        rhs = sums[1:] * weights[:-1]
        pool = (lhs >= rhs) & ~fit_start[1:]
        if not np.any(pool & (lhs != rhs)):
            return np.repeat(sums / weights, count)
        del lhs, rhs
        starts = np.flatnonzero(np.concatenate(([True], ~pool)))
        sums = np.add.reduceat(sums, starts)
        weights = np.add.reduceat(weights, starts)
        count = np.add.reduceat(count, starts)
        fit_start = fit_start[starts]


# ---------------------------------------------------------------------------
# Cross-fit calibration and the trained gate
# ---------------------------------------------------------------------------


def stratified_kfold_indices(
    z: Sequence[int], n_splits: int = 3, seed: int = 42
) -> list[np.ndarray]:
    """Deterministic stratified folds: per-class seeded shuffle, then deal."""
    zz = np.asarray(z, dtype=int)
    rng = np.random.default_rng(seed)
    shuffled = []
    for cls in (0, 1):
        idx = np.flatnonzero(zz == cls)
        if len(idx) < n_splits:
            raise DegenerateFold(f"class {cls} has {len(idx)} examples, need >= {n_splits}")
        rng.shuffle(idx)
        shuffled.append(idx)
    return [np.sort(np.concatenate([idx[f::n_splits] for idx in shuffled])) for f in range(n_splits)]


@dataclass
class FoldPipeline:
    w: np.ndarray
    b: float
    calibrator: object

    def raw_scores(self, X_std: np.ndarray) -> np.ndarray:
        return X_std @ self.w + self.b


@dataclass
class TrainedGate:
    """Standardizer + three fold pipelines + the frozen trust threshold."""

    scaler: Scaler
    folds: list[FoldPipeline]
    chosen_config: RidgeConfig
    feature_names: list[str] = field(default_factory=list)
    tau_star: float | None = None
    # predict_score's column order for the last (feature_names, names) key
    _column_order: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Average of the calibrated fold pipelines, clamped to [0,1]."""
        return _fold_average([self.folds], standardize_apply(self.scaler, X))[0]


def _fold_average(gates: Sequence[Sequence[FoldPipeline]], X_std: np.ndarray) -> np.ndarray:
    """Each gate's average of its calibrated fold pipelines over the same
    rows, clamped to [0,1]; one row per gate. The gates must have equal
    fold counts. All fold scores are written into one array and each gate's
    folds are averaged along their own axis, so every row is bit-identical
    to averaging that gate alone."""
    n_folds = len(gates[0])
    scores = np.empty((len(gates) * n_folds, len(X_std)))
    for row, f in zip(scores, (f for folds in gates for f in folds), strict=True):
        row[:] = f.calibrator.predict(f.raw_scores(X_std))
    # mean's own arithmetic (a sum, then a division by the count), bit for
    # bit, without mean's overhead on the one-row calls of online routing
    mean = np.add.reduce(scores.reshape(len(gates), n_folds, len(X_std)), axis=1)
    mean /= n_folds
    # np.clip's result bit for bit, -0.0 and nan included, in fewer calls:
    # np.maximum returns its second operand on a tie, so 0.0 goes first
    return np.minimum(np.maximum(0.0, mean, out=mean), 1.0, out=mean)


def _fit_calibrators(kind: str, fits: Sequence[tuple[np.ndarray, np.ndarray]]) -> list:
    """One calibrator per (scores, labels) pair, sigmoid or isotonic (the
    kinds RidgeConfig allows); every Platt fit of the list runs in one
    fit_platt call, and each that fails falls back to identity with a
    warning."""
    if kind == "sigmoid":
        calibrators = []
        for result in fit_platt([s for s, _ in fits], [z for _, z in fits]):
            if isinstance(result, NonConvergence):
                warnings.warn(f"Platt calibration fell back to identity: {result}")
                result = IdentityCalibrator()
            calibrators.append(result)
        return calibrators
    return fit_isotonic([s for s, _ in fits], [z for _, z in fits])


@dataclass(frozen=True)
class _CrossFitFolds:
    """The configuration-independent part of a cross-fit: the scaler, the
    standardized matrix, and three (train, held-out) index pairs."""

    scaler: Scaler
    X_std: np.ndarray
    z: np.ndarray
    splits: list[tuple[np.ndarray, np.ndarray]]


def _fold_splits(z: np.ndarray, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Three stratified (train, held-out) index pairs. stratified_kfold_indices
    deals each class's 3 or more rows across the folds, so every held-out
    fold has both classes, and every training part at least 2 of each."""
    splits = []
    for held_out in stratified_kfold_indices(z, 3, seed):
        in_train = np.ones(len(z), dtype=bool)
        in_train[held_out] = False
        splits.append((np.flatnonzero(in_train), held_out))
    return splits


def _cross_fit_folds(X: np.ndarray, z: np.ndarray, seed: int) -> _CrossFitFolds:
    scaler = standardize_fit(X)
    return _CrossFitFolds(scaler, standardize_apply(scaler, X), z, _fold_splits(z, seed))


def _fit_pipelines(
    cross_fits: Sequence[_CrossFitFolds], configs: Sequence[tuple[float, str, str]]
) -> dict[tuple[tuple[float, str, str], int], list[FoldPipeline]]:
    """The three fold pipelines of every (alpha, class_weight, calibration)
    configuration on every cross-fit, keyed (configuration, cross-fit index).

    First one fit_ridge_weighted call per (class weight, cross-fit, fold)
    solves every alpha of that class weight, and each ridge scores its
    fold's held-out rows; then one _fit_calibrators call per calibration
    kind fits every held-out fold of every configuration of that kind."""
    alphas: dict[str, dict[float, None]] = {}
    for alpha, class_weight, _ in configs:
        alphas.setdefault(class_weight, {})[alpha] = None
    # ridges[(alpha, class_weight), i]: per fold, (w, b, held-out raw scores, held-out labels)
    ridges: dict[tuple[tuple[float, str], int], list] = {}
    for (class_weight, weight_alphas), (i, folds) in product(alphas.items(), enumerate(cross_fits)):
        for train_idx, held_out in folds.splits:
            z_train = folds.z[train_idx]
            weights = resolve_class_weights(class_weight, z_train)
            fits = fit_ridge_weighted(folds.X_std[train_idx], z_train, weights, list(weight_alphas))
            for alpha, (w, b) in zip(weight_alphas, fits):
                fold = (w, b, folds.X_std[held_out] @ w + b, folds.z[held_out])
                ridges.setdefault(((alpha, class_weight), i), []).append(fold)

    pipelines = {}
    for kind in dict.fromkeys(calibration for _, _, calibration in configs):
        keys = [(config, i) for config in configs if config[2] == kind for i in range(len(cross_fits))]
        held = [(raw, z) for config, i in keys for _, _, raw, z in ridges[config[:2], i]]
        calibrators = iter(_fit_calibrators(kind, held))
        for config, i in keys:
            pipelines[config, i] = [FoldPipeline(w, b, next(calibrators)) for w, b, _, _ in ridges[config[:2], i]]
    return pipelines


def cross_fit_calibrated(
    X: np.ndarray,
    z: Sequence[int],
    cfg: RidgeConfig,
    seed: int = 42,
    feature_names: Sequence[str] | None = None,
) -> TrainedGate:
    """Train the gate without its threshold: ridge on two folds, calibrator
    on the held-out fold, for each of three stratified folds."""
    folds = _cross_fit_folds(np.asarray(X, dtype=float), np.asarray(z, dtype=int), seed)
    key = (cfg.alpha, cfg.class_weight, cfg.calibration)
    return TrainedGate(
        scaler=folds.scaler,
        folds=_fit_pipelines([folds], [key])[key, 0],
        chosen_config=cfg,
        feature_names=list(feature_names) if feature_names is not None else [],
    )


def distinct_configs(space: Sequence[RidgeConfig]) -> list[tuple[float, str, str]]:
    """The (alpha, class_weight, calibration) keys of a search space, once
    each in order of first appearance: everything a cross-fit reads from a
    configuration."""
    return list(dict.fromkeys((c.alpha, c.class_weight, c.calibration) for c in space))


def grid_search(
    X: np.ndarray,
    z: Sequence[int],
    space: Sequence[RidgeConfig] | None = None,
    seed: int = 42,
) -> tuple[RidgeConfig, list[dict]]:
    """Evaluate every configuration by stratified 3-fold CV and keep the
    best minority-class F1 at threshold 0.5.

    Each outer fold trains a full cross-fit calibrated gate on the other
    two folds, routes the held-out fold at 0.5 with policy.decisions_at,
    and scores it by the error-class F1 of evaluation.per_class_f1 over
    policy.confusion, the counts evaluate reports. Ties keep the earlier
    configuration in enumeration order.

    Points that differ only in tol/max_iter share one evaluation. The
    outer folds' cross-fit set-ups are built once, and one _fit_pipelines
    call fits the pipelines of every distinct configuration on all three
    (see the module docstring). Each outer fold then scores every
    configuration as one stack: one _fold_average, one decisions_at call
    and one policy.confusion call, counting row by row, give every
    configuration's counts, bit-identical to scoring each alone. The report still has one row per point of ``space``, in
    order.
    """
    if space is None:
        space = default_grid()
    if not space:
        raise ValueError("empty search space")
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=int)
    outer = []
    for train_idx, held_out in _fold_splits(zz, seed):
        folds = _cross_fit_folds(X[train_idx], zz[train_idx], seed)
        outer.append((folds, standardize_apply(folds.scaler, X[held_out]), zz[held_out]))

    configs = distinct_configs(space)
    pipelines = _fit_pipelines([folds for folds, _, _ in outer], configs)
    # per outer fold, every configuration's counts from one stack of scores;
    # each held-out fold holds both classes (_fold_splits), so its error-class F1 is never None
    outer_f1 = []
    for o, (_, X_held, z_held) in enumerate(outer):
        stack = _fold_average([pipelines[config, o] for config in configs], X_held)
        c = confusion(decisions_at(stack, 0.5), z_held)
        rows = zip(c.tp.tolist(), c.fp.tolist(), c.tn.tolist(), c.fn.tolist())
        outer_f1.append([per_class_f1(ConfusionCounts(*row))[1] for row in rows])
    # one mean per configuration, shared by the points that differ only in tol/max_iter
    scored = {config: (fold_scores, float(np.mean(fold_scores))) for config, fold_scores in zip(configs, zip(*outer_f1))}

    report: list[dict] = []
    best_idx, best_score = 0, -np.inf
    for i, cfg in enumerate(space):
        fold_scores, mean_score = scored[cfg.alpha, cfg.class_weight, cfg.calibration]
        # vars(cfg): the five fields in order, without asdict's deep copy
        report.append({**vars(cfg), "minority_f1": mean_score, "fold_f1": list(fold_scores)})
        if mean_score > best_score:
            best_idx, best_score = i, mean_score
    return space[best_idx], report


def _align_columns(gate_names: tuple[str, ...], names: tuple[str, ...]) -> np.ndarray:
    """Indices that put the columns named `names` in the gate's training order."""
    if not gate_names:
        raise FeatureMismatch("gate has no recorded feature names")
    if sorted(names) != sorted(gate_names):
        missing = set(gate_names) - set(names)
        extra = set(names) - set(gate_names)
        raise FeatureMismatch(f"feature names differ (missing={sorted(missing)}, extra={sorted(extra)})")
    index = {n: i for i, n in enumerate(names)}
    return np.array([index[n] for n in gate_names], dtype=np.intp)


def predict_score(gate: TrainedGate, names: Sequence[str], X: np.ndarray) -> np.ndarray:
    """Score a feature matrix, aligning columns to training order by name.

    The column order is worked out once per (gate feature names, table
    names) pair and kept on the gate, so a stream of same-shaped tables
    checks and sorts the names only once."""
    key = (tuple(gate.feature_names), tuple(names))
    if gate._column_order is None or gate._column_order[0] != key:
        gate._column_order = (key, _align_columns(*key))
    return gate.predict_matrix(np.asarray(X, dtype=float)[:, gate._column_order[1]])


# ---------------------------------------------------------------------------
# Artifact serialization (versioned JSON with a content hash)
# ---------------------------------------------------------------------------


def gate_to_dict(gate: TrainedGate) -> dict:
    payload = {
        "version": _ARTIFACT_VERSION,
        "feature_names": list(gate.feature_names),
        "config": asdict(gate.chosen_config),
        "tau_star": gate.tau_star,
        "scaler": {
            "mean": [float(v) for v in gate.scaler.mean],
            "std": [float(v) for v in gate.scaler.std],
        },
        "folds": [
            {
                "w": [float(v) for v in f.w],
                "b": float(f.b),
                "calibrator": f.calibrator.to_dict(),
            }
            for f in gate.folds
        ],
    }
    payload["content_hash"] = sha256_obj(payload)
    return payload


def _finite_number(value, key: str):
    """``value`` when it is a finite JSON number, an int or float but not a
    bool; otherwise a ValueError naming ``key``. An int past float range
    is refused, and nan fails the comparison."""
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValueError(f"model artifact {key} must be a finite number, got {value!r}")
    return value


def gate_from_dict(obj: dict) -> TrainedGate:
    """The gate of gate_to_dict's dict. A bad hash, version or calibrator,
    no folds, a fold's b or an entry of its w or of the scaler's mean or
    std that is not a finite number (a numeric text or a bool included), a
    scaler or fold vector without one value per feature name, or a
    tau_star that is neither null nor a finite number is a ValueError
    naming what is wrong."""
    obj = dict(obj)
    stored_hash = obj.pop("content_hash", None)
    if stored_hash is not None and sha256_obj(obj) != stored_hash:
        raise ValueError("model artifact content hash mismatch")
    if obj.get("version") != _ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {obj.get('version')!r}")
    cfg = RidgeConfig(**obj["config"])
    feature_names = list(obj["feature_names"])
    shape = (len(feature_names),)

    def vector(value, key: str) -> np.ndarray:
        if type(value) is not list:
            raise ValueError(f"model artifact {key} must be a list of numbers, got {value!r}")
        for entry in value:
            _finite_number(entry, f"{key} entry")
        v = np.asarray(value, dtype=float)
        if v.shape != shape:
            raise ValueError(f"model artifact {key} has shape {v.shape}, not {shape}: one value per feature name")
        return v

    scaler = Scaler(
        mean=vector(obj["scaler"]["mean"], "scaler 'mean'"),
        std=vector(obj["scaler"]["std"], "scaler 'std'"),
    )
    if not obj["folds"]:
        raise ValueError("model artifact has no 'folds'")
    folds = [
        FoldPipeline(
            w=vector(f["w"], f"fold {i} 'w'"),
            b=float(_finite_number(f["b"], f"fold {i} 'b'")),
            calibrator=_calibrator_from_dict(f["calibrator"]),
        )
        for i, f in enumerate(obj["folds"])
    ]
    tau_star = obj.get("tau_star")
    # a finite float, or an int that is one: nan fails the comparison
    if tau_star is not None and not (type(tau_star) in (int, float) and abs(tau_star) <= sys.float_info.max):
        raise ValueError(f"model artifact tau_star must be null or a finite number, got {tau_star!r}")
    return TrainedGate(
        scaler=scaler,
        folds=folds,
        chosen_config=cfg,
        feature_names=feature_names,
        tau_star=tau_star,
    )


def save_gate(gate: TrainedGate, path) -> None:
    write_json_atomic(path, gate_to_dict(gate))


def load_gate(path) -> TrainedGate:
    with open(path, "r", encoding="utf-8") as fh:
        return gate_from_dict(json.load(fh))
