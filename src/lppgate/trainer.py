"""Correctness meta-model: weighted ridge, calibration, and grid search.

The gate is a class-weighted ridge regressor on standardized features,

    min_{w,b}  sum_i omega_i (z_i - (w.x_i + b))^2 + alpha ||w||^2

with the intercept unpenalized, solved in closed form by the normal
equations (an iterative least-squares path exists for cross-checking; tol
and max_iter bind only there). Raw scores are mapped to probabilities by
cross-fit calibration: three stratified folds, ridge fit on two, the
calibrator (Platt sigmoid or isotonic/PAVA) fit on the held-out fold, and
the final score is the fold-pipeline average clamped to [0,1].

Hyperparameters are chosen by a grid over alpha, tol, max_iter, seven
class-weight configurations, and the two calibrators (672 points), scored
by stratified 3-fold cross-validated F1 of the minority (error) class at
threshold 0.5; ties go to the earlier point in enumeration order
(alpha, tol, max_iter, class_weight, calibration). All 672 points are
enumerated and reported, but since tol and max_iter do not reach the
closed-form fit, only the 56 distinct (alpha, class_weight, calibration)
configurations are fitted, and each fold's ridge fit is shared by both
calibrators.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np
from scipy.sparse.linalg import lsqr as _scipy_lsqr
from scipy.special import expit

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
    "ridge_objective",
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
    "minority_f1",
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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


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
    alpha: float = 1.0,
    solver: str = "closed_form",
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> tuple[np.ndarray, float]:
    """Minimize the weighted ridge objective; returns (w, b).

    closed_form solves the normal equations of the augmented system with an
    unpenalized intercept and ignores tol/max_iter by design; lsqr solves
    the equivalent regularized least-squares problem iteratively and is
    used as a cross-check.
    """
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    if X.ndim != 2 or len(zz) != X.shape[0]:
        raise ValueError("X must be n x d with matching labels")
    omega = _sample_weights(zz, weights)
    n, d = X.shape

    if solver == "closed_form":
        Xa = np.hstack([X, np.ones((n, 1))])
        penalty = np.zeros((d + 1, d + 1))
        penalty[:d, :d] = alpha * np.eye(d)
        gram = Xa.T @ (omega[:, None] * Xa) + penalty
        rhs = Xa.T @ (omega * zz)
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        return beta[:d], float(beta[d])

    if solver == "lsqr":
        sw = np.sqrt(omega)
        A = np.vstack(
            [
                sw[:, None] * np.hstack([X, np.ones((n, 1))]),
                np.sqrt(alpha) * np.hstack([np.eye(d), np.zeros((d, 1))]),
            ]
        )
        y = np.concatenate([sw * zz, np.zeros(d)])
        beta = _scipy_lsqr(A, y, atol=tol, btol=tol, iter_lim=max_iter)[0]
        return beta[:d], float(beta[d])

    raise ValueError(f"unknown solver {solver!r}")


def ridge_objective(
    X: np.ndarray,
    z: Sequence[int],
    w: np.ndarray,
    b: float,
    weights: tuple[float, float] = (1.0, 1.0),
    alpha: float = 1.0,
) -> float:
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    omega = _sample_weights(zz, weights)
    resid = zz - (X @ w + b)
    return float(np.sum(omega * resid**2) + alpha * np.dot(w, w))


# ---------------------------------------------------------------------------
# Calibrators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmoidCalibrator:
    """Platt scaling p = sigmoid(a*s + b); a > 0 preserves score order."""

    a: float
    b: float

    def predict(self, scores: np.ndarray) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        return expit(self.a * s + self.b)

    def to_dict(self) -> dict:
        return {"kind": "sigmoid", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class IsotonicCalibrator:
    """Non-decreasing step function; left-constant between knots, clamped."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def predict(self, scores: np.ndarray) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, len(self.knots) - 1)
        return np.clip(np.asarray(self.values)[idx], 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"kind": "isotonic", "knots": list(self.knots), "values": list(self.values)}


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
        return IsotonicCalibrator(tuple(obj["knots"]), tuple(obj["values"]))
    if kind == "identity":
        return IdentityCalibrator()
    raise ValueError(f"unknown calibrator kind {kind!r}")


def fit_platt(
    scores: Sequence[float], z: Sequence[int], grad_tol: float = 1e-9, max_iter: int = 100
) -> SigmoidCalibrator:
    """Fit sigmoid calibration by Newton iterations on smoothed targets.

    Targets are t+ = (N+ + 1)/(N+ + 2) and t- = 1/(N- + 2), which keeps the
    likelihood bounded on separable folds. Convergence is declared when the
    gradient infinity-norm drops below grad_tol; a constant-score input has
    a flat likelihood direction resolved by a = 0.
    """
    s = np.asarray(scores, dtype=float)
    zz = np.asarray(z, dtype=int)
    n_pos = int(np.sum(zz == 1))
    n_neg = len(zz) - n_pos
    t = np.where(zz == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    if np.all(s == s[0]):
        mean_t = float(t.mean())
        return SigmoidCalibrator(a=0.0, b=float(np.log(mean_t / (1.0 - mean_t))))

    a, b = 0.0, 0.0
    for _ in range(max_iter):
        p = expit(a * s + b)
        grad = np.array([np.sum((p - t) * s), np.sum(p - t)])
        if np.max(np.abs(grad)) < grad_tol:
            return SigmoidCalibrator(a=float(a), b=float(b))
        r = p * (1.0 - p) + 1e-12
        hess = np.array([[np.sum(r * s * s), np.sum(r * s)], [np.sum(r * s), np.sum(r)]])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("singular Hessian in Platt fit") from exc
        a, b = a - step[0], b - step[1]
    raise NonConvergence(f"Platt fit did not reach gradient tolerance {grad_tol}")


def fit_isotonic(scores: Sequence[float], z: Sequence[float]) -> IsotonicCalibrator:
    """Isotonic regression by pool-adjacent-violators in score order.

    Equal scores are pre-pooled (weighted by multiplicity); pooled block
    values are kept as (sum, weight) pairs so block means stay exact for
    integer-valued targets.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(z, dtype=float)
    order = np.argsort(s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]

    _, starts = np.unique(s_sorted, return_index=True)
    knots = s_sorted[starts].tolist()
    sums = np.add.reduceat(y_sorted, starts).tolist()
    weights = np.diff(starts, append=len(s_sorted)).astype(float).tolist()

    # PAVA over the pre-pooled blocks: merge while a block mean exceeds its
    # successor's, tracking the span of original knots per block.
    block_sums: list[float] = []
    block_weights: list[float] = []
    block_count: list[int] = []
    for total, weight in zip(sums, weights):
        block_sums.append(total)
        block_weights.append(weight)
        block_count.append(1)
        while (
            len(block_sums) > 1
            and block_sums[-2] * block_weights[-1] > block_sums[-1] * block_weights[-2]
        ):
            block_sums[-2] += block_sums[-1]
            block_weights[-2] += block_weights[-1]
            block_count[-2] += block_count[-1]
            del block_sums[-1], block_weights[-1], block_count[-1]

    values: list[float] = []
    for total, weight, count in zip(block_sums, block_weights, block_count):
        values.extend([total / weight] * count)
    return IsotonicCalibrator(tuple(knots), tuple(values))


# ---------------------------------------------------------------------------
# Cross-fit calibration and the trained gate
# ---------------------------------------------------------------------------


def stratified_kfold_indices(
    z: Sequence[int], n_splits: int = 3, seed: int = 42
) -> list[np.ndarray]:
    """Deterministic stratified folds: per-class seeded shuffle, then deal."""
    zz = np.asarray(z, dtype=int)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_splits)]
    for cls in (0, 1):
        idx = np.flatnonzero(zz == cls)
        if len(idx) < n_splits:
            raise DegenerateFold(f"class {cls} has {len(idx)} examples, need >= {n_splits}")
        rng.shuffle(idx)
        for i, value in enumerate(idx):
            folds[i % n_splits].append(int(value))
    return [np.array(sorted(f), dtype=int) for f in folds]


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

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Average of the calibrated fold pipelines, clamped to [0,1]."""
        return _fold_average(self.folds, standardize_apply(self.scaler, X))


def _fold_average(pipelines: Sequence[FoldPipeline], X_std: np.ndarray) -> np.ndarray:
    stacked = np.stack([f.calibrator.predict(f.raw_scores(X_std)) for f in pipelines])
    return np.clip(stacked.mean(axis=0), 0.0, 1.0)


def _fit_calibrator(kind: str, scores: np.ndarray, z: np.ndarray):
    if kind == "sigmoid":
        try:
            return fit_platt(scores, z)
        except NonConvergence as exc:
            warnings.warn(f"Platt calibration fell back to identity: {exc}")
            return IdentityCalibrator()
    if kind == "isotonic":
        return fit_isotonic(scores, z)
    if kind == "identity":
        return IdentityCalibrator()
    raise ValueError(f"unknown calibration {kind!r}")


@dataclass(frozen=True)
class _CrossFitFolds:
    """The configuration-independent part of a cross-fit: the scaler, the
    standardized matrix, and three (train, held-out) index pairs."""

    scaler: Scaler
    X_std: np.ndarray
    z: np.ndarray
    splits: list[tuple[np.ndarray, np.ndarray]]


def _fold_splits(z: np.ndarray, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Three stratified (train, held-out) index pairs."""
    all_idx = np.arange(len(z))
    splits = []
    for held_out in stratified_kfold_indices(z, 3, seed):
        train_idx = np.setdiff1d(all_idx, held_out)
        if len(np.unique(z[train_idx])) < 2 or len(np.unique(z[held_out])) < 2:
            raise DegenerateFold("a fold is missing one class")
        splits.append((train_idx, held_out))
    return splits


def _cross_fit_folds(X: np.ndarray, z: np.ndarray, seed: int) -> _CrossFitFolds:
    scaler = standardize_fit(X)
    return _CrossFitFolds(scaler, standardize_apply(scaler, X), z, _fold_splits(z, seed))


def _fold_ridges(
    folds: _CrossFitFolds, alpha: float, class_weight: str
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """Ridge on each fold's training rows: (w, b, held-out raw scores).

    The closed-form solver ignores tol and max_iter, so they are not passed.
    """
    out = []
    for train_idx, held_out in folds.splits:
        z_train = folds.z[train_idx]
        weights = resolve_class_weights(class_weight, z_train)
        w, b = fit_ridge_weighted(folds.X_std[train_idx], z_train, weights, alpha)
        out.append((w, b, folds.X_std[held_out] @ w + b))
    return out


def _calibrated_folds(
    folds: _CrossFitFolds, ridges: list[tuple[np.ndarray, float, np.ndarray]], calibration: str
) -> list[FoldPipeline]:
    """Fit one calibrator per fold on that fold's held-out raw scores."""
    return [
        FoldPipeline(w=w, b=b, calibrator=_fit_calibrator(calibration, raw, folds.z[held_out]))
        for (w, b, raw), (_, held_out) in zip(ridges, folds.splits)
    ]


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
    ridges = _fold_ridges(folds, cfg.alpha, cfg.class_weight)
    return TrainedGate(
        scaler=folds.scaler,
        folds=_calibrated_folds(folds, ridges, cfg.calibration),
        chosen_config=cfg,
        feature_names=list(feature_names) if feature_names is not None else [],
    )


def minority_f1(decisions_trust: np.ndarray, z: np.ndarray) -> float:
    """F1 of the error class (z=0, predicted by escalation); 0 if undefined."""
    pred0 = ~np.asarray(decisions_trust, dtype=bool)
    actual0 = np.asarray(z, dtype=int) == 0
    tp = int(np.sum(pred0 & actual0))
    denom = 2 * tp + int(np.sum(pred0 & ~actual0)) + int(np.sum(~pred0 & actual0))
    return 2 * tp / denom if denom else 0.0


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
    two folds and scores the held-out fold. Ties keep the earlier
    configuration in enumeration order.

    Points that differ only in tol/max_iter share one evaluation, the outer
    folds' cross-fit set-up is built once, and each inner ridge fit serves
    every calibrator of its (alpha, class_weight). The report still has one
    row per point of ``space``, in order.
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

    calibrations: dict[tuple[float, str], list[str]] = {}
    for alpha, class_weight, calibration in distinct_configs(space):
        calibrations.setdefault((alpha, class_weight), []).append(calibration)
    fold_f1: dict[tuple[float, str, str], list[float]] = {}
    for (alpha, class_weight), kinds in calibrations.items():
        for folds, X_held, z_held in outer:
            ridges = _fold_ridges(folds, alpha, class_weight)
            for kind in kinds:
                s = _fold_average(_calibrated_folds(folds, ridges, kind), X_held)
                fold_f1.setdefault((alpha, class_weight, kind), []).append(
                    minority_f1(s >= 0.5, z_held)
                )

    report: list[dict] = []
    best_idx, best_score = 0, -np.inf
    for i, cfg in enumerate(space):
        fold_scores = fold_f1[(cfg.alpha, cfg.class_weight, cfg.calibration)]
        mean_score = float(np.mean(fold_scores))
        report.append(
            {
                "alpha": cfg.alpha,
                "tol": cfg.tol,
                "max_iter": cfg.max_iter,
                "class_weight": cfg.class_weight,
                "calibration": cfg.calibration,
                "minority_f1": mean_score,
                "fold_f1": list(fold_scores),
            }
        )
        if mean_score > best_score:
            best_idx, best_score = i, mean_score
    return space[best_idx], report


def predict_score(gate: TrainedGate, names: Sequence[str], X: np.ndarray) -> np.ndarray:
    """Score a feature matrix, aligning columns to training order by name."""
    if not gate.feature_names:
        raise FeatureMismatch("gate has no recorded feature names")
    if sorted(names) != sorted(gate.feature_names):
        missing = set(gate.feature_names) - set(names)
        extra = set(names) - set(gate.feature_names)
        raise FeatureMismatch(f"feature names differ (missing={sorted(missing)}, extra={sorted(extra)})")
    index = {n: i for i, n in enumerate(names)}
    cols = [index[n] for n in gate.feature_names]
    return gate.predict_matrix(np.asarray(X, dtype=float)[:, cols])


# ---------------------------------------------------------------------------
# Artifact serialization (versioned JSON with a content hash)
# ---------------------------------------------------------------------------


def gate_to_dict(gate: TrainedGate) -> dict:
    payload = {
        "version": _ARTIFACT_VERSION,
        "feature_names": list(gate.feature_names),
        "config": {
            "alpha": gate.chosen_config.alpha,
            "tol": gate.chosen_config.tol,
            "max_iter": gate.chosen_config.max_iter,
            "class_weight": gate.chosen_config.class_weight,
            "calibration": gate.chosen_config.calibration,
        },
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
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    return payload


def gate_from_dict(obj: dict) -> TrainedGate:
    obj = dict(obj)
    stored_hash = obj.pop("content_hash", None)
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if stored_hash is not None and hashlib.sha256(canonical.encode()).hexdigest() != stored_hash:
        raise ValueError("model artifact content hash mismatch")
    if obj.get("version") != _ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {obj.get('version')!r}")
    cfg = RidgeConfig(**obj["config"])
    scaler = Scaler(
        mean=np.asarray(obj["scaler"]["mean"], dtype=float),
        std=np.asarray(obj["scaler"]["std"], dtype=float),
    )
    folds = [
        FoldPipeline(
            w=np.asarray(f["w"], dtype=float),
            b=float(f["b"]),
            calibrator=_calibrator_from_dict(f["calibrator"]),
        )
        for f in obj["folds"]
    ]
    return TrainedGate(
        scaler=scaler,
        folds=folds,
        chosen_config=cfg,
        feature_names=list(obj["feature_names"]),
        tau_star=obj.get("tau_star"),
    )


def save_gate(gate: TrainedGate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gate_to_dict(gate), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_gate(path) -> TrainedGate:
    with open(path, "r", encoding="utf-8") as fh:
        return gate_from_dict(json.load(fh))
