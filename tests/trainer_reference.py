"""One-fit-at-a-time references for ``lppgate.trainer``'s batched fits: the
per-alpha ridge solve and the per-fit Platt Newton loop, each checked
bit-for-bit against the batched functions; and predict_score as np.stack
and np.clip computed it, which the preallocated fold average is checked
against."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lppgate.trainer import (
    IsotonicCalibrator,
    NonConvergence,
    SigmoidCalibrator,
    SingularSystem,
    TrainedGate,
    _align_columns,
    _sample_weights,
    _sigmoid,
    standardize_apply,
)


def fit_ridge_weighted_reference(
    X: np.ndarray, z: Sequence[int], weights: tuple[float, float] = (1.0, 1.0), alpha: float = 1.0
) -> tuple[np.ndarray, float]:
    """One alpha: build the Gram matrix, add the penalty, solve."""
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    if X.ndim != 2 or len(zz) != X.shape[0]:
        raise ValueError("X must be n x d with matching labels")
    omega = _sample_weights(zz, weights)
    n, d = X.shape

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


def fit_platt_reference(
    scores: Sequence[float], z: Sequence[int], grad_tol: float = 1e-9, max_iter: int = 100
) -> SigmoidCalibrator:
    """One Platt fit in its own Newton loop; raises NonConvergence."""
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
        p = _sigmoid(a * s + b)
        grad = np.array([np.sum((p - t) * s), np.sum(p - t)])
        if np.max(np.abs(grad)) < grad_tol:
            return SigmoidCalibrator(a=float(a), b=float(b))
        r = p * (1.0 - p) + 1e-12
        with np.errstate(over="ignore"):
            hess = np.array([[np.sum(r * s * s), np.sum(r * s)], [np.sum(r * s), np.sum(r)]])
        if not np.isfinite(hess).all():
            raise NonConvergence("non-finite Hessian in Platt fit")
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("singular Hessian in Platt fit") from exc
        a, b = a - step[0], b - step[1]
        if not (np.isfinite(a) and np.isfinite(b)):
            raise NonConvergence("Newton step left (a, b) non-finite in Platt fit")
    raise NonConvergence(f"Platt fit did not reach gradient tolerance {grad_tol}")


def _calibrated_reference(calibrator, scores: np.ndarray) -> np.ndarray:
    """A calibrator's scores, an isotonic step clamped at both ends by np.clip."""
    if isinstance(calibrator, IsotonicCalibrator):
        s = np.asarray(scores, dtype=float)
        idx = np.clip(np.searchsorted(calibrator.knots, s, side="right") - 1, 0, len(calibrator.knots) - 1)
        return calibrator.values[idx]
    return calibrator.predict(scores)


def predict_score_reference(gate: TrainedGate, names: Sequence[str], X: np.ndarray) -> np.ndarray:
    """predict_score as one np.stack of the fold scores and one np.clip of
    their average: the columns gathered into training order, standardized,
    each fold's calibrated scores stacked, summed over the folds, divided by
    their count."""
    order = _align_columns(tuple(gate.feature_names), tuple(names))
    X_std = standardize_apply(gate.scaler, np.asarray(X, dtype=float)[:, order])
    by_gate = np.stack([_calibrated_reference(f.calibrator, f.raw_scores(X_std)) for f in gate.folds])
    by_gate = by_gate.reshape(1, len(gate.folds), len(X_std))
    return np.clip(by_gate.sum(axis=1) / by_gate.shape[1], 0.0, 1.0)[0]
