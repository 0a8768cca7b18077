"""One-fit-at-a-time references for ``lppgate.trainer``'s batched fits: the
per-alpha ridge solve and the per-fit Platt Newton loop, each checked
bit-for-bit against the batched functions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lppgate.trainer import NonConvergence, SigmoidCalibrator, SingularSystem, _sample_weights, _sigmoid


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
