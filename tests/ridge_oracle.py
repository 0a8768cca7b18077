"""Test oracles for the closed-form weighted ridge in ``lppgate.trainer``:
the objective it minimizes, and an independent iterative solve of the same
problem with scipy's LSQR."""

import numpy as np
from scipy.sparse.linalg import lsqr

from lppgate.trainer import _sample_weights


def ridge_objective(X, z, w, b, weights=(1.0, 1.0), alpha=1.0) -> float:
    """sum_i omega_i (z_i - (w.x_i + b))^2 + alpha ||w||^2."""
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    omega = _sample_weights(zz, weights)
    resid = zz - (X @ w + b)
    return float(np.sum(omega * resid**2) + alpha * np.dot(w, w))


def fit_ridge_lsqr(X, z, weights=(1.0, 1.0), alpha=1.0, tol=1e-12, max_iter=3000):
    """The same minimization as a stacked regularized least-squares system:
    rows sqrt(omega_i) [x_i, 1] against sqrt(omega_i) z_i, then
    sqrt(alpha) [I, 0] against 0, so the intercept stays unpenalized."""
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=float)
    n, d = X.shape
    sw = np.sqrt(_sample_weights(zz, weights))
    A = np.vstack(
        [
            sw[:, None] * np.hstack([X, np.ones((n, 1))]),
            np.sqrt(alpha) * np.hstack([np.eye(d), np.zeros((d, 1))]),
        ]
    )
    y = np.concatenate([sw * zz, np.zeros(d)])
    beta = lsqr(A, y, atol=tol, btol=tol, iter_lim=max_iter)[0]
    return beta[:d], float(beta[d])
