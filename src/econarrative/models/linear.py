"""Linear regression with optional L1/L2 penalties, from scratch.

Objective (bias never penalized):

    J(w, b) = 1/2 * ||y - Xw - b||^2 + lam * ||w||_1      (L1)
    J(w, b) = 1/2 * ||y - Xw - b||^2 + lam/2 * ||w||^2    (L2)

The unpenalized and L2 cases are solved in closed form via the
(augmented) normal equations; L1 by cyclic coordinate descent with
soft thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logistic import ConvergenceError

CD_TOL = 1e-8
CD_MAX_SWEEPS = 100_000


class SingularSystemError(np.linalg.LinAlgError):
    pass


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ self.weights + self.bias


def linear_objective(X, y, weights, bias, reg: str = "none", lam: float = 0.0) -> float:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    residual = y - X @ weights - bias
    value = 0.5 * float(residual @ residual)
    if reg == "l1":
        value += lam * float(np.sum(np.abs(weights)))
    elif reg == "l2":
        value += 0.5 * lam * float(weights @ weights)
    return value


def _soft_threshold(x: float, threshold: float) -> float:
    if x > threshold:
        return x - threshold
    if x < -threshold:
        return x + threshold
    return 0.0


def fit_linear(X, y, reg: str = "none", lam: float = 0.0) -> LinearModel:
    """Fit y ~ Xw + b under the requested penalty."""
    if reg not in ("none", "l1", "l2"):
        raise ValueError(f"unknown regularization {reg!r}")
    if not 0.0 <= lam < float("inf"):  # False for NaN too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    if reg == "none" and lam:
        raise ValueError(f"lam {lam!r} does nothing without a penalty: fit reg='l1' or 'l2'")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if n != y.shape[0]:
        raise ValueError("X and y lengths differ")
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite entries in training data")

    if reg in ("none", "l2"):
        return _fit_closed_form(X, y, lam)
    return _fit_coordinate_descent(X, y, lam)


def _fit_closed_form(X, y, lam) -> LinearModel:
    n, d = X.shape
    # augmented system over [w; b] with the penalty applied to w only
    A = np.empty((d + 1, d + 1))
    A[:d, :d] = X.T @ X
    A[:d, d] = X.sum(axis=0)
    A[d, :d] = X.sum(axis=0)
    A[d, d] = n
    if lam > 0:  # reg is 'l2': fit_linear refuses a nonzero lam without a penalty
        A[:d, :d] += lam * np.eye(d)
    rhs = np.concatenate([X.T @ y, [y.sum()]])
    if lam == 0 and np.linalg.cond(A) > 1e12:
        raise SingularSystemError("normal equations are singular; refit with reg='l2' and lam > 0")
    solution = np.linalg.solve(A, rhs)
    return LinearModel(weights=solution[:d], bias=float(solution[d]))


def _fit_coordinate_descent(X, y, lam) -> LinearModel:
    n, d = X.shape
    col_norms = (X * X).sum(axis=0)
    w = np.zeros(d)
    b = float(np.mean(y))
    residual = y - X @ w - b
    for _ in range(CD_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(d):
            if col_norms[j] == 0.0:
                continue
            rho = X[:, j] @ residual + col_norms[j] * w[j]
            new_wj = _soft_threshold(rho, lam) / col_norms[j]
            delta = new_wj - w[j]
            if delta != 0.0:
                residual -= X[:, j] * delta
                w[j] = new_wj
                max_delta = max(max_delta, abs(delta))
        new_b = b + float(np.mean(residual))
        residual -= new_b - b
        max_delta = max(max_delta, abs(new_b - b))
        b = new_b
        if max_delta < CD_TOL:
            return LinearModel(weights=w, bias=b)
    raise ConvergenceError(
        f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps; "
        f"last max change {max_delta:.3g}, tolerance {CD_TOL}"
    )
