"""Binary logistic regression trained by Newton's method.

Minimizes the mean negative log-likelihood plus an L2 penalty on the
weights (bias unpenalized). Each step solves the penalized Hessian system
(IRLS; Hastie, Tibshirani & Friedman, ESL 4.4.1), then halves the step
until the objective falls enough. Training stops when the gradient norm
drops below tolerance. The penalty must be positive: it gives every fit a
finite optimum and a positive definite Hessian, where with lam=0 classes
that a hyperplane separates have none (Albert & Anderson, 1984).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAD_TOL = 1e-6
MAX_ITER = 50_000


class ConvergenceError(RuntimeError):
    pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # +-35 keeps the output strictly inside (0, 1) in float64
    z = np.minimum(np.maximum(z, -35.0), 35.0)
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def logistic_objective(X, y, weights, bias, lam: float) -> float:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    z = X @ weights + bias
    # mean NLL via logaddexp for stability: log(1 + e^z) - y*z
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * lam * float(weights @ weights)


def fit_logistic(X, y, lam: float = 0.01) -> LogisticModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ValueError("labels must contain both classes 0 and 1")
    if not 0.0 < lam < float("inf"):  # False for NaN too
        raise ValueError(f"lam must be finite and > 0, got {lam!r}")

    tol, max_iter = GRAD_TOL, MAX_ITER
    Xb = np.hstack([X, np.ones((n, 1))])  # the last weight is the bias
    penalty = np.diag(np.append(np.full(d, lam), 0.0))
    wb = np.zeros(d + 1)
    objective = logistic_objective(X, y, wb[:d], wb[d], lam)
    for _ in range(max_iter):
        p = _sigmoid(Xb @ wb)
        grad = Xb.T @ (p - y) / n + penalty @ wb
        if np.sqrt(grad @ grad) < tol:
            return LogisticModel(weights=wb[:d], bias=float(wb[d]))
        direction = np.linalg.solve((Xb.T * (p * (1.0 - p))) @ Xb / n + penalty, grad)
        step = 1.0
        while step > 1e-16:
            new = wb - step * direction
            new_objective = logistic_objective(X, y, new[:d], new[d], lam)
            if new_objective <= objective - 1e-4 * step * (grad @ direction):
                break
            step *= 0.5
        wb, objective = new, new_objective
    raise ConvergenceError(f"gradient norm did not reach {tol} within {max_iter} iterations")
