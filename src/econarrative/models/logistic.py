"""Binary logistic regression trained by gradient descent.

Minimizes the mean negative log-likelihood plus an L2 penalty on the
weights (bias unpenalized), with backtracking line search. Training
stops when the gradient norm drops below tolerance.
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
    z = np.clip(z, -35.0, 35.0)
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    threshold: float = 0.5

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= self.threshold).astype(int)


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
    if not 0.0 <= lam < float("inf"):  # False for NaN too
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")

    tol, max_iter = GRAD_TOL, MAX_ITER
    w = np.zeros(d)
    b = 0.0
    objective = logistic_objective(X, y, w, b, lam)
    for _ in range(max_iter):
        p = _sigmoid(X @ w + b)
        grad_w = X.T @ (p - y) / n + lam * w
        grad_b = float(np.mean(p - y))
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if np.sqrt(grad_sq) < tol:
            return LogisticModel(weights=w, bias=b)
        step = 1.0
        while step > 1e-16:
            new_w = w - step * grad_w
            new_b = b - step * grad_b
            new_objective = logistic_objective(X, y, new_w, new_b, lam)
            if new_objective <= objective - 1e-4 * step * grad_sq:
                break
            step *= 0.5
        w, b, objective = new_w, new_b, new_objective
    raise ConvergenceError(
        f"gradient norm did not reach {tol} within {max_iter} iterations; "
        "with lam=0 and separable data the optimum is at infinity"
    )
