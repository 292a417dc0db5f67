"""Slow reference solvers for the linear and logistic fits, independent of
the paths under test; shared by the unit tests and the acceptance suite."""

import numpy as np

from econarrative.models.logistic import _sigmoid, logistic_objective


def ridge_gd_oracle(X, y, lam, iters=200_000, lr=None):
    """Plain gradient descent on the ridge objective; independent of the
    closed-form path under test."""
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    if lr is None:
        hessian_scale = np.linalg.eigvalsh(Xb.T @ Xb).max() + lam
        lr = 1.0 / hessian_scale
    wb = np.zeros(d + 1)
    penalty = np.concatenate([np.full(d, lam), [0.0]])
    for _ in range(iters):
        grad = Xb.T @ (Xb @ wb - y) + penalty * wb
        new = wb - lr * grad
        if np.max(np.abs(new - wb)) < 1e-15:
            return new[:d], new[d]
        wb = new
    return wb[:d], wb[d]


def lasso_prox_oracle(X, y, lam, iters=300_000):
    """Slow proximal descent on the L1 objective; independent of the
    coordinate-descent path under test."""
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    lr = 1.0 / np.linalg.eigvalsh(Xb.T @ Xb).max()
    wb = np.zeros(d + 1)
    for _ in range(iters):
        grad = Xb.T @ (Xb @ wb - y)
        new = wb - lr * grad
        new[:d] = np.sign(new[:d]) * np.maximum(np.abs(new[:d]) - lr * lam, 0.0)
        if np.max(np.abs(new - wb)) < 1e-15:
            return new[:d], new[d]
        wb = new
    return wb[:d], wb[d]


def logistic_gd_oracle(X, y, lam, tol=1e-6, max_iter=50_000):
    """Gradient descent with backtracking on `logistic_objective`, stopping
    when the gradient norm is below `tol`; independent of the Newton path
    under test. Raises AssertionError if it does not get there."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    objective = logistic_objective(X, y, w, b, lam)
    for _ in range(max_iter):
        p = _sigmoid(X @ w + b)
        grad_w = X.T @ (p - y) / n + lam * w
        grad_b = float(np.mean(p - y))
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if np.sqrt(grad_sq) < tol:
            return w, b
        step = 1.0
        while step > 1e-16:
            new_w = w - step * grad_w
            new_b = b - step * grad_b
            new_objective = logistic_objective(X, y, new_w, new_b, lam)
            if new_objective <= objective - 1e-4 * step * grad_sq:
                break
            step *= 0.5
        w, b, objective = new_w, new_b, new_objective
    raise AssertionError(f"gradient descent did not reach {tol} within {max_iter} iterations")
