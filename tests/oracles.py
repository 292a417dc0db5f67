"""Slow reference solvers for the linear fits, independent of the paths
under test; shared by the unit tests and the acceptance suite."""

import numpy as np


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
