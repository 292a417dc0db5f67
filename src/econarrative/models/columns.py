"""The one fit for column models (logistic, linear, ridge, lasso), shared by
the experiment and the ``train`` command."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear import LINEAR_PENALTIES, LinearModel, fit_linear
from .logistic import LogisticModel, fit_logistic

# model type -> penalty weight when the config gives no `lam`; 0.0: no penalty, no `lam` key
DEFAULT_LAM = {"logistic": 0.01, "linear": 0.0, "ridge": 1.0, "lasso": 1.0}


@dataclass(frozen=True)
class Standardized:
    """A fitted column model and the standardisation of its inputs; the
    default, mean 0 and scale 1, is the identity bit for bit."""

    model: LinearModel | LogisticModel
    mean: np.ndarray | float = 0.0
    scale: np.ndarray | float = 1.0

    def predict(self, X) -> list:
        """'increase'/'decrease' per row for logistic, floats otherwise."""
        X = np.asarray(X, dtype=float)
        width = X.shape[1] if X.ndim == 2 else None
        if width != len(self.model.weights):
            raise ValueError(f"model was fitted on {len(self.model.weights)} columns, got {width}")
        raw = self.model.predict((X - self.mean) / self.scale)
        if isinstance(self.model, LogisticModel):
            return ["increase" if v else "decrease" for v in raw]
        return [float(v) for v in raw]


def fit_columns(model_cfg: dict, X, labels) -> Standardized:
    """Fit `model_cfg["type"]` on X standardised by its own column mean and
    std (a zero std becomes 1); labels are 'increase'/'decrease' or numbers."""
    kind = model_cfg["type"]
    X = np.asarray(X, dtype=float)
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    Z = (X - mean) / scale
    lam = model_cfg.get("lam", DEFAULT_LAM[kind])
    if kind == "logistic":
        y = np.array([1.0 if v == "increase" else 0.0 for v in labels])
        model = fit_logistic(Z, y, lam=lam)
    else:
        y = np.array([float(v) for v in labels])
        model = fit_linear(Z, y, reg=LINEAR_PENALTIES[kind], lam=lam)
    return Standardized(model, mean, scale)
