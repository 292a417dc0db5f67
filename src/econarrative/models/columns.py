"""The one fit for column models (logistic, linear, ridge, lasso), shared by
the experiment and the ``train`` command."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..harness import check_entry
from .linear import LinearModel, fit_linear
from .logistic import LogisticModel, fit_logistic

# model type -> (fit_linear's `reg`, None for logistic; default `lam`, 0.0: no `lam` key)
COLUMN_MODELS = {"logistic": (None, 0.01), "linear": ("none", 0.0), "ridge": ("l2", 1.0),
                 "lasso": ("l1", 1.0)}


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
    std (a zero std becomes 1). Labels are 'increase'/'decrease' for
    logistic and numbers otherwise, read as `evaluate` reads them: any other
    label is an EntryError naming its index and value."""
    reg, lam = COLUMN_MODELS[model_cfg["type"]]
    lam = model_cfg.get("lam", lam)
    y = np.array([check_entry("label", i, v, regression=reg is not None) for i, v in enumerate(labels)])
    X = np.asarray(X, dtype=float)
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    Z = (X - mean) / scale
    if reg is None:
        if len(set(y)) == 1:
            present = str(y[0])
            missing = "decrease" if present == "increase" else "increase"
            raise ValueError(f"labels must contain both classes: every label is {present!r}, "
                             f"none is {missing!r}")
        model = fit_logistic(Z, (y == "increase").astype(float), lam=lam)
    else:
        model = fit_linear(Z, y, reg=reg, lam=lam)
    return Standardized(model, mean, scale)
