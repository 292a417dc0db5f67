from .baselines import financial_baseline
from .columns import Standardized, fit_columns
from .darnn import AttentionRnn, gradient_check, train_darnn
from .linear import LinearModel, fit_linear, linear_objective
from .logistic import LogisticModel, fit_logistic, logistic_objective
from .serialize import model_from_doc, model_to_doc
from .textclf import TextClassifier, fit_text_classifier

__all__ = [
    "AttentionRnn",
    "LinearModel",
    "LogisticModel",
    "Standardized",
    "TextClassifier",
    "financial_baseline",
    "fit_columns",
    "fit_linear",
    "fit_logistic",
    "fit_text_classifier",
    "gradient_check",
    "linear_objective",
    "logistic_objective",
    "model_from_doc",
    "model_to_doc",
    "train_darnn",
]
