import json

import numpy as np
import pytest

from econarrative.harness import EntryError
from econarrative.models import (
    Standardized,
    fit_columns,
    fit_linear,
    fit_logistic,
    model_from_doc,
    model_to_doc,
)

RNG = np.random.default_rng(11)
X = np.column_stack([RNG.normal(5.0, 3.0, 40), RNG.normal(size=40), np.full(40, 2.5)])
DIRECTIONS = ["increase" if v > 0 else "decrease" for v in X[:, 1] + RNG.normal(size=40)]
VALUES = [float(v) for v in 2.0 * X[:, 0] - X[:, 1] + RNG.normal(size=40)]


def _standardised(X):
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)


class TestFitColumns:
    def test_logistic_fits_standardised_columns(self):
        fitted = fit_columns({"type": "logistic"}, X, DIRECTIONS)
        y = np.array([1.0 if v == "increase" else 0.0 for v in DIRECTIONS])
        direct = fit_logistic(_standardised(X), y, lam=0.01)
        assert np.array_equal(fitted.model.weights, direct.weights)
        assert fitted.predict(X) == [
            "increase" if v else "decrease" for v in direct.predict(_standardised(X))
        ]

    @pytest.mark.parametrize("kind, reg, lam", [
        ("linear", "none", 0.0), ("ridge", "l2", 1.0), ("lasso", "l1", 1.0),
    ])
    def test_linear_kinds_use_the_experiment_defaults(self, kind, reg, lam):
        X2 = X[:, :2]  # without the constant column, which leaves `linear` singular
        fitted = fit_columns({"type": kind}, X2, VALUES)
        direct = fit_linear(_standardised(X2), np.array(VALUES), reg=reg, lam=lam)
        assert np.array_equal(fitted.model.weights, direct.weights)
        assert fitted.model.bias == direct.bias
        assert fitted.predict(X2) == [float(v) for v in direct.predict(_standardised(X2))]

    def test_explicit_lam_wins(self):
        fitted = fit_columns({"type": "ridge", "lam": 0.25}, X, VALUES)
        direct = fit_linear(_standardised(X), np.array(VALUES), reg="l2", lam=0.25)
        assert np.array_equal(fitted.model.weights, direct.weights)

    def test_constant_column_keeps_scale_one(self):
        fitted = fit_columns({"type": "ridge"}, X, VALUES)
        assert fitted.scale[2] == 1.0
        assert fitted.mean[2] == 2.5

    def test_predict_rejects_another_width(self):
        fitted = fit_columns({"type": "ridge"}, X, VALUES)
        with pytest.raises(ValueError, match="fitted on 3 columns, got 1"):
            fitted.predict(X[:, :1])

    @pytest.mark.parametrize("kind, labels, index, problem", [
        ("logistic", DIRECTIONS[:5] + ["up"] + DIRECTIONS[6:], 5, "'up', not 'increase' or 'decrease'"),
        ("logistic", VALUES, 0, f"{VALUES[0]!r}, not 'increase' or 'decrease'"),
        ("ridge", VALUES[:5] + ["up"] + VALUES[6:], 5, "'up', not a number"),
        ("lasso", DIRECTIONS, 0, f"{DIRECTIONS[0]!r}, not a number"),
    ])
    def test_a_label_evaluate_cannot_read_is_refused(self, kind, labels, index, problem):
        with pytest.raises(EntryError, match=f"label {index} is {problem}") as caught:
            fit_columns({"type": kind}, X, labels)
        assert caught.value.index == index


class TestStandardizedDocs:
    def test_round_trip_bit_exact(self):
        fitted = fit_columns({"type": "lasso", "lam": 0.5}, X, VALUES)
        doc = json.loads(json.dumps(model_to_doc(fitted)))
        assert doc["schema"] == 2
        assert set(doc["transform"]) == {"mean", "scale"}
        restored = model_from_doc(doc)
        assert isinstance(restored, Standardized)
        assert np.array_equal(restored.mean, fitted.mean)
        assert np.array_equal(restored.scale, fitted.scale)
        assert restored.predict(X) == fitted.predict(X)

    def test_logistic_round_trip_predicts_labels(self):
        fitted = fit_columns({"type": "logistic"}, X, DIRECTIONS)
        restored = model_from_doc(json.loads(json.dumps(model_to_doc(fitted))))
        assert restored.predict(X) == fitted.predict(X)

    @pytest.mark.parametrize("model", [
        fit_logistic(X, np.array([1.0, 0.0] * 20), lam=0.1),
        fit_linear(X, np.array(VALUES), reg="l2", lam=1.0),
    ])
    def test_schema_one_doc_reads_with_the_identity_transform(self, model):
        doc = model_to_doc(Standardized(model))
        del doc["transform"]
        doc["schema"] = 1
        restored = model_from_doc(doc)
        assert isinstance(restored, Standardized)
        assert isinstance(restored.model, type(model))
        assert (restored.mean, restored.scale) == (0.0, 1.0)
        assert np.array_equal(restored.model.weights, model.weights)
