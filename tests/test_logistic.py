import re

import numpy as np
import pytest

from econarrative.models import fit_logistic, logistic_objective
from econarrative.models import logistic
from econarrative.models.logistic import ConvergenceError, _sigmoid


class TestFitLogistic:
    def test_separable_toy_perfect_accuracy(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = fit_logistic(X, y, lam=0.01)
        assert (model.predict(X) == y).all()

    def test_mirrored_data_has_zero_bias(self):
        rng = np.random.default_rng(9)
        X_pos = rng.normal(loc=1.0, size=(40, 3))
        X = np.vstack([X_pos, -X_pos])
        y = np.concatenate([np.ones(40), np.zeros(40)])
        model = fit_logistic(X, y, lam=0.1)
        assert abs(model.bias) < 1e-4

    def test_single_class_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(X, np.array([1.0, 1.0]))

    def test_gradient_norm_small_at_exit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.5).astype(float)
        lam = 0.05
        model = fit_logistic(X, y, lam=lam)
        p = model.predict_proba(X)
        grad_w = X.T @ (p - y) / len(y) + lam * model.weights
        grad_b = np.mean(p - y)
        assert np.sqrt(grad_w @ grad_w + grad_b**2) < 1e-6

    def test_probabilities_strictly_inside_unit_interval(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0.0, 1.0])
        model = fit_logistic(X, y, lam=0.01)
        p = model.predict_proba(np.array([[-1e6], [0.0], [1e6]]))
        assert (p > 0.0).all() and (p < 1.0).all()

    def test_descent_lowers_objective(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_logistic(X, y, lam=0.1)
        at_fit = logistic_objective(X, y, model.weights, model.bias, 0.1)
        at_zero = logistic_objective(X, y, np.zeros(3), 0.0, 0.1)
        assert at_fit < at_zero

    def test_unregularized_separable_fails_to_converge(self, monkeypatch):
        monkeypatch.setattr(logistic, "MAX_ITER", 200)
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ConvergenceError):
            fit_logistic(X, y, lam=0.0)

    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_penalty_that_is_negative_or_not_finite_rejected(self, monkeypatch, lam):
        monkeypatch.setattr(logistic, "MAX_ITER", 200)  # a fit that slips past the check ends soon
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"lam must be finite and >= 0, got {lam!r}")):
            fit_logistic(X, y, lam=lam)


def test_sigmoid_saturates_safely():
    assert _sigmoid(np.array([1e9]))[0] == pytest.approx(1.0)
    assert _sigmoid(np.array([-1e9]))[0] == pytest.approx(0.0)
