import re

import numpy as np
import pytest

from econarrative.models import fit_logistic, logistic_objective
from econarrative.models import logistic
from econarrative.models.logistic import GRAD_TOL, ConvergenceError, _sigmoid
from oracles import logistic_gd_oracle


def _gradient_norm(model, X, y, lam):
    p = model.predict_proba(X)
    grad_w = X.T @ (p - y) / len(y) + lam * model.weights
    grad_b = np.mean(p - y)
    return np.sqrt(grad_w @ grad_w + grad_b**2)


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
        assert _gradient_norm(model, X, y, lam) < 1e-6

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

    def test_iteration_cap_raises(self, monkeypatch):
        # one Newton step leaves the gradient above GRAD_TOL; without the cap the fit would converge
        monkeypatch.setattr(logistic, "MAX_ITER", 1)
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ConvergenceError, match=f"did not reach {GRAD_TOL} within 1 iterations"):
            fit_logistic(X, y, lam=0.01)

    @pytest.mark.parametrize("lam", [0.0, -0.1, float("nan"), float("inf")])
    def test_penalty_that_is_negative_or_not_finite_rejected(self, monkeypatch, lam):
        monkeypatch.setattr(logistic, "MAX_ITER", 200)  # a fit that slips past the check ends soon
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"lam must be finite and > 0, got {lam!r}")):
            fit_logistic(X, y, lam=lam)

    def test_zero_penalty_refused_where_a_separation_check_missed_it(self):
        # column 0 weakly separates the classes and the rows at 0 mix along column 1:
        # an unpenalised Newton fit reached GRAD_TOL here at w=[12.83, -0.43]
        X = np.array([[0, 1], [0, 1], [0, -1], [0, -1], [0, 2], [0, 0.5], [1, 0], [2, 1], [-1, 0],
                      [-2, 1]], dtype=float)
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=re.escape("lam must be finite and > 0, got 0.0")):
            fit_logistic(X, y, lam=0.0)

    def test_columns_without_signal_converge(self):
        # the optimum is w=0: every row scores the same
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_logistic(X, y, lam=0.01)
        assert model.weights[0] == 0.0 and model.bias == 0.0

    def test_constant_column_converges(self):
        # the zero column's Hessian row is the penalty alone, so the solve still has a unique answer
        X = np.array([[-2.0, 0.0], [-1.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        model = fit_logistic(X, y, lam=0.01)
        assert model.weights[1] == 0.0
        assert _gradient_norm(model, X, y, 0.01) < GRAD_TOL


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_newton_matches_gradient_descent_oracle(seed, lam):
    """Both stop with a gradient norm below GRAD_TOL, so each lies within
    GRAD_TOL / mu of the optimum, mu the Hessian's least eigenvalue there;
    the weights may differ by twice that."""
    rng = np.random.default_rng(seed)
    n, d = 80, 4
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) + rng.logistic(size=n) > 0).astype(float)
    model = fit_logistic(X, y, lam=lam)
    w, b = logistic_gd_oracle(X, y, lam)

    Xb = np.hstack([X, np.ones((n, 1))])
    p = model.predict_proba(X)
    hessian = (Xb.T * (p * (1.0 - p))) @ Xb / n + np.diag([lam] * d + [0.0])
    tolerance = 2 * GRAD_TOL / np.linalg.eigvalsh(hessian).min()
    assert np.abs(np.append(model.weights - w, model.bias - b)).max() < tolerance
    assert (logistic_objective(X, y, model.weights, model.bias, lam)
            <= logistic_objective(X, y, w, b, lam) + 1e-12)


def test_sigmoid_saturates_safely():
    assert _sigmoid(np.array([1e9]))[0] == pytest.approx(1.0)
    assert _sigmoid(np.array([-1e9]))[0] == pytest.approx(0.0)
