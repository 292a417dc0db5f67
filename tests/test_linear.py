import re

import numpy as np
import pytest

from econarrative.models import fit_linear, linear_objective
from econarrative.models import linear
from econarrative.models.linear import SingularSystemError
from econarrative.models.logistic import ConvergenceError
from oracles import lasso_prox_oracle, ridge_gd_oracle


class TestClosedForm:
    def test_exact_fit(self):
        model = fit_linear(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    def test_huge_ridge_collapses_to_mean(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = fit_linear(X, y, reg="l2", lam=1e9)
        assert abs(model.weights[0]) < 1e-6
        assert model.bias == pytest.approx(np.mean(y), abs=1e-6)

    def test_singular_system_advises_regularization(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        with pytest.raises(SingularSystemError, match="lam > 0"):
            fit_linear(X, np.array([1.0, 2.0, 3.0]))

    def test_training_loss_beats_zero_model(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        for reg, lam in (("none", 0.0), ("l2", 0.5), ("l1", 0.5)):
            model = fit_linear(X, y, reg=reg, lam=lam)
            fitted = linear_objective(X, y, model.weights, model.bias, reg, lam)
            zero = linear_objective(X, y, np.zeros(4), 0.0, reg, lam)
            assert fitted <= zero

    def test_input_validation(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_linear(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            fit_linear(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("reg", ["none", "l1", "l2"])
    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_penalty_that_is_negative_or_not_finite_rejected(self, reg, lam):
        X = np.array([[1.0], [2.0], [4.0]])
        with pytest.raises(ValueError, match=re.escape(f"lam must be finite and >= 0, got {lam!r}")):
            fit_linear(X, np.array([2.0, 4.0, 7.0]), reg=reg, lam=lam)

    def test_penalty_weight_without_a_penalty_rejected(self):
        X = np.array([[1.0], [2.0], [4.0]])
        with pytest.raises(ValueError, match="lam 0.5 does nothing without a penalty"):
            fit_linear(X, np.array([2.0, 4.0, 7.0]), lam=0.5)


class TestRidgeCrossCheck:
    def test_closed_form_matches_gradient_descent(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            X = rng.normal(size=(12, 4))
            y = rng.normal(size=12)
            lam = float(rng.uniform(0.1, 2.0))
            model = fit_linear(X, y, reg="l2", lam=lam)
            w_gd, b_gd = ridge_gd_oracle(X, y, lam)
            j_closed = linear_objective(X, y, model.weights, model.bias, "l2", lam)
            j_gd = linear_objective(X, y, w_gd, b_gd, "l2", lam)
            assert abs(j_closed - j_gd) < 1e-6


class TestLassoCrossCheck:
    def test_coordinate_descent_matches_slow_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            X = rng.normal(size=(5, 3))
            y = rng.normal(size=5)
            lam = float(rng.uniform(0.05, 1.0))
            model = fit_linear(X, y, reg="l1", lam=lam)
            w_slow, b_slow = lasso_prox_oracle(X, y, lam)
            j_cd = linear_objective(X, y, model.weights, model.bias, "l1", lam)
            j_slow = linear_objective(X, y, w_slow, b_slow, "l1", lam)
            assert abs(j_cd - j_slow) < 1e-6

    def test_large_lambda_zeroes_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_linear(X, y, reg="l1", lam=1e4)
        assert np.allclose(model.weights, 0.0)
        assert model.bias == pytest.approx(np.mean(y), abs=1e-8)

    def test_zero_lambda_matches_least_squares(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        cd = fit_linear(X, y, reg="l1", lam=0.0)
        ols = fit_linear(X, y)
        assert np.allclose(cd.weights, ols.weights, atol=1e-6)
        assert cd.bias == pytest.approx(ols.bias, abs=1e-6)

    def test_sweep_limit_raises_instead_of_returning(self, monkeypatch):
        # correlated columns need many sweeps; one is not enough
        rng = np.random.default_rng(9)
        base = rng.normal(size=(30, 1))
        X = np.hstack([base, base + 0.1 * rng.normal(size=(30, 1))])
        y = X @ np.array([2.0, -1.0]) + 0.01 * rng.normal(size=30)
        assert fit_linear(X, y, reg="l1", lam=0.1).weights.shape == (2,)
        monkeypatch.setattr(linear, "CD_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match=r"1 sweeps; last max change \d"):
            fit_linear(X, y, reg="l1", lam=0.1)


def test_predict_shape():
    model = fit_linear(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    out = model.predict(np.array([[4.0], [5.0]]))
    assert out == pytest.approx([8.0, 10.0])
