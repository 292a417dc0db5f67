import numpy as np
import pytest

from econarrative.models.darnn import AttentionRnn, DivergenceError, gradient_check, train_darnn


def _instance(seed, T=4, n=2, m=5, p=6, B=3):
    rng = np.random.default_rng(seed)
    model = AttentionRnn.init(T=T, n=n, m=m, p=p, seed=seed)
    X = rng.normal(size=(B, T, n))
    Y = rng.normal(size=(B, T))
    labels = rng.normal(size=B)
    return model, X, Y, labels


class TestGradientCheck:
    def test_random_instances_small_error(self):
        # a fast subset; the full 20-instance sweep runs in acceptance
        worst = 0.0
        for seed in range(5):
            model, X, Y, labels = _instance(seed)
            worst = np.maximum(worst, gradient_check(model, X, Y, labels))
        assert worst < 1e-4

    @pytest.mark.parametrize("key, entries", [("enc_W", (0, 0)), ("att_in_W", ...)])
    def test_nan_gradient_fails_the_check(self, monkeypatch, key, entries):
        # one NaN entry, or a whole NaN tensor, must not hide behind the
        # other tensors' small errors
        model, X, Y, labels = _instance(0)
        honest = AttentionRnn.loss_and_grads

        def planted(self, *args):
            loss, grads = honest(self, *args)
            grads[key][entries] = np.nan
            return loss, grads

        monkeypatch.setattr(AttentionRnn, "loss_and_grads", planted)
        assert not gradient_check(model, X, Y, labels) < 1e-4

    def test_well_conditioned_point_checks_every_path(self):
        # widen the weights so both attention stages carry real gradient
        model, X, Y, labels = _instance(3, T=5, n=3, m=6, p=6)
        for key in model.params:
            model.params[key] = model.params[key] * 3.0
        assert gradient_check(model, X, Y, labels) < 1e-5

    def test_large_step_degrades_accuracy(self):
        model, X, Y, labels = _instance(7)
        fine = gradient_check(model, X, Y, labels, step=1e-5)
        coarse = gradient_check(model, X, Y, labels, step=1e-1)
        assert coarse > fine

    def test_gradient_vanishes_at_stationary_point(self):
        # the loss is quadratic in the output offset; move it to its
        # one-parameter optimum and the offset gradient must vanish
        model, X, Y, labels = _instance(11)
        y_hat = model.forward(X, Y)
        model.params["out_c"] += np.mean(labels - y_hat)
        _, grads = model.loss_and_grads(X, Y, labels)
        assert abs(float(grads["out_c"][0])) < 1e-12


class TestForward:
    def test_attention_weights_are_simplexes(self):
        model, X, Y, _ = _instance(5, T=6, n=3, m=4, p=4, B=2)
        _, cache = model.forward(X, Y, want_cache=True)
        alphas, betas = cache["alphas"], cache["betas"]
        assert np.all(alphas >= 0) and np.all(betas >= 0)
        assert np.allclose(alphas.sum(axis=2), 1.0)
        assert np.allclose(betas.sum(axis=2), 1.0)

    def test_shape_validation(self):
        model, X, Y, _ = _instance(0)
        with pytest.raises(ValueError, match="drivers"):
            model.forward(X[:, :, :1], Y)
        with pytest.raises(ValueError, match="target history"):
            model.forward(X, Y[:, :2])

    def test_zero_driver_count_rejected(self):
        with pytest.raises(ValueError, match="exogenous"):
            AttentionRnn.init(T=4, n=0, m=4, p=4)


class TestTraining:
    def test_constant_target_converges(self):
        rng = np.random.default_rng(1)
        model = AttentionRnn.init(T=5, n=2, m=8, p=8, seed=0)
        X = rng.normal(size=(40, 5, 2))
        Y = rng.normal(size=(40, 5))
        labels = np.full(40, 5.0)
        trained = train_darnn(model, X, Y, labels, epochs=200, learning_rate=0.05, seed=0, batch_size=16)
        assert trained.epoch_mse[-1] < 1e-3
        assert len(trained.epoch_mse) == 200

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        model = AttentionRnn.init(T=4, n=2, m=5, p=5, seed=9)
        X = rng.normal(size=(20, 4, 2))
        Y = rng.normal(size=(20, 4))
        labels = rng.normal(size=20)
        a = train_darnn(model, X, Y, labels, epochs=5, learning_rate=0.01, seed=3)
        b = train_darnn(model, X, Y, labels, epochs=5, learning_rate=0.01, seed=3)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert a.epoch_mse == b.epoch_mse

    def test_training_does_not_mutate_input_model(self):
        model, X, Y, labels = _instance(4, B=10)
        before = {k: v.copy() for k, v in model.params.items()}
        train_darnn(model, X, Y, labels, epochs=2, learning_rate=0.01, seed=0)
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(6)
        model = AttentionRnn.init(T=3, n=2, m=4, p=4, seed=0)
        X = rng.normal(size=(16, 3, 2)) * 10
        Y = rng.normal(size=(16, 3)) * 10
        labels = rng.normal(size=16) * 1e6
        with pytest.raises(DivergenceError, match="epoch"):
            train_darnn(model, X, Y, labels, epochs=50, learning_rate=1e6, seed=0)

    def test_epochs_validated(self):
        model, X, Y, labels = _instance(0)
        with pytest.raises(ValueError):
            train_darnn(model, X, Y, labels, epochs=0)

    def test_finite_parameters_after_training(self):
        model, X, Y, labels = _instance(8, B=12)
        trained = train_darnn(model, X, Y, labels, epochs=10, learning_rate=0.01, seed=1)
        assert all(np.isfinite(v).all() for v in trained.params.values())
