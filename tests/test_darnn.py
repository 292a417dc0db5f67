import re
from dataclasses import replace

import numpy as np
import pytest

from econarrative.models.darnn import (AttentionRnn, DivergenceError, _attend, gradient_check,
                                        train_darnn)


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

    def test_finite_defect_fails_the_check(self, monkeypatch):
        # one analytic entry 1e-3 relative off, the largest of its tensor
        model, X, Y, labels = _instance(0)
        honest = AttentionRnn.loss_and_grads

        def planted(self, *args):
            loss, grads = honest(self, *args)
            flat = grads["dec_W"].reshape(-1)
            flat[np.argmax(np.abs(flat))] *= 1.0 + 1e-3
            return loss, grads

        assert gradient_check(model, X, Y, labels) < 1e-4
        monkeypatch.setattr(AttentionRnn, "loss_and_grads", planted)
        assert gradient_check(model, X, Y, labels) >= 1e-4

    def test_well_conditioned_point_checks_every_path(self):
        # widen the weights so both attention stages carry real gradient
        model, X, Y, labels = _instance(3, T=5, n=3, m=6, p=6)
        for key in model.params:
            model.params[key] = model.params[key] * 3.0
        assert gradient_check(model, X, Y, labels) < 1e-5

    @pytest.mark.parametrize("widen", [1.0, 3.0])
    def test_one_driver_skips_input_attention(self, widen):
        # the experiments' shape: 7 steps of one driver, whose input
        # attention is the identity, so the model has no tensors for it
        for seed in range(3):
            model, X, Y, labels = _instance(seed, T=7, n=1)
            for key in model.params:
                model.params[key] = model.params[key] * widen
            _, grads = model.loss_and_grads(X, Y, labels)
            for key in ("att_in_W", "att_in_U", "att_in_v"):
                assert key not in model.params and key not in grads, key
            assert gradient_check(model, X, Y, labels) < 1e-4

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


def _scaled_copies(model, K, seed):
    """K copies of the parameters, each entry scaled by its own 1 + 0.1 N(0, 1)."""
    rng = np.random.default_rng(seed)
    return [{k: v * (1.0 + 0.1 * rng.normal(size=v.shape)) for k, v in model.params.items()}
            for _ in range(K)]


class TestForward:
    @pytest.mark.parametrize("n", [1, 2])
    def test_stacked_loss_equals_separate_losses(self, n):
        # gradient_check rests on this: one pass over K stacked copies gives
        # each copy's own loss
        model, X, Y, labels = _instance(12, T=5, n=n, B=4)
        copies = _scaled_copies(model, 4, seed=n)
        stacked = {k: np.stack([c[k] for c in copies]) for k in model.params}
        losses = replace(model, params=stacked).loss(X, Y, labels)
        assert losses.shape == (4,)
        for got, params in zip(losses, copies):
            assert got == pytest.approx(replace(model, params=params).loss(X, Y, labels), rel=1e-12)

    def test_attention_weights_are_simplexes(self):
        model, X, Y, _ = _instance(5, T=6, n=3, m=4, p=4, B=2)
        _, cache = model.forward(X, Y, want_cache=True)
        # each step's cache holds its attention weights as att[2]: (B, n), then (B, T)
        alphas = np.stack([att[2] for att, _ in cache["enc_steps"]], axis=1)
        betas = np.stack([att[2] for att, _, _ in cache["dec_steps"]], axis=1)
        assert np.all(alphas >= 0) and np.all(betas >= 0)
        assert np.allclose(alphas.sum(axis=2), 1.0)
        assert np.allclose(betas.sum(axis=2), 1.0)

    def test_attention_over_one_item_is_exactly_one(self):
        # why the one-driver encoder may skip its input attention: the
        # softmax weight of a single item is 1.0 bit for bit, for any finite
        # score however large
        rng = np.random.default_rng(9)
        for scale in (1.0, 1e3, 1e100):
            W = rng.normal(size=(7, 8)) * scale
            v = rng.normal(size=7) * scale
            h, s = rng.normal(size=(2, 5, 4)) * scale
            proj = rng.normal(size=(5, 1, 7)) * scale
            weights, _ = _attend(W, v, h, s, proj)
            assert weights.shape == (5, 1) and (weights == 1.0).all()

    def test_shape_validation(self):
        model, X, Y, _ = _instance(0)
        with pytest.raises(ValueError, match="drivers"):
            model.forward(X[:, :, :1], Y)
        with pytest.raises(ValueError, match="target history"):
            model.forward(X, Y[:, :2])

    def test_zero_driver_count_rejected(self):
        with pytest.raises(ValueError, match="exogenous"):
            AttentionRnn.init(T=4, n=0, m=4, p=4)


def _reference_training(model, X, Y, labels, epochs, learning_rate, seed, batch_size):
    """train_darnn's update rule, one tensor at a time."""
    params = {k: v.copy() for k, v in model.params.items()}
    net = replace(model, params=params)
    rng = np.random.default_rng(seed)
    epoch_mse = []
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        total = 0.0
        for start in range(0, len(labels), batch_size):
            idx = order[start:start + batch_size]
            loss, grads = net.loss_and_grads(X[idx], Y[idx], labels[idx])
            for key, grad in grads.items():
                params[key] -= learning_rate * grad
            total += loss * len(idx)
        epoch_mse.append(total / len(labels))
    return params, epoch_mse


class TestTraining:
    @pytest.mark.parametrize("n", [1, 2])
    def test_flat_update_equals_per_tensor_update(self, n):
        # the flat parameter vector is the same elementwise arithmetic as
        # updating each tensor on its own, so every bit agrees
        model, X, Y, labels = _instance(13, T=5, n=n, B=30)
        settings = dict(epochs=4, learning_rate=0.05, seed=7, batch_size=8)
        trained = train_darnn(model, X, Y, labels, **settings)
        params, epoch_mse = _reference_training(model, X, Y, labels, **settings)
        assert list(trained.params) == list(params)
        for key, value in params.items():
            assert trained.params[key].shape == value.shape
            assert trained.params[key].tobytes() == value.tobytes(), key
        assert trained.epoch_mse == epoch_mse
        assert not all(np.array_equal(model.params[k], params[k]) for k in params)

    @pytest.mark.parametrize("value", [np.inf, np.finfo(float).max])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_one_bad_tensor_after_the_last_update_fails(self, monkeypatch, position, value):
        # a finite loss and one bad gradient entry at either end of the
        # parameter vector, in the last batch of the last epoch: nothing
        # after it could catch the bad parameter. The largest finite
        # gradient overflows the parameter only through the update.
        model, X, Y, labels = _instance(14, n=2, B=10)
        key = list(model.params)[0 if position == "first" else -1]
        entry = 0 if position == "first" else -1
        honest = AttentionRnn.loss_and_grads
        calls = []

        def planted(self, *args):
            loss, grads = honest(self, *args)
            calls.append(None)
            if len(calls) == 2 * 3:  # 2 epochs of 3 batches
                grads[key].reshape(-1)[entry] = value
            return loss, grads

        monkeypatch.setattr(AttentionRnn, "loss_and_grads", planted)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="at epoch 2$"):
            train_darnn(model, X, Y, labels, epochs=2, learning_rate=2.0, seed=0, batch_size=4)
        assert len(calls) == 6

    @pytest.mark.parametrize("n_samples, labels_shape, message", [
        (10, (12,), "labels must have shape (10,) for drivers of shape (10, 3, 1), got (12,)"),
        (10, (10, 1), "labels must have shape (10,) for drivers of shape (10, 3, 1), got (10, 1)"),
        (0, (0,), "at least one sample, got drivers of shape (0, 3, 1) and labels of shape (0,)"),
    ])
    def test_labels_that_do_not_match_the_samples_are_refused(self, n_samples, labels_shape,
                                                               message):
        # were: training on the first 10 of 12 labels, a broadcasting error
        # inside the backward pass, and ZeroDivisionError from epoch_mse
        model = AttentionRnn.init(T=3, n=1, m=4, p=4, seed=0)
        X = np.zeros((n_samples, 3, 1))
        Y = np.zeros((n_samples, 3))
        with pytest.raises(ValueError, match=re.escape(message)):
            train_darnn(model, X, Y, np.zeros(labels_shape), epochs=1)

    def test_target_history_that_does_not_match_the_samples_is_refused(self):
        model = AttentionRnn.init(T=3, n=1, m=4, p=4, seed=0)
        with pytest.raises(ValueError, match=re.escape("shape (10, 3), got (12, 3)")):
            train_darnn(model, np.zeros((10, 3, 1)), np.zeros((12, 3)), np.zeros(10), epochs=1)

    def test_constant_target_converges(self):
        rng = np.random.default_rng(1)
        model = AttentionRnn.init(T=5, n=2, m=8, p=8, seed=0)
        X = rng.normal(size=(40, 5, 2))
        Y = rng.normal(size=(40, 5))
        labels = np.full(40, 5.0)
        trained = train_darnn(model, X, Y, labels, epochs=200, learning_rate=0.05, seed=0, batch_size=16)
        assert trained.epoch_mse[-1] < 1e-3
        assert len(trained.epoch_mse) == 200

    @pytest.mark.parametrize("n_samples, batch_size", [(20, 8), (24, 8), (7, 32)])
    def test_one_forward_per_batch(self, monkeypatch, n_samples, batch_size):
        model, X, Y, labels = _instance(4, B=n_samples)
        calls = []
        real_forward = AttentionRnn.forward

        def counted(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return real_forward(self, *args, **kwargs)

        monkeypatch.setattr(AttentionRnn, "forward", counted)
        train_darnn(model, X, Y, labels, epochs=3, learning_rate=0.01, seed=0, batch_size=batch_size)
        assert len(calls) == 3 * -(-n_samples // batch_size)
        assert max(calls) <= batch_size

    def test_epoch_mse_is_the_training_loss(self):
        # with no updates every batch sees the same parameters, so the
        # batch-weighted mean of the batch losses is the full-data MSE
        model, X, Y, labels = _instance(6, B=21)
        trained = train_darnn(model, X, Y, labels, epochs=3, learning_rate=0.0, seed=2, batch_size=4)
        full = model.loss(X, Y, labels)
        assert len(trained.epoch_mse) == 3
        for mse in trained.epoch_mse:
            assert mse == pytest.approx(full, rel=1e-12)

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

    @pytest.mark.parametrize("setting, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),  # was range()'s zero step
        ("batch_size", -4, "batch_size must be >= 1, got -4"),
        ("learning_rate", -1.0, "learning_rate must be >= 0, got -1.0"),  # was gradient ascent
        ("learning_rate", float("nan"), "learning_rate must be >= 0, got nan"),  # was NaN parameters
    ])
    def test_batch_size_and_learning_rate_validated(self, setting, value, message):
        model, X, Y, labels = _instance(0)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_darnn(model, X, Y, labels, epochs=1, **{setting: value})

    def test_finite_parameters_after_training(self):
        model, X, Y, labels = _instance(8, B=12)
        trained = train_darnn(model, X, Y, labels, epochs=10, learning_rate=0.01, seed=1)
        assert all(np.isfinite(v).all() for v in trained.params.values())
