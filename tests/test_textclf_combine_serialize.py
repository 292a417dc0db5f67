import json

import numpy as np
import pytest

from econarrative import experiment
from econarrative.embed import ExternalEmbedder, HashingEmbedder
from econarrative.experiment import ExperimentError, prepare
from econarrative.models import (
    fit_linear,
    fit_logistic,
    fit_text_classifier,
    model_from_doc,
    model_to_doc,
)
from econarrative.models.darnn import AttentionRnn


class TestTextClassifier:
    EMBEDDER = HashingEmbedder(dimension=64, seed=2)

    def test_separable_token_classes(self):
        ups = [f"markets surge on day {i}" for i in range(10)]
        downs = [f"markets plunge on day {i}" for i in range(10)]
        prompts = ups + downs
        labels = [1] * 10 + [0] * 10
        clf = fit_text_classifier(prompts, labels, self.EMBEDDER)
        assert (clf.predict(prompts) == np.array(labels)).all()

    def test_conflicting_duplicates_cap_accuracy(self):
        prompts = ["identical text"] * 8
        labels = [1, 0] * 4
        clf = fit_text_classifier(prompts, labels, self.EMBEDDER, lam=1.0)
        accuracy = float((clf.predict(prompts) == np.array(labels)).mean())
        assert accuracy <= 0.5

    def test_deterministic_under_fixed_seed(self):
        prompts = ["surge ahead", "plunge below", "surge again", "plunge again"]
        labels = [1, 0, 1, 0]
        a = fit_text_classifier(prompts, labels, HashingEmbedder(dimension=32, seed=7))
        b = fit_text_classifier(prompts, labels, HashingEmbedder(dimension=32, seed=7))
        assert np.array_equal(a.head.weights, b.head.weights)

    def test_external_embedder_gets_one_request_per_call(self, stub_server):
        stub_server.state.set_raw(
            lambda payload: {"vectors": [[1.0 if "surge" in t else -1.0, 0.5] for t in payload["texts"]]}
        )
        embedder = ExternalEmbedder(endpoint=stub_server.url, dimension=2)
        prompts = [f"markets {'surge' if i % 2 else 'plunge'} on day {i}" for i in range(20)]
        labels = [i % 2 for i in range(20)]
        clf = fit_text_classifier(prompts, labels, embedder)
        assert stub_server.calls == 1
        assert clf.predict(prompts).tolist() == labels
        assert stub_server.calls == 2

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_text_classifier(["a", "b"], [1, 1], self.EMBEDDER)


def _walk_config(features, models=()):
    return {
        "data": {
            "series": {"random_walk": {"n": 120, "sigma": 0.01, "v0": 100.0, "seed": 2}},
            "text": {"synthetic_narratives": {"seed": 4, "p": 1.0, "per_day": 2}},
        },
        "task": {"kind": "next-value", "horizon": 1},
        "features": features,
        "models": list(models),
    }


SENTIMENT_AND_VALUES = {"text": "sentiment-window", "financial": "value-window", "window": 7}


class TestCombineFeatures:
    """How the experiment joins the text (T) and financial (F) blocks: side
    by side in one feature matrix, or as drivers and target history of the
    attention RNN."""

    def test_concat_dimensions(self):
        aligned, matrix = prepare(_walk_config(SENTIMENT_AND_VALUES))
        assert matrix.X.shape == (len(matrix.dates), 14)
        assert (matrix.t_columns, matrix.f_columns) == (slice(0, 7), slice(7, 14))
        i = aligned.index_of(matrix.dates[0])
        assert matrix.X[0, matrix.f_columns].tolist() == list(aligned.values[i - 6:i + 1])

    def test_zeroed_text_block_matches_financial_only(self):
        # a combined-input linear model scored with a zeroed text block
        # equals the same weights applied to the financial block alone
        _, matrix = prepare(_walk_config(SENTIMENT_AND_VALUES))
        X = matrix.X
        y = np.array(matrix.labels, dtype=float)
        model = fit_linear(X, y, reg="l2", lam=0.1)
        zeroed = X.copy()
        zeroed[:, matrix.t_columns] = 0.0
        financial_part = X[:, matrix.f_columns] @ model.weights[matrix.f_columns] + model.bias
        assert np.allclose(model.predict(zeroed), financial_part)

    def test_darnn_exogenous_shapes(self, monkeypatch):
        seen = {}
        real_train = experiment.train_darnn

        def recording_train(model, drivers, history, targets, **kwargs):
            seen.update(drivers=drivers.shape, history=history.shape, targets=targets.shape)
            return real_train(model, drivers, history, targets, **kwargs)

        monkeypatch.setattr(experiment, "train_darnn", recording_train)
        darnn = {"name": "darnn", "type": "darnn", "epochs": 1, "m": 4, "p": 4}
        n_train = experiment.run_experiment(_walk_config(SENTIMENT_AND_VALUES, [darnn])).n_train
        assert seen == {"drivers": (n_train, 7, 1), "history": (n_train, 7), "targets": (n_train,)}

    def test_shape_mismatch_rejected(self):
        darnn = {"name": "darnn", "type": "darnn", "epochs": 1, "m": 4, "p": 4}
        for features in (
            {"text": "sentiment-window", "financial": "none", "window": 7},
            {"text": "none", "financial": "value-window", "window": 7},
        ):
            with pytest.raises(ExperimentError, match="text drivers and a value-window history"):
                experiment.run_experiment(_walk_config(features, [darnn]))


class TestSerialization:
    def test_linear_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        model = fit_linear(rng.normal(size=(20, 3)), rng.normal(size=20), reg="l2", lam=0.5)
        doc = json.loads(json.dumps(model_to_doc(model, kind="F", task="next-value", horizon=1)))
        restored = model_from_doc(doc)
        assert np.array_equal(restored.weights, model.weights)
        assert restored.bias == model.bias
        assert restored.lam == 0.5

    def test_logistic_round_trip(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_logistic(X, y, lam=0.1)
        restored = model_from_doc(model_to_doc(model))
        assert np.array_equal(restored.weights, model.weights)
        assert restored.predict_proba(X) == pytest.approx(model.predict_proba(X))

    def test_attention_rnn_round_trip_bit_exact(self):
        model = AttentionRnn.init(T=4, n=2, m=5, p=6, seed=13)
        doc = json.loads(json.dumps(model_to_doc(model, kind="TF")))
        restored = model_from_doc(doc)
        assert all(np.array_equal(restored.params[k], model.params[k]) for k in model.params)
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4))
        assert np.array_equal(restored.predict(X, Y), model.predict(X, Y))

    def test_text_classifier_round_trip(self):
        embedder = HashingEmbedder(dimension=32, seed=4)
        clf = fit_text_classifier(["surge up", "plunge down"], [1, 0], embedder)
        restored = model_from_doc(model_to_doc(clf, kind="T"))
        prompts = ["surge there", "plunge here"]
        assert np.array_equal(restored.predict(prompts), clf.predict(prompts))

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            model_from_doc({"schema": 99})

    def test_metadata_travels(self):
        model = fit_linear(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), reg="l2", lam=1.0)
        doc = model_to_doc(model, kind="TF", task="pct-change", horizon=7)
        assert (doc["kind"], doc["task"], doc["horizon"]) == ("TF", "pct-change", 7)
