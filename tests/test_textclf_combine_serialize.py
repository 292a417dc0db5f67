import base64
import json
from pathlib import Path

import numpy as np
import pytest

from econarrative import experiment
from econarrative.embed import ExternalEmbedder, HashingEmbedder
from econarrative.experiment import ExperimentError, prepare
from econarrative.models import (
    Standardized,
    fit_linear,
    fit_logistic,
    fit_text_classifier,
    model_from_doc,
    model_to_doc,
)
from econarrative.models.darnn import AttentionRnn

GOLDEN_RNN = Path(__file__).parent / "goldens" / "attention_rnn_model.json"


def _tensor(*shape):
    return {"shape": list(shape), "data": base64.b64encode(np.zeros(shape).tobytes()).decode()}


def _without_out_c(doc):
    del doc["parameters"]["out_c"]


def _with_an_extra_tensor(doc):
    doc["parameters"]["extra"] = _tensor(1)


def _out_c_of_two(doc):
    doc["parameters"]["out_c"] = _tensor(2)


def _window_of_zero(doc):
    doc["shapes"]["T"] = 0


class TestTextClassifier:
    EMBEDDER = HashingEmbedder(dimension=64, seed=2)

    def test_separable_token_classes(self):
        ups = [f"markets surge on day {i}" for i in range(10)]
        downs = [f"markets plunge on day {i}" for i in range(10)]
        prompts = ups + downs
        labels = [1] * 10 + [0] * 10
        clf = fit_text_classifier(prompts, labels, self.EMBEDDER)
        assert (clf.predict(prompts) == np.array(labels)).all()

    def test_zero_penalty_refused(self):
        prompts = ["markets surge", "markets plunge"]
        with pytest.raises(ValueError, match="lam must be finite and > 0, got 0"):
            fit_text_classifier(prompts, [1, 0], self.EMBEDDER, lam=0)

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
        _, aligned, matrix = prepare(_walk_config(SENTIMENT_AND_VALUES))
        assert matrix.X.shape == (len(matrix.dates), 14)
        assert (matrix.t_columns, matrix.f_columns) == (slice(0, 7), slice(7, 14))
        i = aligned.index_of(matrix.dates[0])
        assert matrix.X[0, matrix.f_columns].tolist() == list(aligned.values[i - 6:i + 1])

    def test_zeroed_text_block_matches_financial_only(self):
        # a combined-input linear model scored with a zeroed text block
        # equals the same weights applied to the financial block alone
        _, _, matrix = prepare(_walk_config(SENTIMENT_AND_VALUES))
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
        doc = json.loads(json.dumps(model_to_doc(Standardized(model))))
        restored = model_from_doc(doc).model
        assert np.array_equal(restored.weights, model.weights)
        assert restored.bias == model.bias

    def test_logistic_round_trip(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_logistic(X, y, lam=0.1)
        restored = model_from_doc(model_to_doc(Standardized(model))).model
        assert np.array_equal(restored.weights, model.weights)
        assert restored.predict_proba(X) == pytest.approx(model.predict_proba(X))

    def test_attention_rnn_round_trip_bit_exact(self):
        model = AttentionRnn.init(T=4, n=2, m=5, p=6, seed=13)
        doc = json.loads(json.dumps(model_to_doc(model)))
        restored = model_from_doc(doc)
        assert all(np.array_equal(restored.params[k], model.params[k]) for k in model.params)
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4))
        assert np.array_equal(restored.forward(X, Y), model.forward(X, Y))

    def test_one_driver_attention_rnn_round_trip_bit_exact(self):
        model = AttentionRnn.init(T=7, n=1, m=3, p=4, seed=5)
        doc = json.loads(json.dumps(model_to_doc(model)))
        assert not any(name.startswith("att_in_") for name in doc["parameters"])
        restored = model_from_doc(doc)
        assert sorted(restored.params) == sorted(model.params)
        assert all(np.array_equal(restored.params[k], model.params[k]) for k in model.params)
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(3, 7, 1)), rng.normal(size=(3, 7))
        assert np.array_equal(restored.forward(X, Y), model.forward(X, Y))
        # a doc from before one-driver models dropped their input attention
        doc["parameters"]["att_in_v"] = model_to_doc(
            AttentionRnn.init(T=7, n=2, m=3, p=4))["parameters"]["att_in_v"]
        with pytest.raises(ValueError, match="unknown tensor 'att_in_v'"):
            model_from_doc(doc)

    def test_older_attention_rnn_doc_reads_bit_exact_without_its_config(self):
        # written by an earlier model_to_doc, which also saved the seed of the
        # initial weights as `config`
        golden = json.loads(GOLDEN_RNN.read_text("utf-8"))
        assert golden["config"] == {"seed": 23}
        restored = model_from_doc(golden)
        assert sorted(restored.params) == sorted(golden["parameters"])
        for name, tensor in golden["parameters"].items():
            assert restored.params[name].astype("<f8").tobytes() == base64.b64decode(tensor["data"])
        assert model_to_doc(restored) == {k: v for k, v in golden.items() if k != "config"}

    @pytest.mark.parametrize("spoil, problem", [
        (_without_out_c, "missing tensor 'out_c'"),
        (_with_an_extra_tensor, "unknown tensor 'extra'"),
        (_out_c_of_two, r"tensor 'out_c' has shape \(2,\), but shapes .* give \(1,\)"),
        (_window_of_zero, "window length T must be >= 1"),
    ])
    def test_attention_rnn_doc_with_other_tensors_is_refused(self, spoil, problem):
        doc = json.loads(GOLDEN_RNN.read_text("utf-8"))
        spoil(doc)
        with pytest.raises(ValueError, match=problem):
            model_from_doc(doc)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            model_from_doc({"schema": 99})

    def test_a_bare_column_model_is_refused(self):
        model = fit_linear(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), reg="l2", lam=1.0)
        with pytest.raises(TypeError, match="cannot serialize LinearModel"):
            model_to_doc(model)

    def test_text_classifier_doc_is_an_unknown_architecture(self):
        with pytest.raises(ValueError, match="unknown architecture 'text-classifier'"):
            model_from_doc({"schema": 2, "architecture": "text-classifier"})
