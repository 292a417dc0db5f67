import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from econarrative import ingest, sentiment, synthgen
from econarrative.embed import HashingEmbedder, daily_embedding
from econarrative.experiment import (
    ExperimentError,
    build_features,
    config_hash,
    run_experiment,
    write_report,
)
from econarrative.harness import make_labels


def _planted_config(text_source, seed=7):
    return {
        "seed": seed,
        "data": {
            "series": {"random_walk": {"n": 508, "sigma": 0.01, "v0": 100.0, "seed": 11}},
            "text": text_source,
        },
        "task": {"kind": "direction-change", "horizon": 1},
        "features": {"text": "sentiment-window", "financial": "direction-window", "window": 7},
        "models": [
            {"name": "tf-logistic", "type": "logistic", "inputs": "TF", "lam": 0.01},
            {"name": "f-logistic", "type": "logistic", "inputs": "F", "lam": 0.01},
            {"name": "up", "type": "baseline", "kind": "up"},
            {"name": "week-majority", "type": "baseline", "kind": "week-majority"},
        ],
        "eval": {"train_fraction": 0.8},
    }


NARRATIVES = {"synthetic_narratives": {"seed": 13, "p": 1.0, "per_day": 3}}
RANDOM_TEXTS = {"random_texts": {"seed": 13, "per_day": 3}}
SHUFFLED = {"shuffled_narratives": {"seed": 13, "p": 1.0, "per_day": 3, "shuffle_seed": 5}}


def _accuracy(report, name):
    return next(r["accuracy"] for r in report.models if r["name"] == name)


class TestPlantedSignal:
    def test_aligned_narratives_recoverable_by_tf_model(self):
        report = run_experiment(_planted_config(NARRATIVES))
        assert _accuracy(report, "tf-logistic") >= 0.9
        assert abs(_accuracy(report, "f-logistic") - 0.5) <= 0.1

    def test_random_texts_carry_no_signal(self):
        report = run_experiment(_planted_config(RANDOM_TEXTS))
        assert abs(_accuracy(report, "tf-logistic") - 0.5) <= 0.1

    def test_shuffling_destroys_the_signal(self):
        report = run_experiment(_planted_config(SHUFFLED))
        assert abs(_accuracy(report, "tf-logistic") - 0.5) <= 0.1

    def test_mcnemar_pairs_cover_classification_models(self):
        report = run_experiment(_planted_config(NARRATIVES))
        pair_names = {(p["model_a"], p["model_b"]) for p in report.mcnemar_pairs}
        # 4 classification models -> 6 pairs
        assert len(pair_names) == 6
        assert all(0.0 <= p["p_value"] <= 1.0 for p in report.mcnemar_pairs)


class TestLeakageAudit:
    def test_feature_dates_never_pass_prediction_date(self):
        report = run_experiment(_planted_config(NARRATIVES))
        assert report.leakage_audit["max_feature_date_ok"] is True
        assert report.leakage_audit["max_train_date"] < report.leakage_audit["min_test_date"]

    def test_train_test_ranges_ordered(self):
        report = run_experiment(_planted_config(RANDOM_TEXTS))
        assert report.train_range[1] < report.test_range[0]


class TestStages:
    def test_missing_file_names_ingest_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        with pytest.raises(ExperimentError, match="stage 'ingest'") as err:
            run_experiment(config)
        assert err.value.stage == "ingest"

    def test_bad_model_type_names_model_stage(self):
        config = _planted_config(NARRATIVES)
        config["models"] = [{"name": "zzz", "type": "mystery"}]
        with pytest.raises(ExperimentError, match="stage 'model:zzz'"):
            run_experiment(config)

    def test_classification_model_on_regression_task(self):
        config = _planted_config(NARRATIVES)
        config["task"] = {"kind": "next-value", "horizon": 1}
        with pytest.raises(ExperimentError, match="classification"):
            run_experiment(config)

    def test_unsupported_horizon_rejected_in_config_stage(self):
        config = _planted_config(NARRATIVES)
        config["task"]["horizon"] = 3
        with pytest.raises(ExperimentError, match="stage 'config'"):
            run_experiment(config)


class TestRegressionModels:
    def _config(self):
        return {
            "seed": 3,
            "data": {
                "series": {"random_walk": {"n": 150, "sigma": 0.01, "v0": 100.0, "seed": 2}},
                "text": {"synthetic_narratives": {"seed": 4, "p": 1.0, "per_day": 2}},
            },
            "task": {"kind": "next-value", "horizon": 1},
            "features": {"text": "sentiment-window", "financial": "value-window", "window": 7},
            "models": [
                {"name": "ridge", "type": "ridge", "inputs": "TF", "lam": 1.0},
                {"name": "lasso", "type": "lasso", "inputs": "TF", "lam": 0.5},
                {"name": "linear-f", "type": "linear", "inputs": "F", "lam": 0.0},
                {"name": "as-prev", "type": "baseline", "kind": "as-previous"},
                {"name": "train-mean", "type": "baseline", "kind": "train-mean"},
            ],
            "eval": {"train_fraction": 0.8},
        }

    def test_regression_models_beat_train_mean_on_a_walk(self):
        report = run_experiment(self._config())
        by_name = {r["name"]: r for r in report.models}
        # a random walk's best simple predictor is the previous value;
        # value-window models should land near it, far below train-mean
        assert by_name["ridge"]["mse"] < by_name["train-mean"]["mse"]
        assert by_name["linear-f"]["mse"] < by_name["train-mean"]["mse"]
        assert all(r.get("mse") is not None for r in report.models)

    def test_darnn_runs_end_to_end(self):
        config = self._config()
        config["models"] = [
            {"name": "darnn", "type": "darnn", "inputs": "TF",
             "epochs": 5, "lr": 0.005, "m": 8, "p": 8, "seed": 1, "batch_size": 16},
            {"name": "as-prev", "type": "baseline", "kind": "as-previous"},
        ]
        report = run_experiment(config)
        darnn_row = report.models[0]
        assert darnn_row["mse"] is not None
        assert darnn_row["mse"] >= 0.0

    def test_darnn_rejects_embedding_drivers(self):
        config = self._config()
        config["features"] = {
            "text": "embedding",
            "financial": "value-window",
            "window": 7,
            "embedding": {"dimension": 14, "mode": "individual-mean"},
        }
        config["models"] = [
            {"name": "darnn", "type": "darnn", "inputs": "TF", "epochs": 1, "m": 4, "p": 4}
        ]
        with pytest.raises(ExperimentError, match="text windows of 7 days") as err:
            run_experiment(config)
        assert err.value.stage == "model:darnn"


class TestReportPersistence:
    def test_report_files_written(self, tmp_path):
        config = _planted_config(NARRATIVES)
        run_experiment(config, out_dir=tmp_path / "out")
        for name in ("report.json", "report.md", "predictions.csv", "manifest.json"):
            assert (tmp_path / "out" / name).exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)

    def test_reports_byte_identical_across_runs(self, tmp_path):
        config = _planted_config(NARRATIVES)
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        for name in ("report.json", "report.md", "predictions.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_hash_is_content_addressed(self):
        a = _planted_config(NARRATIVES)
        b = _planted_config(NARRATIVES)
        assert config_hash(a) == config_hash(b)
        b["seed"] = 99
        assert config_hash(a) != config_hash(b)

    def test_predictions_csv_has_labels(self, tmp_path):
        run_experiment(_planted_config(NARRATIVES), out_dir=tmp_path)
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "date,model,prediction,label"
        assert len(lines) > 100


class TestFileBackedData:
    def test_file_sources_round_trip(self, tmp_path, write_jsonl, write_csv):
        tweets = write_jsonl(
            [
                {"id": str(i), "date": (date(2021, 1, 4 + i % 20)).isoformat(),
                 "text": f"markets gain strength day {i}", "followers": 2000}
                for i in range(40)
            ]
        )
        series = write_csv(
            [f"2021-01-{4 + i:02d},{100 + i}.0" for i in range(20)]
        )
        config = {
            "seed": 0,
            "data": {"series": {"path": str(series)}, "text": {"path": str(tweets)}},
            "task": {"kind": "direction-change", "horizon": 1},
            "features": {"text": "sentiment-window", "financial": "direction-window", "window": 7},
            "models": [{"name": "up", "type": "baseline", "kind": "up"}],
            "eval": {"train_fraction": 0.7},
        }
        report = run_experiment(config)
        # the synthetic file series always rises, so up-predictor is perfect
        assert report.models[0]["accuracy"] == 1.0

    def test_weekly_horizon_runs(self):
        config = {
            "seed": 2,
            "data": {
                "series": {"random_walk": {"n": 200, "sigma": 0.01, "v0": 100.0, "seed": 8}},
                "text": {"synthetic_narratives": {"seed": 9, "p": 1.0, "per_day": 2}},
            },
            "task": {"kind": "direction-change", "horizon": 7},
            "features": {"text": "sentiment-window", "financial": "direction-window", "window": 7},
            "models": [
                {"name": "tf", "type": "logistic", "inputs": "TF", "lam": 0.01},
                {"name": "up", "type": "baseline", "kind": "up"},
            ],
            "eval": {"train_fraction": 0.8},
        }
        report = run_experiment(config)
        assert report.task["horizon"] == 7
        # cues at t are aligned with the move into t+7, and the day-t score
        # is the newest window entry, so the signal stays recoverable
        assert next(r["accuracy"] for r in report.models if r["name"] == "tf") >= 0.9
        assert report.leakage_audit["max_feature_date_ok"] is True

    def test_embedding_features_run(self, tmp_path, write_csv):
        config = {
            "seed": 1,
            "data": {
                "series": {"random_walk": {"n": 120, "sigma": 0.01, "v0": 50.0, "seed": 5}},
                "text": {"random_texts": {"seed": 6, "per_day": 2}},
            },
            "task": {"kind": "direction-change", "horizon": 1},
            "features": {
                "text": "embedding",
                "financial": "direction-window",
                "window": 7,
                "embedding": {"dimension": 8, "seed": 2, "mode": "individual-mean"},
            },
            "models": [{"name": "tf", "type": "logistic", "inputs": "TF", "lam": 0.1}],
            "eval": {"train_fraction": 0.8},
        }
        report = run_experiment(config)
        assert 0.0 <= report.models[0]["accuracy"] <= 1.0


def _aligned_and_labels(task="next-value", n=120):
    series = synthgen.gen_random_walk(n=n, sigma=0.01, v0=100.0, seed=3)
    corpus = synthgen.gen_random_texts(synthgen.SynthConfig(seed=4, per_day=2), series.dates)
    aligned = ingest.align(corpus, series)
    aligned_series = ingest.FinancialSeries(
        name=series.name, points=tuple(zip(aligned.dates, aligned.values))
    )
    return aligned, make_labels(aligned_series, task, 1)


class TestFeatureColumns:
    def test_each_aligned_tweet_scored_once(self, monkeypatch):
        aligned, labels = _aligned_and_labels("direction-change")
        calls = []
        real_score = sentiment.score

        def counting_score(text, lexicon=None):
            calls.append(text)
            return real_score(text, lexicon)

        monkeypatch.setattr(sentiment, "score", counting_score)
        features = {"text": "sentiment-window", "financial": "direction-window", "window": 7}
        build_features(aligned, labels, features, "direction-change")
        assert len(calls) == sum(len(day) for day in aligned.tweets) > 0

    def test_windows_match_per_row_construction(self):
        aligned, labels = _aligned_and_labels()
        emb = {"dimension": 8, "seed": 2, "mode": "individual-mean"}
        features = {"text": "embedding", "financial": "value-window", "window": 7, "embedding": emb}
        matrix = build_features(aligned, labels, features, "next-value")
        embedder = HashingEmbedder(dimension=8, seed=2)
        label_dates = set(labels.dates)
        expected = [
            np.concatenate(
                [
                    daily_embedding(embedder, aligned.tweets[i], mode="individual-mean"),
                    np.array(aligned.values[i - 6:i + 1]),
                ]
            )
            for i in range(7, len(aligned))
            if aligned.dates[i] in label_dates
        ]
        assert matrix.t_steps == 1
        assert matrix.X.tobytes() == np.vstack(expected).tobytes()

    def test_sentiment_window_width_follows_window(self):
        aligned, labels = _aligned_and_labels()
        features = {"text": "sentiment-window", "financial": "value-window", "window": 3}
        matrix = build_features(aligned, labels, features, "next-value")
        column = sentiment.daily_sentiment_column(aligned)
        assert matrix.t_steps == 3
        assert matrix.X[:, matrix.t_columns].shape[1] == 3
        for row, d in enumerate(matrix.dates):
            i = aligned.index_of(d)
            assert matrix.X[row, matrix.t_columns].tolist() == column[i - 2:i + 1].tolist()
