import json
import pickle
import re
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from econarrative import experiment, ingest, sentiment, synthgen
from econarrative.embed import HashingEmbedder, daily_embedding
from econarrative.experiment import (
    ExperimentError,
    build_features,
    config_hash,
    run_experiment,
    write_report,
)
from econarrative.harness import TASKS, LabelSeries, make_labels


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

    def test_one_day_lookahead_fails_the_audit(self, monkeypatch):
        # a window cut one day late reads the day after the row's date
        real_windows = experiment._windows

        def one_day_ahead(column, steps, rows):
            return real_windows(column, steps, rows + 1)

        monkeypatch.setattr(experiment, "_windows", one_day_ahead)
        report = run_experiment(_planted_config(NARRATIVES))
        assert report.leakage_audit["max_feature_date_ok"] is False


class TestStages:
    def test_missing_file_names_ingest_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        with pytest.raises(ExperimentError, match="stage 'ingest'") as err:
            run_experiment(config)
        assert err.value.stage == "ingest"

    def test_error_survives_pickling(self, tmp_path):
        # a process pool hands a worker's exception back pickled
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        with pytest.raises(ExperimentError) as err:
            run_experiment(config)
        for error in (ExperimentError("ingest", ValueError("x")), err.value):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is ExperimentError and str(copy) == str(error)
            assert copy.stage == error.stage == "ingest"
            assert type(copy.cause) is type(error.cause) and copy.cause.args == error.cause.args

    def test_malformed_tweet_line_names_ingest_stage(self, tmp_path):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text('{"id": "1", "date": "2021-01-04", "text": "up", "followers": null}\n')
        config = _planted_config({"path": str(tweets)})
        with pytest.raises(ExperimentError, match="stage 'ingest': line 1: field 'followers'") as err:
            run_experiment(config)
        assert err.value.stage == "ingest"

    def test_bad_series_date_names_ingest_stage(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("date,value\n2015-01-05,1.0\n2015-13-06,2.0\n", encoding="utf-8")
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(series)}
        with pytest.raises(ExperimentError, match="stage 'ingest': line 3: bad date '2015-13-06'") as err:
            run_experiment(config)
        assert err.value.stage == "ingest"

    def test_one_class_training_labels_name_both_classes(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("date,value\n" + "".join(
            f"{day.isoformat()},{10.0 + i}\n"
            for i, day in enumerate(date(2015, 1, 5) + timedelta(days=k) for k in range(40))
        ), encoding="utf-8")
        config = {"data": {"series": {"path": str(series)}}, "features": {"window": 3},
                  "models": [{"type": "logistic", "inputs": "F"}]}
        with pytest.raises(ExperimentError, match=re.escape(
            "labels must contain both classes: every label is 'increase', none is 'decrease'"
        )) as err:
            run_experiment(config)
        assert err.value.stage == "model:logistic-F"

    def test_pct_change_beyond_float_range_fails_at_features_stage(self, tmp_path):
        values = [1.0] * 20 + [1e-300, 1e10] + [1.0] * 22
        days = [date(2015, 1, 5) + timedelta(days=k) for k in range(len(values))]
        series = tmp_path / "series.csv"
        ingest.write_series_csv(ingest.FinancialSeries("IDX", tuple(days), tuple(values)), series)
        config = {"data": {"series": {"path": str(series)}},
                  "task": {"kind": "pct-change"}, "features": {"window": 3},
                  "models": [{"name": "r", "type": "ridge"},
                             {"type": "baseline", "kind": "train-mean"}]}
        with pytest.raises(ExperimentError, match=re.escape(
            f"stage 'features': percentage change beyond float range from {days[20]}"
        )) as err:
            run_experiment(config)
        assert err.value.stage == "features"

    def test_unpenalised_logistic_fails_at_its_model_stage(self):
        config = _planted_config(NARRATIVES)
        config["models"] = [{"name": "f-plain", "type": "logistic", "inputs": "F", "lam": 0.0}]
        with pytest.raises(ExperimentError, match=re.escape("lam must be finite and > 0, got 0.0")) as err:
            run_experiment(config)
        assert err.value.stage == "model:f-plain"

    def test_bad_model_type_names_config_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        # the missing file shows the check runs before any ingest
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = [{"name": "zzz", "type": "mystery"}]
        with pytest.raises(ExperimentError, match="unknown model type 'mystery'") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_classification_model_on_regression_task(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["task"] = {"kind": "next-value", "horizon": 1}
        with pytest.raises(ExperimentError, match="classification") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_duplicate_model_names_rejected_in_config_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        # the missing file shows the check runs before any ingest
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = [
            {"type": "logistic", "inputs": "TF", "lam": 0.01},
            {"type": "logistic", "inputs": "TF", "lam": 1.0},
        ]
        with pytest.raises(ExperimentError, match="duplicate model name 'logistic-TF'") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("", "modles"),
            ("task", "horizn"),
            ("eval", "train_fracton"),
            ("features", "windw"),  # ran silently with the default 7-day window
            ("features.embedding", "dim"),
            ("data", "txt"),
            ("data.series", "colum"),
            ("data.text", "min_folowers"),
            ("data.text.synthetic_narratives", "per_dy"),
        ],
    )
    def test_unknown_key_rejected_in_config_stage(self, tmp_path, section, key):
        config = json.loads(json.dumps(_planted_config(NARRATIVES)))  # NARRATIVES stays as it is
        # the missing file shows the check runs before any ingest
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        node = config
        for part in filter(None, section.split(".")):
            node = node.setdefault(part, {})
        node[key] = 3
        where = f"section '{section}'" if section else "the top level"
        with pytest.raises(ExperimentError, match=f"unknown config key '{key}' in {where}") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize(
        "data, section, key",
        [
            ({"text": {"path": "t.jsonl", "min_folowers": 10}}, "data.text", "min_folowers"),
            ({"text": {"path": "t.jsonl", "random_texts": {}}}, "data.text", "random_texts"),
            ({"text": {"pth": "t.jsonl"}}, "data.text", "pth"),
            ({"text": {"random_texts": {"per_dy": 2}}}, "data.text.random_texts", "per_dy"),
            ({"text": {"shuffled_narratives": {"shufle_seed": 1}}}, "data.text.shuffled_narratives",
             "shufle_seed"),
            ({"series": {"random_walk": {"n": 50, "sigm": 0.5}}}, "data.series.random_walk", "sigm"),
            # a walk's name is read inside `random_walk`
            ({"series": {"random_walk": {"n": 50}, "name": "X"}}, "data.series", "name"),
        ],
    )
    def test_unknown_data_key_rejected_in_config_stage(self, data, section, key):
        config = _planted_config(NARRATIVES)
        config["data"].update(data)
        with pytest.raises(ExperimentError, match=f"unknown config key '{key}' in section '{section}'") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"name": "m", "type": "logistic", "inputs": "TF", "lamda": 0.1}, "lamda"),
            ({"name": "m", "type": "logistic", "epochs": 3}, "epochs"),
            ({"name": "m", "type": "baseline", "kind": "up", "inputs": "F"}, "inputs"),
            ({"name": "m", "type": "baseline", "kind": "up", "lam": 1.0}, "lam"),
            ({"name": "m", "type": "linear", "lam": 5.0}, "lam"),  # no penalty to weigh
        ],
    )
    def test_unknown_model_key_rejected_in_config_stage(self, tmp_path, model, key):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = [model]
        with pytest.raises(ExperimentError, match=f"unknown config key '{key}' in model 'm'") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_section_that_is_not_an_object_rejected(self):
        config = _planted_config(NARRATIVES)
        config["features"] = 7
        with pytest.raises(ExperimentError, match="config section 'features' must be an object"):
            run_experiment(config)

    def test_baseline_without_kind_rejected_in_config_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = [{"type": "baseline"}]
        with pytest.raises(ExperimentError, match="missing the 'kind' key") as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("models, message", [
        (["up"], "models[0] must be an object, got str"),
        ([{"name": "up", "type": "baseline", "kind": "up"}, 7], "models[1] must be an object, got int"),
        ("up", "'models' must be a list, got str"),
    ])
    def test_model_entry_that_is_not_an_object_rejected(self, tmp_path, models, message):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = models
        with pytest.raises(ExperimentError, match=re.escape(message)) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("section, key", [
        ("data.series.random_walk", "n"),
        ("data.series.random_walk", "sigma"),
        ("data.series.random_walk", "v0"),
        ("data.series.random_walk", "seed"),
        ("data.text.shuffled_narratives", "per_day"),
        ("data.text.shuffled_narratives", "p"),
        ("data.text.shuffled_narratives", "shuffle_seed"),
        ("features", "window"),
        ("eval", "train_fraction"),
        ("task", "horizon"),
        ("features.embedding", "dimension"),
        ("features.embedding", "k"),
    ])
    @pytest.mark.parametrize("value", ["60", True, None, [1]])
    def test_non_numeric_value_names_key_and_section(self, section, key, value):
        config = json.loads(json.dumps(_planted_config(SHUFFLED)))  # SHUFFLED stays as it is
        node = config
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        got = type(value).__name__
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{key}' in section '{section}' must be a number, got {got}")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("section, key", [
        ("", "seed"),
        ("data.series.random_walk", "n"),
        ("data.series.random_walk", "seed"),
        ("data.text", "min_followers"),
        ("data.text.shuffled_narratives", "seed"),
        ("data.text.shuffled_narratives", "per_day"),
        ("data.text.shuffled_narratives", "shuffle_seed"),
        ("task", "horizon"),  # 1.0 and "1" both ran as horizon 1
        ("features", "window"),  # 3.9 ran as a 3-day window
        ("features.embedding", "dimension"),
        ("features.embedding", "k"),
        ("features.embedding", "seed"),
    ])
    @pytest.mark.parametrize("value", [3.9, 1.0])
    def test_non_integer_count_names_key_and_section(self, section, key, value):
        config = json.loads(json.dumps(_planted_config(SHUFFLED)))  # SHUFFLED stays as it is
        if section == "data.text":
            config["data"]["text"] = {"path": "missing.jsonl"}
        node = config
        for part in filter(None, section.split(".")):
            node = node.setdefault(part, {})
        node[key] = value
        where = f"section '{section}'" if section else "the top level"
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{key}' in {where} must be an integer, got {value!r}")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_non_numeric_follower_floor_rejected(self, tmp_path):
        config = _planted_config({"path": str(tmp_path / "missing.jsonl"), "min_followers": "1000"})
        with pytest.raises(ExperimentError, match=re.escape(
                "'min_followers' in section 'data.text' must be a number, got str")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("model", [
        {"name": "m", "type": "logistic", "lam": "0.1"},
        {"name": "m", "type": "ridge", "lam": False},
        *({"name": "m", "type": "darnn", key: "8"} for key in ("m", "p", "epochs", "lr", "batch_size", "seed")),
        # a count that is a number but not an integer
        *({"name": "m", "type": "darnn", key: 8.0} for key in ("m", "p", "epochs", "batch_size", "seed")),
    ])
    def test_non_numeric_model_value_names_key_and_model(self, tmp_path, model):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        if model["type"] != "logistic":
            config["task"] = {"kind": "next-value", "horizon": 1}
        config["models"] = [model]
        key = next(k for k in model if k not in ("name", "type"))
        value = model[key]
        expected = (f"an integer, got {value!r}" if isinstance(value, float)
                    else f"a number, got {type(value).__name__}")
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{key}' in model 'm' must be {expected}")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("section, key", [
        ("data.series.random_walk", "sigma"),
        ("data.series.random_walk", "n"),
        ("data", "series"),
        ("", "data"),
    ])
    def test_missing_required_key_named_in_config_stage(self, section, key):
        config = json.loads(json.dumps(_planted_config(NARRATIVES)))
        node = config
        for part in filter(None, section.split(".")):
            node = node[part]
        del node[key]
        where = f"section '{section}'" if section else "the top level"
        with pytest.raises(ExperimentError, match=re.escape(f"{where} is missing the '{key}' key")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_unsupported_horizon_rejected_in_config_stage(self):
        config = _planted_config(NARRATIVES)
        config["task"]["horizon"] = 3
        with pytest.raises(ExperimentError, match="stage 'config'"):
            run_experiment(config)

    def test_unknown_task_kind_rejected_in_config_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["task"]["kind"] = "anomaly"
        with pytest.raises(ExperimentError, match=re.escape(
                "'kind' in section 'task' must be one of 'next-value', 'pct-change', "
                "'direction-change', got 'anomaly'")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("kind, task, fits", [
        *((kind, task, "classification")
          for kind in ("inverse-previous", "week-majority", "train-majority", "up", "down")
          for task in ("next-value", "pct-change")),  # "up" failed at its model stage
        ("train-mean", "direction-change", "regression"),  # failed missing 'train_mean'
    ])
    def test_baseline_on_a_task_it_cannot_predict_rejected_in_config_stage(
            self, tmp_path, kind, task, fits):
        config = _planted_config(NARRATIVES)
        # the missing file shows the check runs before any ingest
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["task"] = {"kind": task, "horizon": 1}
        config["models"] = [{"type": "baseline", "kind": kind}]
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{kind}' baselines only fit {fits} tasks, not '{task}'")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    def test_unknown_baseline_kind_rejected_in_config_stage(self, tmp_path):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        config["models"] = [{"name": "b", "type": "baseline", "kind": "sideways"}]
        with pytest.raises(ExperimentError, match=re.escape(
                "'kind' in model 'b' must be one of 'as-previous', ")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("path, value, key, where", [
        ("data.series", {"path": 5}, "path", "section 'data.series'"),
        ("data.series", {"path": "s.csv", "column": 5}, "column", "section 'data.series'"),
        ("data.series", {"path": "s.csv", "name": 5}, "name", "section 'data.series'"),
        ("data.series", {"random_walk": {"n": 50, "sigma": 0.1, "name": 5}}, "name",
         "section 'data.series.random_walk'"),
        ("data.text", {"path": 5}, "path", "section 'data.text'"),
        ("task.target", 5, "target", "section 'task'"),
        ("models", [{"name": 5, "type": "logistic"}], "name", "model 5"),  # ran as a model named 5
    ], ids=["series-path", "column", "series-name", "walk-name", "text-path", "target",
            "model-name"])
    def test_non_string_value_names_key_and_section(self, path, value, key, where):
        config = _planted_config(NARRATIVES)
        *parents, last = path.split(".")
        node = config
        for part in parents:
            node = node[part]
        node[last] = value
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{key}' in {where} must be a string, got int")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("section, key, value", [
        ("features", "text", "sentiment"),  # failed at stage 'features'
        ("features", "financial", "values"),
        ("features.embedding", "mode", "mean"),
        ("task", "kind", "direction"),
        ("features", "text", 5),
    ])
    def test_unknown_choice_names_key_and_section(self, tmp_path, section, key, value):
        config = json.loads(json.dumps(_planted_config(NARRATIVES)))
        # the missing file shows the check runs before any ingest
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        node = config
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        expected = "must be one of " if isinstance(value, str) else "must be a string, got int"
        with pytest.raises(ExperimentError, match=re.escape(
                f"'{key}' in section '{section}' {expected}")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("model, options", [
        ({"name": "m", "type": "logistic", "inputs": "FT"}, "'TF', 'T', 'F'"),  # failed at model:m
        ({"name": "m", "type": "ridge", "inputs": "tf"}, "'TF', 'T', 'F'"),
        ({"name": "m", "type": "darnn", "inputs": "F"}, "'TF'"),
    ])
    def test_unknown_model_inputs_rejected_in_config_stage(self, tmp_path, model, options):
        config = _planted_config(NARRATIVES)
        config["data"]["series"] = {"path": str(tmp_path / "missing.csv")}
        if model["type"] != "logistic":
            config["task"] = {"kind": "next-value", "horizon": 1}
        config["models"] = [model]
        with pytest.raises(ExperimentError, match=re.escape(
                f"'inputs' in model 'm' must be one of {options}, got '{model['inputs']}'")) as err:
            run_experiment(config)
        assert err.value.stage == "config"

    @pytest.mark.parametrize("data, section", [
        ({"series": {}}, "data.series"),  # failed at stage 'ingest'
        ({"text": {}}, "data.text"),
    ])
    def test_data_spec_without_a_source_rejected_in_config_stage(self, data, section):
        config = _planted_config(NARRATIVES)
        config["data"].update(data)
        with pytest.raises(ExperimentError, match=re.escape(
                f"section '{section}' is missing the 'path' key")) as err:
            run_experiment(config)
        assert err.value.stage == "config"


def _schema_entries():
    """(where, key, type, default) for every key of SCHEMA and MODELS."""
    for section, table in experiment.SCHEMA.items():
        is_spec = isinstance(next(iter(table.values())), dict)
        for keys in table.values() if is_spec else [table]:
            for key, (kind, default) in keys.items():
                yield section, key, kind, default, keys
    for kind, (_, _, keys) in experiment.MODELS.items():
        for key, (type_, default) in {**experiment.MODEL_KEYS, **keys}.items():
            yield f"model:{kind}", key, type_, default, keys


class TestConfigSchema:
    @pytest.mark.parametrize("section, key, kind, default, keys", [
        pytest.param(*entry, id=f"{entry[0]}.{entry[1]}") for entry in _schema_entries()
        if entry[3] is not experiment.REQUIRED
    ])
    def test_every_default_passes_its_own_check(self, section, key, kind, default, keys):
        if callable(default):  # derived from the keys above it, at their defaults
            default = default({k: d for k, (_, d) in keys.items() if not callable(d)})
        path = f"{section}.{key}".lstrip(".")
        value = experiment._value(key, default, kind, default, "the table", path)
        if kind is dict and default is not None:
            assert value == experiment._section(value, path)
        else:
            assert value == default

    @pytest.mark.parametrize("config", [
        _planted_config(NARRATIVES),
        _planted_config(SHUFFLED),
        _planted_config({"path": "tweets.jsonl"}),
        {"data": {"series": {"path": "s.csv"}}, "models": [{"type": "darnn"}],
         "task": {"kind": "next-value"}, "features": {"text": "embedding"}},
    ], ids=["narratives", "shuffled", "files", "defaults"])
    def test_resolving_a_resolved_config_changes_nothing(self, config):
        raw = json.dumps(config, sort_keys=True)
        resolved = experiment.resolve_config(config)
        assert experiment.resolve_config(resolved) == resolved
        assert json.dumps(config, sort_keys=True) == raw  # the raw config is left as it was

    def test_defaults_fill_every_absent_key(self):
        resolved = experiment.resolve_config(
            {"data": {"series": {"random_walk": {"n": 50, "sigma": 0.1}},
                      "text": {"shuffled_narratives": {"seed": 4}}},
             "task": {"kind": "pct-change"},
             "models": [{"type": "lasso"}, {"type": "baseline", "kind": "as-previous"}]})
        assert resolved["data"]["series"]["random_walk"] == {
            "n": 50, "sigma": 0.1, "v0": 100.0, "seed": 0, "name": "SYNTH"}
        assert resolved["data"]["text"]["shuffled_narratives"] == {
            "seed": 4, "p": 1.0, "per_day": 3, "shuffle_seed": 5}
        assert resolved["task"] == {"target": None, "kind": "pct-change", "horizon": 1}
        assert resolved["features"]["embedding"]["dimension"] == 16
        assert resolved["eval"] == {"train_fraction": 0.8}
        assert resolved["models"] == [
            {"type": "lasso", "name": "lasso-TF", "inputs": "TF", "lam": 1.0},
            {"type": "baseline", "name": "as-previous", "kind": "as-previous"},
        ]


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
                {"name": "linear-f", "type": "linear", "inputs": "F"},
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

    @pytest.mark.parametrize("scaled", [("out_v",), ("out_W", "out_v")])
    def test_darnn_with_unscorable_predictions_fails_naming_the_model(self, monkeypatch, scaled):
        # finite weights whose predictions square to inf (out_v alone) or
        # whose forward pass overflows (out_W and out_v)
        real_train = experiment.train_darnn

        def blown(*args, **kwargs):
            trained = real_train(*args, **kwargs)
            for key in scaled:
                trained.params[key] = trained.params[key] * 1e300
            assert all(np.isfinite(v).all() for v in trained.params.values())
            return trained

        monkeypatch.setattr(experiment, "train_darnn", blown)
        config = self._config()
        config["models"] = [
            {"name": "rnn", "type": "darnn", "inputs": "TF", "epochs": 1, "m": 4, "p": 4},
        ]
        with pytest.raises(ExperimentError, match="model 'rnn' diverged: a prediction or its square"
                           " is not finite") as err:
            run_experiment(config)
        assert err.value.stage == "model:rnn"

    @pytest.mark.parametrize("key, value, message", [
        ("lr", -1.0, "learning_rate must be >= 0, got -1.0"),  # trained by gradient ascent
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ])
    def test_darnn_setting_out_of_range_fails_naming_it(self, key, value, message):
        config = self._config()
        config["models"] = [{"name": "rnn", "type": "darnn", "epochs": 1, "m": 4, "p": 4, key: value}]
        with pytest.raises(ExperimentError, match=re.escape(message)) as err:
            run_experiment(config)
        assert err.value.stage == "model:rnn"

    def test_penalty_that_is_not_finite_fails_naming_the_model(self):
        config = self._config()
        config["models"] = json.loads('[{"name": "ridge", "type": "ridge", "lam": NaN}]')  # JSON reads NaN
        with pytest.raises(ExperimentError, match="lam must be finite and >= 0, got nan") as err:
            run_experiment(config)
        assert err.value.stage == "model:ridge"

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


class TestBaselineModels:
    def test_one_call_per_baseline_model(self, monkeypatch):
        calls = []
        real = experiment.financial_baseline

        def counted(kind, *args):
            calls.append(kind)
            return real(kind, *args)

        monkeypatch.setattr(experiment, "financial_baseline", counted)
        report = run_experiment(_planted_config(NARRATIVES))
        assert calls == ["up", "week-majority"]
        assert len(report.predictions["week-majority"]) == report.n_test

    @pytest.mark.parametrize("horizon", [1, 7, 30])
    def test_predictions_read_each_test_day_by_date(self, horizon):
        def run(task, kinds):
            config = {"data": {"series": {"random_walk": {"n": 120, "sigma": 0.01, "seed": 2}}},
                      "task": {"kind": task, "horizon": horizon},
                      "models": [{"type": "baseline", "kind": kind} for kind in kinds]}
            return run_experiment(config).predictions

        series = synthgen.gen_random_walk(n=120, sigma=0.01, v0=100.0, seed=2)
        values = series.values
        ends = {d.isoformat(): i for i, d in enumerate(series.dates)}

        def moves(i):  # the 7 moves ending at day i; a flat move is a decrease
            return ["increase" if values[j] > values[j - 1] else "decrease"
                    for j in range(i - 6, i + 1)]

        regression = run("next-value", ["as-previous"])
        assert [p for d, p, _ in regression["as-previous"]] == [
            values[ends[d]] for d, _, _ in regression["as-previous"]]
        classification = run("direction-change", ["as-previous", "week-majority"])
        assert [p for d, p, _ in classification["as-previous"]] == [
            moves(ends[d])[-1] for d, _, _ in classification["as-previous"]]
        assert [p for d, p, _ in classification["week-majority"]] == [
            "increase" if moves(ends[d]).count("increase") >= 4 else "decrease"
            for d, _, _ in classification["week-majority"]]


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
    return aligned, make_labels(aligned, task, 1)


class TestFeatureColumns:
    def test_each_distinct_aligned_text_scored_once(self, monkeypatch):
        # planted cue sentences come from two pools of six, so texts repeat
        series = synthgen.gen_random_walk(n=120, sigma=0.01, v0=100.0, seed=3)
        corpus = synthgen.gen_synthetic_narratives(series, 1, synthgen.SynthConfig(seed=4))
        aligned = ingest.align(corpus, series)
        labels = make_labels(aligned, "direction-change", 1)
        calls = []
        real_score = sentiment.score

        def counting_score(text):
            calls.append(text)
            return real_score(text)

        monkeypatch.setattr(sentiment, "score", counting_score)
        features = {"text": "sentiment-window", "financial": "direction-window", "window": 7}
        build_features(aligned, labels, features)
        assert len(calls) == len(set(aligned.corpus.texts)) < len(aligned.corpus)

    def test_windows_match_per_row_construction(self):
        aligned, labels = _aligned_and_labels()
        emb = {"dimension": 8, "seed": 2, "mode": "individual-mean"}
        features = {"text": "embedding", "financial": "value-window", "window": 7, "embedding": emb}
        matrix = build_features(aligned, labels, features)
        embedder = HashingEmbedder(dimension=8, seed=2)
        label_dates = set(labels.dates)
        expected = [
            np.concatenate(
                [
                    daily_embedding(embedder, aligned.per_day("texts")[i], mode="individual-mean"),
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
        matrix = build_features(aligned, labels, features)
        column = sentiment.daily_sentiment_column(aligned)
        assert matrix.t_steps == 3
        assert matrix.X[:, matrix.t_columns].shape[1] == 3
        for row, d in enumerate(matrix.dates):
            i = aligned.index_of(d)
            assert matrix.X[row, matrix.t_columns].tolist() == column[i - 2:i + 1].tolist()


def _rows_by_date(aligned, labels, window):
    """build_features' row dates and labels as they were looked up before
    positions: each day from max(window, 7) on that has a label, by its date."""
    label_by_date = dict(zip(labels.dates, labels.values))
    dates = [d for d in aligned.dates[max(window, 7):] if d in label_by_date]
    return tuple(dates), tuple(label_by_date[d] for d in dates)


class TestRowsByPosition:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 12), st.sampled_from([1, 7, 30]), st.sampled_from(TASKS))
    def test_rows_and_labels_equal_the_date_lookup(self, extra, window, horizon, task):
        series = synthgen.gen_random_walk(n=horizon + extra, sigma=0.01, v0=100.0, seed=extra)
        aligned = ingest.align(ingest.TweetCorpus(), series)
        labels = make_labels(aligned, task, horizon)
        dates, values = _rows_by_date(aligned, labels, window)
        features = {"text": "none", "financial": "value-window", "window": window}
        if len(dates) < 2:
            with pytest.raises(ValueError, match="not enough usable dates"):
                build_features(aligned, labels, features)
            return
        matrix = build_features(aligned, labels, features)
        assert matrix.dates == dates
        assert matrix.labels == values
        ends = [aligned.dates.index(d) + 1 for d in dates]
        assert matrix.X.tolist() == [list(aligned.values[end - window:end]) for end in ends]

    @pytest.mark.parametrize("dropped", [0, 40], ids=["first-day", "middle-day"])
    def test_labels_that_skip_an_aligned_day_rejected_at_features_stage(self, monkeypatch, dropped):
        def gapped_labels(series, task, horizon):
            labels = make_labels(series, task, horizon)
            keep = [i for i in range(len(labels.dates)) if i != dropped]
            return LabelSeries(tuple(labels.dates[i] for i in keep),
                               tuple(labels.values[i] for i in keep))

        monkeypatch.setattr(experiment, "make_labels", gapped_labels)
        with pytest.raises(ExperimentError, match="labels must cover the aligned days") as err:
            experiment.prepare(_planted_config(NARRATIVES))
        assert err.value.stage == "features"
