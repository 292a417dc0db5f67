import csv
import json
from datetime import date
from pathlib import Path

import pytest

from econarrative import ingest, synthgen
from econarrative.cli import build_parser, main
from econarrative.experiment import run_experiment
from econarrative.models import AttentionRnn, model_to_doc

GOLDENS = Path(__file__).parent / "goldens"

SUBCOMMANDS = [
    "ingest", "features", "train", "predict", "evaluate",
    "baseline", "synth", "analyze", "llm-analyze", "experiment",
]


def _write_walk_csv(path, n=60):
    lines = ["date,value"]
    d = date(2021, 1, 4)
    value = 100.0
    for i in range(n):
        while d.weekday() >= 5:
            d = d.fromordinal(d.toordinal() + 1)
        value *= 1.001 if i % 3 else 0.998
        lines.append(f"{d.isoformat()},{value:.4f}")
        d = d.fromordinal(d.toordinal() + 1)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, cmd):
        assert main([cmd, "--help"]) == 0

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--kind", "walk", "--out", "x", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["ingest", "--out", "o"],
        ["features", "--series", "s", "--out", "o"],
        ["train", "--features", "f", "--out", "o"],
        ["predict", "--model", "m", "--features", "f", "--out", "o"],
        ["evaluate", "--predictions", "p"],
        ["baseline", "--kind", "up", "--series", "s", "--out", "o"],
        ["synth", "--kind", "walk", "--out", "o"],
        ["analyze", "freq", "--tweets", "t", "--term", "x", "--out", "o"],
        ["analyze", "sent-hist", "--tweets", "t", "--out", "o"],
        ["llm-analyze", "--tweets", "t", "--series", "s", "--target", "VIX",
         "--endpoint", "e", "--out", "o"],
        ["experiment", "--config", "c", "--out", "o"],
    ])
    def test_every_subcommand_takes_verbosity(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).verbose == 0
        assert parser.parse_args(argv + ["-v"]).verbose == 1
        assert parser.parse_args(argv + ["-vv"]).verbose == 2
        assert parser.parse_args(argv + ["--verbose", "--verbose"]).verbose == 2

    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = [a for a in parser._subparsers._group_actions][0]
        assert sorted(actions.choices) == sorted(SUBCOMMANDS)


class TestSynth:
    def test_walk_deterministic_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--kind", "walk", "--n", "50", "--seed", "7"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_narratives_deterministic(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        args = ["synth", "--kind", "narratives", "--p", "1.0", "--seed", "7",
                "--series", str(series)]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "tweets.jsonl").read_bytes() == (
            tmp_path / "b" / "tweets.jsonl"
        ).read_bytes()

    def test_narratives_requires_series(self, tmp_path):
        assert main(["synth", "--kind", "narratives", "--out", str(tmp_path)]) == 1


class TestPipelineCommands:
    def test_ingest_writes_summary(self, tmp_path, write_jsonl):
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "markets up", "followers": 5000}]
        )
        out = tmp_path / "out"
        assert main(["ingest", "--tweets", str(tweets), "--out", str(out)]) == 0
        summary = json.loads((out / "ingest.json").read_text())
        assert summary["tweets"]["records"] == 1
        assert (out / "run.log").exists()

    def test_ingest_without_inputs_is_usage_error(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "o")]) == 1

    def test_missing_file_is_runtime_error(self, tmp_path):
        code = main(["ingest", "--tweets", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_features_train_predict_evaluate_chain(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        feat_dir = tmp_path / "features"
        assert main(["features", "--series", str(series), "--kind", "none",
                     "--financial", "direction-window", "--out", str(feat_dir)]) == 0
        features = feat_dir / "features.csv"
        assert features.exists()

        model_dir = tmp_path / "model"
        assert main(["train", "--features", str(features), "--model", "logistic",
                     "--lam", "0.1", "--out", str(model_dir)]) == 0

        pred_dir = tmp_path / "preds"
        assert main(["predict", "--model", str(model_dir / "model.json"),
                     "--features", str(features), "--out", str(pred_dir)]) == 0

        # join predictions with labels for evaluation
        import csv

        with (pred_dir / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        with features.open() as fh:
            labels = list(csv.DictReader(fh))
        joined = tmp_path / "joined.csv"
        with joined.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "prediction", "label"])
            for r, l in zip(rows, labels):
                writer.writerow([r["date"], r["prediction"], l["label"]])
        assert main(["evaluate", "--predictions", str(joined),
                     "--task", "direction-change"]) == 0

    def test_features_with_embedding_kind(self, tmp_path, write_jsonl):
        tweets = write_jsonl(
            [
                {"id": str(i), "date": f"2021-01-{4 + i % 20:02d}",
                 "text": f"talk about topic {i}", "followers": 1500}
                for i in range(30)
            ]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=25)
        out = tmp_path / "emb"
        assert main(["features", "--tweets", str(tweets), "--series", str(series),
                     "--kind", "embedding", "--out", str(out)]) == 0
        header = (out / "features.csv").read_text().splitlines()[0]
        # 16 embedding columns (default dimension) + 7 value-window columns
        assert header.count("x") == 23

    def test_features_rejects_a_horizon_the_experiment_rejects(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        out = tmp_path / "out"
        assert main(["features", "--series", str(series), "--kind", "none", "--horizon", "3",
                     "--out", str(out)]) == 2
        assert "stage 'config': 'horizon' in section 'task' must be one of 1, 7, 30, got 3" in (
            capsys.readouterr().err)
        assert not (out / "features.csv").exists()

    def test_baseline_on_a_task_it_cannot_predict_fails_at_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        # the missing series shows the check runs before any file is read
        assert main(["baseline", "--kind", "up", "--task", "next-value",
                     "--series", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
        assert ("stage 'config': 'up' baselines only fit classification tasks, not 'next-value'"
                in capsys.readouterr().err)

    def test_baseline_command(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        out = tmp_path / "out"
        assert main(["baseline", "--kind", "up", "--series", str(series),
                     "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "up"
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_analyze_freq(self, tmp_path, write_jsonl):
        tweets = write_jsonl(
            [
                {"id": "1", "date": "2021-01-04", "text": "debt talks stall", "followers": 100},
                {"id": "2", "date": "2021-02-04", "text": "debt debt debt", "followers": 100},
            ]
        )
        out = tmp_path / "o"
        assert main(["analyze", "freq", "--tweets", str(tweets), "--term", "debt",
                     "--by", "month", "--out", str(out)]) == 0
        body = (out / "freq_debt.csv").read_text().splitlines()
        assert body[0] == "period,count"
        assert body[1:] == ["2021-01,1", "2021-02,3"]

    def test_analyze_sent_hist(self, tmp_path, write_jsonl):
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "great win", "followers": 100}]
        )
        out = tmp_path / "o"
        assert main(["analyze", "sent-hist", "--tweets", str(tweets), "--bin", "0.5",
                     "--out", str(out)]) == 0
        body = (out / "sentiment_histogram.csv").read_text().splitlines()
        assert body[0] == "bin_low,bin_high,count"
        assert sum(int(line.rsplit(",", 1)[1]) for line in body[1:]) == 1


class TestBadInput:
    """Malformed input files fail with exit code 2 and an error naming the
    file or column; the RuntimeWarnings pytest raises would change the message."""

    @pytest.mark.parametrize("content, problem", [
        ("", "has no header row"),
        ("date,x0,label\n", "has no data rows"),
    ])
    def test_features_without_rows(self, tmp_path, capsys, content, problem):
        features = tmp_path / "features.csv"
        features.write_text(content, encoding="utf-8")
        code = main(["train", "--features", str(features), "--out", str(tmp_path / "m")])
        assert code == 2
        assert f"feature file {features} {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("bad_row, problem", [
        ("2021-01-06,abc,0.5,increase", "column 'x0' is 'abc', not a number"),
        ("2021-01-06,0.1,increase", "no value for column 'label'"),
        ("", "no value for column 'date'"),
        ("2021-01-06,0.1,0.2,0.3,increase", "5 fields under 4 column headers"),
    ])
    def test_features_row_errors_name_file_line_and_column(self, tmp_path, capsys, command,
                                                           bad_row, problem):
        head = "date,x0,x1,label\n2021-01-04,0.1,0.2,increase\n2021-01-05,0.3,0.4,decrease\n"
        good, features = tmp_path / "good.csv", tmp_path / "features.csv"
        good.write_text(head, encoding="utf-8")
        features.write_text(f"{head}{bad_row}\n2021-01-07,0.5,0.6,increase\n", encoding="utf-8")
        if command == "train":
            args = ["train", "--features", str(features), "--out", str(tmp_path / "m")]
        else:
            assert main(["train", "--features", str(good), "--out", str(tmp_path / "m")]) == 0
            args = ["predict", "--model", str(tmp_path / "m" / "model.json"),
                    "--features", str(features), "--out", str(tmp_path / "p")]
        assert main(args) == 2
        assert f"feature file {features} line 4: {problem}" in capsys.readouterr().err

    def test_evaluate_names_the_line_of_a_non_numeric_value(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\n1.5,1.0\n\nx,-1.0\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions), "--task", "pct-change"]) == 2
        # the blank line is skipped, so entry 1 sits on line 4
        assert f"{predictions} line 4: prediction 1 is 'x', not a number" in capsys.readouterr().err

    def test_evaluate_names_the_line_of_a_non_direction_entry(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\nincrease,increase\nup,decrease\n1.5,Increase\n",
                               encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions),
                     "--task", "direction-change"]) == 2
        err = capsys.readouterr().err
        assert f"{predictions} line 3: prediction 1 is 'up', not 'increase' or 'decrease'" in err

    def test_evaluate_names_the_missing_column(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("date,label\n2021-01-04,increase\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions)]) == 2
        assert f"{predictions} has no 'prediction' column" in capsys.readouterr().err

    def test_evaluate_reads_regression_values_as_numbers(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\n1.5,1.0\n-2,-1.0\n", encoding="utf-8")
        out = tmp_path / "metrics"
        assert main(["evaluate", "--predictions", str(predictions), "--task", "pct-change",
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["mse"] == 0.625
        assert json.loads((out / "metrics.json").read_text())["mse"] == 0.625


def _planted_inputs(tmp_path):
    """A 300-point walk and its planted narratives (seed 3), as files."""
    series = synthgen.gen_random_walk(n=300, sigma=0.01, v0=100.0, seed=3)
    cfg = synthgen.SynthConfig(seed=3, alignment_p=1.0, per_day=3)
    ingest.write_series_csv(series, tmp_path / "series.csv")
    ingest.write_tweets_jsonl(
        synthgen.gen_synthetic_narratives(series, 1, cfg), tmp_path / "tweets.jsonl"
    )
    return tmp_path / "series.csv", tmp_path / "tweets.jsonl"


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestOneFitPath:
    """`features` -> `train` -> `predict` is the experiment's own fit."""

    @pytest.mark.parametrize("kind, task, lam", [
        ("logistic", "direction-change", None),
        ("logistic", "direction-change", 0.1),
        ("linear", "pct-change", None),
        ("linear", "pct-change", 0.5),
        ("ridge", "pct-change", None),
        ("ridge", "pct-change", 3.0),
        ("lasso", "pct-change", None),
        ("lasso", "pct-change", 0.05),
    ])
    def test_cli_predicts_the_experiments_rows(self, tmp_path, kind, task, lam):
        series, tweets = _planted_inputs(tmp_path)
        model = {"name": "m", "type": kind, "inputs": "TF"}
        lam_args = []
        if lam is not None:
            model["lam"] = lam
            lam_args = ["--lam", repr(lam)]
        report = run_experiment({
            "data": {"series": {"path": str(series)}, "text": {"path": str(tweets)}},
            "task": {"kind": task, "horizon": 1},
            "features": {"text": "sentiment-window", "financial": "value-window", "window": 7},
            "models": [model],
        }, out_dir=tmp_path / "experiment")
        expected = [[d, p] for d, _, p, _ in _csv_rows(tmp_path / "experiment" / "predictions.csv")]

        assert main(["features", "--tweets", str(tweets), "--series", str(series),
                     "--task", task, "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "features.csv").read_text("utf-8").splitlines(keepends=True)
        (tmp_path / "train.csv").write_text(header + "".join(rows[:report.n_train]), "utf-8")
        (tmp_path / "test.csv").write_text(header + "".join(rows[report.n_train:]), "utf-8")
        assert main(["train", "--features", str(tmp_path / "train.csv"), "--model", kind,
                     *lam_args, "--out", str(tmp_path / "model")]) == 0
        assert main(["predict", "--model", str(tmp_path / "model" / "model.json"),
                     "--features", str(tmp_path / "test.csv"), "--out", str(tmp_path / "cli")]) == 0

        assert len(expected) == report.n_test > 50
        assert _csv_rows(tmp_path / "cli" / "predictions.csv") == expected

    def test_default_features_fit_a_logistic_model(self, tmp_path):
        series, tweets = _planted_inputs(tmp_path)
        assert main(["features", "--tweets", str(tweets), "--series", str(series),
                     "--out", str(tmp_path)]) == 0
        assert main(["train", "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "model")]) == 0
        doc = json.loads((tmp_path / "model" / "model.json").read_text())
        assert (doc["architecture"], doc["schema"]) == ("logistic", 2)

    def test_predict_rejects_features_of_another_width(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        for window in (3, 1):
            assert main(["features", "--series", str(series), "--kind", "none", "--task",
                         "pct-change", "--window", str(window),
                         "--out", str(tmp_path / f"w{window}")]) == 0
        assert main(["train", "--features", str(tmp_path / "w3" / "features.csv"),
                     "--model", "ridge", "--out", str(tmp_path / "model")]) == 0
        code = main(["predict", "--model", str(tmp_path / "model" / "model.json"),
                     "--features", str(tmp_path / "w1" / "features.csv"),
                     "--out", str(tmp_path / "preds")])
        assert code == 2
        assert "model was fitted on 3 columns, got 1" in capsys.readouterr().err

    def test_predict_rejects_a_model_that_is_not_a_column_model(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        assert main(["features", "--series", str(series), "--kind", "none",
                     "--out", str(tmp_path)]) == 0
        doc = model_to_doc(AttentionRnn.init(T=7, n=1, m=4, p=4, seed=0))
        (tmp_path / "model.json").write_text(json.dumps(doc))
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "preds")]) == 2
        assert "not AttentionRnn" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, feature_args", [
        ("logistic", ["--financial", "direction-window"]),
        ("ridge", ["--financial", "value-window", "--task", "pct-change"]),
    ])
    def test_schema_one_model_predicts_as_before(self, tmp_path, kind, feature_args):
        # the goldens are a model.json and predictions.csv written by `train` and
        # `predict` before schema 2, on these features
        series = _write_walk_csv(tmp_path / "series.csv")
        assert main(["features", "--series", str(series), "--kind", "none", *feature_args,
                     "--out", str(tmp_path)]) == 0
        assert main(["predict", "--model", str(GOLDENS / f"schema1_{kind}_model.json"),
                     "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "preds")]) == 0
        assert (tmp_path / "preds" / "predictions.csv").read_bytes() == (
            GOLDENS / f"schema1_{kind}_predictions.csv"
        ).read_bytes()


class TestExperimentCommand:
    def _config(self, tmp_path, seed=7):
        config = {
            "seed": seed,
            "data": {
                "series": {"random_walk": {"n": 120, "sigma": 0.01, "v0": 100.0, "seed": 3}},
                "text": {"synthetic_narratives": {"seed": 5, "p": 1.0, "per_day": 2}},
            },
            "task": {"kind": "direction-change", "horizon": 1},
            "features": {"text": "sentiment-window", "financial": "direction-window", "window": 7},
            "models": [
                {"name": "tf", "type": "logistic", "inputs": "TF", "lam": 0.01},
                {"name": "up", "type": "baseline", "kind": "up"},
            ],
            "eval": {"train_fraction": 0.8},
        }
        path = tmp_path / f"exp_{seed}.json"
        path.write_text(json.dumps(config))
        return path

    def test_single_config(self, tmp_path):
        config = self._config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "run.log").exists()

    def test_parallel_configs(self, tmp_path):
        a = self._config(tmp_path, seed=1)
        b = self._config(tmp_path, seed=2)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(a), "--config", str(b),
                     "--jobs", "2", "--out", str(out)]) == 0
        assert (out / "exp_1" / "report.json").exists()
        assert (out / "exp_2" / "report.json").exists()

    def test_configs_with_one_stem_are_a_usage_error(self, tmp_path, capsys):
        args = []
        for folder in (tmp_path / "a", tmp_path / "b"):  # a/exp_7.json and b/exp_7.json
            folder.mkdir()
            args += ["--config", str(self._config(folder))]
        out = tmp_path / "out"
        assert main(["experiment", *args, "--jobs", "2", "--out", str(out)]) == 1
        assert "'exp_7'" in capsys.readouterr().err
        assert not (out / "exp_7").exists()  # rejected before any run

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        config = self._config(tmp_path)
        assert main(["experiment", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 1
        assert f"--jobs must be >= 1, not {jobs}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_config_is_runtime_error(self, tmp_path):
        code = main(["experiment", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestLlmAnalyzeCommand:
    def test_against_stub(self, tmp_path, write_jsonl, stub_server):
        stub_server.state.set_chat_content(
            "<Analysis of Tweets>worry about rates</Analysis of Tweets>\n"
            "<Potential Effects on VIX>may rise</Potential Effects on VIX>"
        )
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "rates will rise", "followers": 5000}]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=10)
        out = tmp_path / "out"
        code = main([
            "llm-analyze", "--tweets", str(tweets), "--series", str(series),
            "--target", "VIX", "--endpoint", stub_server.url,
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["tweet_analysis"] == "worry about rates"
        assert stub_server.calls == 1
