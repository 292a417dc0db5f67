import csv
import json
import shlex
from datetime import date
from pathlib import Path

import pytest

from econarrative import ingest, synthgen
from econarrative.cli import build_parser, main
from econarrative.experiment import run_experiment
from econarrative.models import AttentionRnn, model_to_doc
from test_report_goldens import REGRESSION_REL_TOL

GOLDENS = Path(__file__).parent / "goldens"
README = Path(__file__).parent.parent / "README.md"

SUBCOMMANDS = [
    "ingest", "features", "train", "predict", "evaluate",
    "analyze", "llm-analyze", "experiment",
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


def _series_config(path, series, **sections):
    """An experiment config file at `path` over the series file `series`, with
    no text unless `sections` give the `data` section's other keys."""
    data = {"series": {"path": str(series)}, **sections.pop("data", {})}
    path.write_text(json.dumps({"data": data, **sections}), encoding="utf-8")
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
        assert main(["ingest", "--config", "c", "--out", "x", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["features", "--out", "o"],  # --config is required
        ["features", "--config", "c", "--series", "s", "--out", "o"],
        ["features", "--config", "c", "--kind", "none", "--out", "o"],
        ["baseline", "--kind", "up", "--series", "s", "--out", "o"],
        ["synth", "--kind", "walk", "--out", "o"],
        ["ingest", "--out", "o"],  # --config is required
        ["ingest", "--tweets", "t", "--out", "o"],
        ["ingest", "--config", "c", "--series", "s", "--out", "o"],
        ["llm-analyze", "--tweets", "t", "--series", "s", "--target", "VIX",
         "--endpoint", "e", "--out", "o"],
        ["llm-analyze", "--config", "c", "--target", "VIX", "--endpoint", "e", "--out", "o"],
    ])
    def test_removed_and_missing_options_are_usage_errors(self, argv):
        assert main(argv) == 1

    @pytest.mark.parametrize("argv", [
        ["ingest", "--config", "c", "--out", "o"],
        ["features", "--config", "c", "--out", "o"],
        ["train", "--features", "f", "--out", "o"],
        ["predict", "--model", "m", "--features", "f", "--out", "o"],
        ["evaluate", "--predictions", "p"],
        ["analyze", "freq", "--tweets", "t", "--term", "x", "--out", "o"],
        ["analyze", "sent-hist", "--tweets", "t", "--out", "o"],
        ["llm-analyze", "--config", "c", "--endpoint", "e", "--out", "o"],
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


def _readme_commands():
    """Each `econarrative` command line of README's "Command line" block,
    with its continuation lines joined."""
    section = README.read_text("utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("econarrative ")]


class TestReadme:
    @pytest.mark.parametrize("line", _readme_commands())
    def test_command_line_parses(self, line):
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")

    def test_every_subcommand_is_shown(self):
        assert {shlex.split(line)[1] for line in _readme_commands()} == set(SUBCOMMANDS)


class TestIngestCommand:
    """`ingest --config` writes the data of a config as the run loads it."""

    def _ingest(self, tmp_path, data, out):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"data": data}), encoding="utf-8")
        return main(["ingest", "--config", str(config), "--out", str(tmp_path / out)])

    def test_walk_deterministic_across_runs(self, tmp_path):
        data = {"series": {"random_walk": {"n": 50, "sigma": 0.01, "seed": 7}}}
        assert self._ingest(tmp_path, data, "a") == 0
        assert self._ingest(tmp_path, data, "b") == 0
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()
        assert not (tmp_path / "a" / "tweets.jsonl").exists()  # the config states no text
        summary = json.loads((tmp_path / "a" / "ingest.json").read_text())
        assert summary == {"series": {"name": "SYNTH", "points": 50, "skipped_rows": 0}}

    def test_narratives_deterministic(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        data = {"series": {"path": str(series)},
                "text": {"synthetic_narratives": {"p": 1.0, "seed": 7}}}
        assert self._ingest(tmp_path, data, "a") == 0
        assert self._ingest(tmp_path, data, "b") == 0
        assert (tmp_path / "a" / "tweets.jsonl").read_bytes() == (
            tmp_path / "b" / "tweets.jsonl"
        ).read_bytes()

    def test_narratives_require_a_series(self, tmp_path, capsys):
        assert self._ingest(tmp_path, {"text": {"synthetic_narratives": {}}}, "o") == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'exp.json'}: stage 'config': section 'data' is missing" in err

    def test_writes_summary(self, tmp_path, write_jsonl):
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "markets up", "followers": 5000},
             {"id": "2", "date": "2021-01-05", "text": "markets up", "followers": 10}]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=10)
        data = {"series": {"path": str(series), "name": "IDX"},
                "text": {"path": str(tweets), "min_followers": 100}}
        assert self._ingest(tmp_path, data, "out") == 0
        out = tmp_path / "out"
        summary = json.loads((out / "ingest.json").read_text())
        assert summary == {
            "series": {"name": "IDX", "points": 10, "skipped_rows": 0},
            "tweets": {"records": 1, "date_range": ["2021-01-04", "2021-01-04"]},
        }
        assert (out / "tweets.jsonl").read_text().count("\n") == 1
        assert (out / "run.log").exists()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv", n=10)
        missing = tmp_path / "nope.jsonl"
        data = {"series": {"path": str(series)}, "text": {"path": str(missing)}}
        assert self._ingest(tmp_path, data, "o") == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'exp.json'}: stage 'ingest': tweet file not found: {missing}" in err
        assert not (tmp_path / "o" / "ingest.json").exists()


class TestPipelineCommands:
    def test_features_train_predict_evaluate_chain(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        feat_dir = tmp_path / "features"
        config = _series_config(tmp_path / "exp.json", series,
                                features={"financial": "direction-window"})
        assert main(["features", "--config", str(config), "--out", str(feat_dir)]) == 0
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

    @pytest.mark.parametrize("embedding, width", [
        ({}, 16),  # the default dimension
        ({"dimension": 8, "mode": "individual-concat", "k": 3}, 24),  # k * dimension
    ])
    def test_features_with_embedding_kind(self, tmp_path, write_jsonl, embedding, width):
        tweets = write_jsonl(
            [
                {"id": str(i), "date": f"2021-01-{4 + i % 20:02d}",
                 "text": f"talk about topic {i}", "followers": 1500}
                for i in range(30)
            ]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=25)
        config = _series_config(tmp_path / "exp.json", series, data={"text": {"path": str(tweets)}},
                                features={"text": "embedding", "embedding": embedding})
        out = tmp_path / "emb"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 0
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        # the embedding columns + 7 value-window columns
        assert header == ["date"] + [f"x{i}" for i in range(width + 7)] + ["label"]

    @pytest.mark.parametrize("content, problem", [
        ('{"data": }', "Expecting value: line 1 column 10 (char 9)"),
        (None, "stage 'config': unknown config key 'windw' in section 'features'"),
    ])
    def test_features_config_errors_name_the_file(self, tmp_path, capsys, content, problem):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series, features={"windw": 3})
        if content is not None:
            config.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {config}: {problem}" in capsys.readouterr().err
        assert not (out / "features.csv").exists()

    def test_features_rejects_a_horizon_the_experiment_rejects(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series, task={"horizon": 3})
        out = tmp_path / "out"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 2
        assert (f"{config}: stage 'config': 'horizon' in section 'task' must be one of 1, 7, 30, "
                "got 3") in capsys.readouterr().err
        assert not (out / "features.csv").exists()

    def test_baseline_on_a_task_it_cannot_predict_fails_at_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        # the missing series shows the check runs before any file is read
        config = _series_config(tmp_path / "exp.json", tmp_path / "missing.csv",
                                task={"kind": "next-value"},
                                models=[{"type": "baseline", "kind": "up"}])
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        assert ("stage 'config': 'up' baselines only fit classification tasks, not 'next-value'"
                in capsys.readouterr().err)

    def test_baseline_experiment(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series,
                                models=[{"type": "baseline", "kind": "up"}])
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        [payload] = json.loads((out / "report.json").read_text())["models"]
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

    def test_analyze_freq_refuses_a_term_of_two_tokens(self, tmp_path, capsys, write_jsonl):
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "markets rally", "followers": 100}]
        )
        out = tmp_path / "o"
        assert main(["analyze", "freq", "--tweets", str(tweets), "--term", "markets rally",
                     "--out", str(out)]) == 2
        assert "error: term 'markets rally' is not one token" in capsys.readouterr().err
        assert not list(out.glob("freq_*"))

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

    @pytest.mark.parametrize("width", ["inf", "nan", "0"])
    def test_analyze_sent_hist_refuses_a_bin_width_that_is_not_positive_and_finite(
            self, tmp_path, capsys, write_jsonl, width):
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "great win", "followers": 100}]
        )
        out = tmp_path / "o"
        assert main(["analyze", "sent-hist", "--tweets", str(tweets), "--bin", width,
                     "--out", str(out)]) == 2
        assert (f"error: bin_width must be positive and finite, not {float(width)!r}"
                in capsys.readouterr().err)
        assert not (out / "sentiment_histogram.csv").exists()


def _without_bias(doc):
    del doc["parameters"]["bias"]
    return json.dumps(doc)


def _mean_of_three(doc):
    doc["transform"]["mean"]["shape"] = [3]  # its bytes hold two values
    return json.dumps(doc)


def _mean_as_a_column(doc):
    # (2, 1) broadcasts against two feature rows, so it would predict silently wrong numbers
    doc["transform"]["mean"]["shape"] = [2, 1]
    return json.dumps(doc)


def _weights_not_base64(doc):
    # b64decode without validation drops the "!!" and reads the weights as before
    doc["parameters"]["weights"]["data"] = "!!" + doc["parameters"]["weights"]["data"]
    return json.dumps(doc)


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
        ("2021-01-06,nan,0.5,increase", "column 'x0' is 'nan', not a finite number"),
        ("2021-01-06,0.1,-inf,increase", "column 'x1' is '-inf', not a finite number"),
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

    @pytest.mark.parametrize("spoil, problem", [
        (lambda doc: "{\n", "Expecting property name enclosed in double quotes: line 2 column 1"),
        (_without_bias, "missing key 'bias'"),
        (_mean_of_three, "cannot reshape array of size 2 into shape (3,)"),
        (lambda doc: "[]", "the top level must be an object"),
        (_weights_not_base64, "tensor 'weights': data is not base64"),
        (_mean_as_a_column, "transform 'mean' has shape (2, 1), neither () nor the weights' (2,)"),
    ])
    def test_predict_errors_name_the_model_file(self, tmp_path, capsys, spoil, problem):
        features = tmp_path / "features.csv"
        features.write_text("date,x0,x1,label\n2021-01-04,0.1,0.2,increase\n"
                            "2021-01-05,0.3,0.4,decrease\n", encoding="utf-8")
        assert main(["train", "--features", str(features), "--out", str(tmp_path / "m")]) == 0
        model = tmp_path / "m" / "model.json"
        model.write_text(spoil(json.loads(model.read_text("utf-8"))), encoding="utf-8")
        assert main(["predict", "--model", str(model), "--features", str(features),
                     "--out", str(tmp_path / "p")]) == 2
        assert f"error: {model}: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("model, labels, problem", [
        ("logistic", ("increase", "up", "decrease"), "label 1 is 'up', not 'increase' or 'decrease'"),
        ("ridge", ("0.5", "up", "1.5"), "label 1 is 'up', not a number"),
        ("ridge", ("0.5", "nan", "1.5"), "label 1 is 'nan', not a finite number"),
    ])
    def test_train_names_the_line_of_a_label_it_cannot_read(self, tmp_path, capsys, model,
                                                            labels, problem):
        features = tmp_path / "features.csv"
        features.write_text("date,x0,label\n" + "".join(
            f"2021-01-0{4 + i},{0.1 * i},{label}\n" for i, label in enumerate(labels)
        ), encoding="utf-8")
        assert main(["train", "--features", str(features), "--model", model,
                     "--out", str(tmp_path / "m")]) == 2
        assert f"error: feature file {features} line 3: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.json").exists()

    def test_evaluate_names_the_line_of_a_non_numeric_value(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text('prediction,label,note\n1.5,1.0,"two\nlines"\nx,-1.0,\n',
                               encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions), "--task", "pct-change"]) == 2
        # entry 0's note spans two lines, so entry 1 sits on line 4
        assert f"{predictions} line 4: prediction 1 is 'x', not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, problem", [
        ("0.5", "no value for column 'label'"),
        ("0.5,1,0", "3 fields under 2 column headers"),
        ("", "no value for column 'prediction'"),
    ], ids=["short", "wide", "blank"])
    def test_evaluate_names_the_line_of_a_row_of_another_width(self, tmp_path, capsys,
                                                               bad_row, problem):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(f"prediction,label\n1.5,1.0\n{bad_row}\n2.0,2.0\n",
                               encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions), "--task", "next-value"]) == 2
        captured = capsys.readouterr()
        assert f"error: {predictions} line 3: {problem}" in captured.err
        assert captured.out == ""

    def test_evaluate_names_the_line_of_a_non_finite_value(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\n1.5,1.0\n2.0,inf\n", encoding="utf-8")
        out = tmp_path / "metrics"
        assert main(["evaluate", "--predictions", str(predictions), "--task", "next-value",
                     "--out", str(out)]) == 2
        assert (f"error: {predictions} line 3: label 1 is 'inf', not a finite number"
                in capsys.readouterr().err)
        assert not (out / "metrics.json").exists()

    def test_evaluate_refuses_a_mean_squared_error_beyond_float_range(self, tmp_path, capsys):
        # each squared error is finite; their sum is not
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\n1.3e154,0\n1.3e154,0\n", encoding="utf-8")
        out = tmp_path / "metrics"
        assert main(["evaluate", "--predictions", str(predictions), "--task", "next-value",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (f"error: {predictions}: the mean squared error of 2 entries is beyond float range"
                in captured.err)
        assert captured.out == ""
        assert not (out / "metrics.json").exists()

    def test_evaluate_names_the_line_of_a_non_direction_entry(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\nincrease,increase\nup,decrease\n1.5,Increase\n",
                               encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions),
                     "--task", "direction-change"]) == 2
        err = capsys.readouterr().err
        assert f"{predictions} line 3: prediction 1 is 'up', not 'increase' or 'decrease'" in err

    def test_train_names_the_file_of_labels_it_cannot_fit(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("date,x0,label\n" + "".join(
            f"2021-01-0{4 + i},{0.1 * i},increase\n" for i in range(3)
        ), encoding="utf-8")
        assert main(["train", "--features", str(features), "--out", str(tmp_path / "m")]) == 2
        assert (f"error: feature file {features}: labels must contain both classes: "
                "every label is 'increase', none is 'decrease'" in capsys.readouterr().err)
        assert not (tmp_path / "m" / "model.json").exists()

    def test_evaluate_names_the_file_without_rows(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("prediction,label\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(predictions)]) == 2
        assert f"error: {predictions}: nothing to evaluate" in capsys.readouterr().err

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


# the features each saved-model golden was trained and predicted on
GOLDEN_SECTIONS = [
    ("logistic", {"features": {"financial": "direction-window"}}),
    ("ridge", {"features": {"financial": "value-window"}, "task": {"kind": "pct-change"}}),
]


class TestOneFitPath:
    """`features` -> `train` -> `predict` is the experiment's own fit."""

    @pytest.mark.parametrize("kind, task, lam", [
        ("logistic", "direction-change", None),
        ("logistic", "direction-change", 0.1),
        ("linear", "pct-change", None),
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
        config = _series_config(
            tmp_path / "exp.json", series, data={"text": {"path": str(tweets)}},
            task={"kind": task, "horizon": 1},
            features={"text": "sentiment-window", "financial": "value-window", "window": 7},
            models=[model],
        )
        report = run_experiment(json.loads(config.read_text("utf-8")),
                                out_dir=tmp_path / "experiment")
        expected = [[d, p] for d, _, p, _ in _csv_rows(tmp_path / "experiment" / "predictions.csv")]

        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "features.csv").read_text("utf-8").splitlines(keepends=True)
        (tmp_path / "train.csv").write_text(header + "".join(rows[:report.n_train]), "utf-8")
        (tmp_path / "test.csv").write_text(header + "".join(rows[report.n_train:]), "utf-8")
        assert main(["train", "--features", str(tmp_path / "train.csv"), "--model", kind,
                     *lam_args, "--out", str(tmp_path / "model")]) == 0
        assert main(["predict", "--model", str(tmp_path / "model" / "model.json"),
                     "--features", str(tmp_path / "test.csv"), "--out", str(tmp_path / "cli")]) == 0

        assert len(expected) == report.n_test > 50
        assert _csv_rows(tmp_path / "cli" / "predictions.csv") == expected

    def test_linear_model_refuses_lam(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series, task={"kind": "pct-change"})
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        code = main(["train", "--features", str(tmp_path / "features.csv"), "--model", "linear",
                     "--lam", "0.5", "--out", str(tmp_path / "model")])
        assert code == 2
        assert "lam 0.5 does nothing without a penalty" in capsys.readouterr().err
        assert not (tmp_path / "model" / "model.json").exists()

    def test_logistic_model_refuses_zero_lam(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series)
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        code = main(["train", "--features", str(tmp_path / "features.csv"), "--model", "logistic",
                     "--lam", "0", "--out", str(tmp_path / "model")])
        assert code == 2
        assert "lam must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "model" / "model.json").exists()

    def test_default_features_fit_a_logistic_model(self, tmp_path):
        series, tweets = _planted_inputs(tmp_path)
        config = _series_config(tmp_path / "exp.json", series, data={"text": {"path": str(tweets)}})
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert main(["train", "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "model")]) == 0
        doc = json.loads((tmp_path / "model" / "model.json").read_text())
        assert (doc["architecture"], doc["schema"]) == ("logistic", 2)

    def test_train_writes_only_the_keys_predict_reads(self, tmp_path):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series)
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert main(["train", "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "model")]) == 0
        doc = json.loads((tmp_path / "model" / "model.json").read_text())
        assert set(doc) == {"schema", "architecture", "parameters", "transform"}

    def test_predict_rejects_features_of_another_width(self, tmp_path, capsys):
        series = _write_walk_csv(tmp_path / "series.csv")
        for window in (3, 1):
            config = _series_config(tmp_path / f"w{window}.json", series,
                                    task={"kind": "pct-change"}, features={"window": window})
            assert main(["features", "--config", str(config),
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
        config = _series_config(tmp_path / "exp.json", series)
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        doc = model_to_doc(AttentionRnn.init(T=7, n=1, m=4, p=4, seed=0))
        (tmp_path / "model.json").write_text(json.dumps(doc))
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "preds")]) == 2
        assert "not AttentionRnn" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, sections", GOLDEN_SECTIONS)
    def test_schema_one_model_predicts_as_before(self, tmp_path, kind, sections):
        # the goldens are a model.json and predictions.csv written by `train` and
        # `predict` before schema 2, on these features
        self._predicts_golden(tmp_path, kind, f"schema1_{kind}", sections)

    @pytest.mark.parametrize("kind, sections", GOLDEN_SECTIONS)
    def test_schema_two_model_with_a_config_predicts_as_before(self, tmp_path, kind, sections):
        # the goldens were written by `train` and `predict` with the default `lam`
        # while a column model.json still carried a `config`
        assert "config" in json.loads((GOLDENS / f"schema2_{kind}_model.json").read_text("utf-8"))
        self._predicts_golden(tmp_path, kind, f"schema2_{kind}", sections)

    @staticmethod
    def _predicts_golden(tmp_path, kind, golden, sections):
        series = _write_walk_csv(tmp_path / "series.csv")
        config = _series_config(tmp_path / "exp.json", series, **sections)
        assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert main(["predict", "--model", str(GOLDENS / f"{golden}_model.json"),
                     "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "preds")]) == 0
        produced = tmp_path / "preds" / "predictions.csv"
        expected = GOLDENS / f"{golden}_predictions.csv"
        if kind == "logistic":  # classes: no kernel's last digits can move them
            assert produced.read_bytes() == expected.read_bytes()
            return
        # a ridge prediction goes through a BLAS reduction, so it is compared
        # as regression.json's are: header, dates and row count exactly, each
        # value to a relative REGRESSION_REL_TOL
        assert produced.read_bytes().split(b"\n")[0] == expected.read_bytes().split(b"\n")[0]
        rows, golden_rows = _csv_rows(produced), _csv_rows(expected)
        assert [d for d, _ in rows] == [d for d, _ in golden_rows]
        assert [float(v) for _, v in rows] == pytest.approx(
            [float(v) for _, v in golden_rows], rel=REGRESSION_REL_TOL, abs=0)


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

    def test_invalid_json_error_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"seed": }')
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {config}: Expecting value: line 1 column 10 (char 9)" in capsys.readouterr().err

    def test_failing_config_among_several_is_named(self, tmp_path, capsys):
        good = self._config(tmp_path)
        typo = tmp_path / "typo.json"
        config = json.loads(good.read_text())
        config["models"] = [{"type": "up"}]
        typo.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(good), "--config", str(typo), "--out", str(out)]) == 2
        assert f"error: {typo}: stage 'config': unknown model type 'up'" in capsys.readouterr().err
        assert (out / "exp_7" / "report.json").exists()

    def test_top_level_that_is_not_an_object_is_named(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[]")
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: stage 'config': the top level must be an object" in err


class TestErrorReport:
    """A runtime error is printed once on stderr and kept once in run.log."""

    def _inputs(self, tmp_path, write_jsonl):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": }', encoding="utf-8")
        empty = tmp_path / "features.csv"
        empty.write_text("date,x0,label\n", encoding="utf-8")
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("date,label\n2021-01-04,increase\n", encoding="utf-8")
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "markets rally", "followers": 100}]
        )
        return {"bad": bad, "empty": empty, "predictions": predictions, "tweets": tweets}

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "--config", "{bad}"], "{bad}: Expecting value: line 1 column 10 (char 9)"),
        (["features", "--config", "{bad}"], "{bad}: Expecting value: line 1 column 10 (char 9)"),
        (["train", "--features", "{empty}"], "feature file {empty} has no data rows"),
        (["evaluate", "--predictions", "{predictions}"], "{predictions} has no 'prediction' column"),
        (["analyze", "freq", "--tweets", "{tweets}", "--term", "markets rally"],
         "term 'markets rally' is not one token"),
    ])
    def test_message_appears_once(self, tmp_path, capsys, write_jsonl, argv, message):
        files = self._inputs(tmp_path, write_jsonl)
        out = tmp_path / "out"
        argv = [arg.format(**files) for arg in argv] + ["--out", str(out)]
        message = message.format(**files)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 1
        assert f"error: {message}" in err
        assert (out / "run.log").read_text("utf-8").count(message) == 1


class TestLlmAnalyzeCommand:
    def test_against_stub(self, tmp_path, write_jsonl, stub_server):
        from econarrative.narrative import LlmClient, LlmClientConfig, build_analysis_prompt

        stub_server.state.set_chat_content(
            "<Analysis of Tweets>worry about rates</Analysis of Tweets>\n"
            "<Potential Effects on VIX>may rise</Potential Effects on VIX>"
        )
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "rates will rise", "followers": 5000}]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=10)
        config = _series_config(tmp_path / "exp.json", series, data={"text": {"path": str(tweets)}},
                                task={"target": "VIX"})
        out = tmp_path / "out"
        code = main([
            "llm-analyze", "--config", str(config), "--endpoint", stub_server.url,
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["tweet_analysis"] == "worry about rates"
        assert stub_server.calls == 1
        # the key of the prompt over the same data, aligned by hand
        aligned = ingest.align(ingest.preprocess(ingest.load_tweets(tweets)),
                               ingest.load_series(series))
        prompt = build_analysis_prompt(dict(zip(aligned.dates, map(list, aligned.tweets))),
                                       dict(zip(aligned.dates, aligned.values)), target="VIX")
        client = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="gpt-3.5-turbo"))
        assert payload["cache_key"] == client.cache_key(prompt.text)

    def test_target_defaults_to_the_series_name(self, tmp_path, write_jsonl, stub_server):
        stub_server.state.set_chat_content(
            "<Analysis of Tweets>a</Analysis of Tweets>\n<Potential Effects on VIX>b</Potential Effects on VIX>"
        )
        tweets = write_jsonl(
            [{"id": "1", "date": "2021-01-04", "text": "rates will rise", "followers": 5000}]
        )
        series = _write_walk_csv(tmp_path / "series.csv", n=10)
        keys = []
        for i, sections in enumerate([{"task": {"target": "VIX"}},
                                      {"data": {"series": {"path": str(series), "name": "VIX"}}}]):
            data = {"text": {"path": str(tweets)}, **sections.pop("data", {})}
            config = _series_config(tmp_path / f"exp{i}.json", series, data=data, **sections)
            out = tmp_path / f"out{i}"
            assert main(["llm-analyze", "--config", str(config), "--endpoint", stub_server.url,
                         "--out", str(out)]) == 0
            keys.append(json.loads((out / "analysis.json").read_text())["cache_key"])
        assert keys[0] == keys[1]

    @pytest.mark.parametrize("sections, problem", [
        ({"task": {"horizn": 1}}, "stage 'config': unknown config key 'horizn' in section 'task'"),
        ({}, "stage 'ingest': tweet corpus and series date ranges do not overlap"),
    ])
    def test_errors_name_the_config_and_stage(self, tmp_path, capsys, write_jsonl, sections,
                                              problem):
        tweets = write_jsonl([{"id": "1", "date": "2022-01-04", "text": "x", "followers": 1}])
        series = _write_walk_csv(tmp_path / "series.csv", n=10)  # 2021 only
        config = _series_config(tmp_path / "exp.json", series, data={"text": {"path": str(tweets)}},
                                **sections)
        assert main(["llm-analyze", "--config", str(config), "--endpoint", "http://127.0.0.1:9/",
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {config}: {problem}" in capsys.readouterr().err
