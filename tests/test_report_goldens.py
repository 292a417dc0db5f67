"""Byte-identity gate: rule-baseline runs reproduce their committed reports.

Each config runs the rule baselines over `goldens/reports/series.csv`, a
90-day walk rounded to 0.1 so that 19 of its 89 moves are flat. Nothing in
these runs goes through a BLAS reduction, so the bytes are the same on any
machine. Every baseline kind runs on every task it fits at horizons 1 and 7,
and `up` and `week-majority` run once more over `direction-window` features,
whose `features.csv` is kept too.

F-only logistic fits go through a BLAS reduction, so their floats may
differ in the last digits from one CPU kernel to the next. For those,
`goldens/reports/logistic.json` keeps only what such digits cannot move
(each model's class on each test date, its accuracy, and McNemar's `b`
and `c` for each pair), and the test compares them exactly. Every
test-row probability of these fits lies at least 1e-3 from the 0.5
threshold.

F-only `ridge`, `linear` and `lasso` fits move in the last digits too, so
`goldens/reports/regression.json` keeps their predictions and MSEs with
`as-previous` for comparison. Dates, model names and row counts must match
exactly, and each float to a relative `REGRESSION_REL_TOL`.
`goldens/reports/text_regression.json` does the same for the three models on
T and TF inputs, whose text columns are the `sentiment-window` scores of
`goldens/reports/tweets.jsonl`.

`goldens/reports/darnn.json` keeps one small DA-RNN's predictions and MSE
the same way, with `as-previous` for comparison. Its text drivers are the
`sentiment-window` scores of `goldens/reports/tweets.jsonl`: the planted
narratives over the walk at seed `TWEETS_SEED`, which `econarrative ingest`
writes from a config whose text is
`{"synthetic_narratives": {"seed": 3}}`.

To rewrite the goldens after a deliberate change of output, run
`PYTHONPATH=src python tests/test_report_goldens.py` from the repository root.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from econarrative.cli import main
from econarrative.experiment import run_experiment
from econarrative.harness import REGRESSION_TASKS, TASKS
from econarrative.models.baselines import BASELINE_KINDS, BASELINE_TASKS

REPORTS = Path(__file__).parent / "goldens" / "reports"
FILES = ("report.json", "report.md", "predictions.csv")
SERIES = {"path": "series.csv", "name": "GOLD"}  # read relative to REPORTS


def _kinds(task):
    wanted = "regression" if task in REGRESSION_TASKS else "classification"
    return [kind for kind in BASELINE_KINDS if BASELINE_TASKS[kind] in (None, wanted)]


CONFIGS = {
    f"{task}-h{horizon}": {
        "data": {"series": SERIES},
        "task": {"kind": task, "horizon": horizon},
        "models": [{"type": "baseline", "kind": kind} for kind in _kinds(task)],
    }
    for task in TASKS
    for horizon in (1, 7)
}
CONFIGS["direction-window"] = {
    "data": {"series": SERIES},
    "task": {"kind": "direction-change", "horizon": 1},
    "features": {"financial": "direction-window", "window": 10},
    "models": [{"type": "baseline", "kind": "up"}, {"type": "baseline", "kind": "week-majority"}],
}

LOGISTIC_CONFIGS = {
    f"logistic-h{horizon}": {
        "data": {"series": SERIES},
        "task": {"kind": "direction-change", "horizon": horizon},
        "models": [
            {"type": "logistic", "inputs": "F"},
            {"type": "baseline", "kind": "as-previous"},
        ],
    }
    for horizon in (1, 7)
}
LOGISTIC_GOLDEN = REPORTS / "logistic.json"

REGRESSION_CONFIGS = {
    f"{task}-h{horizon}": {
        "data": {"series": SERIES},
        "task": {"kind": task, "horizon": horizon},
        "models": [
            {"type": "ridge", "inputs": "F"},
            {"type": "linear", "inputs": "F"},
            {"type": "lasso", "inputs": "F"},
            {"type": "baseline", "kind": "as-previous"},
        ],
    }
    for task in ("pct-change", "next-value")
    for horizon in (1, 7)
}
REGRESSION_GOLDEN = REPORTS / "regression.json"
TEXT_REGRESSION_CONFIGS = {
    f"text-{task}-h{horizon}": {
        "data": {"series": SERIES, "text": {"path": "tweets.jsonl"}},
        "task": {"kind": task, "horizon": horizon},
        "features": {"text": "sentiment-window"},
        "models": [{"type": kind, "inputs": inputs}
                   for kind in ("ridge", "linear", "lasso") for inputs in ("T", "TF")]
                  + [{"type": "baseline", "kind": "as-previous"}],
    }
    for task in ("pct-change", "next-value")
    for horizon in (1, 7)
}
TEXT_REGRESSION_GOLDEN = REPORTS / "text_regression.json"
# Against the goldens, the largest relative difference measured under
# OPENBLAS_CORETYPE Haswell, Sandybridge and Nehalem at 1 and 2 BLAS threads
# was 2.3e-13 for F inputs (Sandybridge, a `linear-F` prediction) and 4.8e-13
# for T and TF inputs (Nehalem, a `ridge-TF` prediction); the bound leaves a
# margin of over 2,000 times that for other kernels.
REGRESSION_REL_TOL = 1e-9

DARNN_CONFIGS = {
    "darnn-next-value-h1": {
        "data": {"series": SERIES, "text": {"path": "tweets.jsonl"}},
        "task": {"kind": "next-value", "horizon": 1},
        "features": {"text": "sentiment-window", "financial": "value-window", "window": 7},
        "models": [
            {"type": "darnn", "m": 4, "p": 4, "epochs": 10, "lr": 0.01, "batch_size": 16,
             "seed": 1},
            {"type": "baseline", "kind": "as-previous"},
        ],
    }
}
DARNN_GOLDEN = REPORTS / "darnn.json"  # equal bit for bit on the same six kernel settings
TWEETS_SEED = 3  # the `synthetic_narratives` seed of goldens/reports/tweets.jsonl
# each set of regression configs with the golden file of its summaries
REGRESSION_GOLDENS = ((REGRESSION_CONFIGS, REGRESSION_GOLDEN),
                      (TEXT_REGRESSION_CONFIGS, TEXT_REGRESSION_GOLDEN),
                      (DARNN_CONFIGS, DARNN_GOLDEN))


def _logistic_summary(name):
    """What a logistic run's report keeps on any BLAS kernel."""
    report = run_experiment(LOGISTIC_CONFIGS[name])
    return {
        "classes": {model: {d: p for d, p, _ in rows} for model, rows in report.predictions.items()},
        "accuracy": {row["name"]: row["accuracy"] for row in report.models},
        "mcnemar": [[pair["model_a"], pair["model_b"], pair["b"], pair["c"]]
                    for pair in report.mcnemar_pairs],
    }


def _regression_summary(config):
    """Each model's MSE and its prediction per test date."""
    report = run_experiment(config)
    return {
        "mse": {row["name"]: row["mse"] for row in report.models},
        "predictions": {model: {d: p for d, p, _ in rows}
                        for model, rows in report.predictions.items()},
    }


def _write(name, out_dir):
    run_experiment(CONFIGS[name], out_dir=out_dir)


def _write_tweets(out_dir, config_dir):
    """`econarrative ingest` over the walk with planted narratives at
    TWEETS_SEED, its config saved in `config_dir`."""
    config = Path(config_dir) / "tweets.json"
    data = {"series": {"path": "series.csv"},
            "text": {"synthetic_narratives": {"seed": TWEETS_SEED}}}
    config.write_text(json.dumps({"data": data}), encoding="utf-8")
    return main(["ingest", "--config", str(config), "--out", str(out_dir)])


def _write_features(out_dir, config_dir):
    """`econarrative features` over the `direction-window` config, saved in `config_dir`."""
    config = Path(config_dir) / "direction-window.json"
    config.write_text(json.dumps(CONFIGS["direction-window"]), encoding="utf-8")
    return main(["features", "--config", str(config), "--out", str(out_dir)])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPORTS)
    _write(name, tmp_path)
    for file in FILES:
        assert (tmp_path / file).read_bytes() == (REPORTS / name / file).read_bytes(), file


def test_direction_window_features_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(REPORTS)
    assert _write_features(tmp_path, tmp_path) == 0
    golden = REPORTS / "direction-window" / "features.csv"
    assert (tmp_path / "features.csv").read_bytes() == golden.read_bytes()


def test_ingest_writes_the_golden_tweets(tmp_path, monkeypatch):
    monkeypatch.chdir(REPORTS)
    assert _write_tweets(tmp_path, tmp_path) == 0
    assert (tmp_path / "tweets.jsonl").read_bytes() == (REPORTS / "tweets.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(LOGISTIC_CONFIGS))
def test_logistic_classes_match_golden(name, monkeypatch):
    monkeypatch.chdir(REPORTS)
    golden = json.loads(LOGISTIC_GOLDEN.read_text(encoding="utf-8"))[name]
    assert _logistic_summary(name) == golden


@pytest.mark.parametrize("configs, golden_file, name", [
    pytest.param(configs, golden_file, name, id=name)
    for configs, golden_file in REGRESSION_GOLDENS for name in sorted(configs)
])
def test_regression_predictions_match_golden(configs, golden_file, name, monkeypatch):
    monkeypatch.chdir(REPORTS)
    golden = json.loads(golden_file.read_text(encoding="utf-8"))[name]
    summary = _regression_summary(configs[name])
    # model names, dates and row counts exactly
    assert ({model: list(rows) for model, rows in summary["predictions"].items()}
            == {model: list(rows) for model, rows in golden["predictions"].items()})
    assert summary["mse"] == pytest.approx(golden["mse"], rel=REGRESSION_REL_TOL, abs=0)
    for model, rows in golden["predictions"].items():
        assert summary["predictions"][model] == pytest.approx(rows, rel=REGRESSION_REL_TOL, abs=0)


if __name__ == "__main__":
    os.chdir(REPORTS)
    for name in CONFIGS:
        _write(name, name)
        (Path(name) / "manifest.json").unlink()
    with tempfile.TemporaryDirectory() as config_dir:
        _write_features("direction-window", config_dir)
    Path("direction-window", "run.log").unlink()
    summaries = {name: _logistic_summary(name) for name in sorted(LOGISTIC_CONFIGS)}
    LOGISTIC_GOLDEN.write_text(json.dumps(summaries, indent=1) + "\n", encoding="utf-8")
    # only tweets.jsonl: ingest also rewrites series.csv, with CRLF line ends
    with tempfile.TemporaryDirectory() as work:
        _write_tweets(work, work)
        shutil.copyfile(Path(work) / "tweets.jsonl", "tweets.jsonl")
    for configs, golden in REGRESSION_GOLDENS:
        summaries = {name: _regression_summary(configs[name]) for name in sorted(configs)}
        golden.write_text(json.dumps(summaries, indent=1) + "\n", encoding="utf-8")
