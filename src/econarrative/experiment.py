"""End-to-end experiment runner: config in, persisted report out.

A config names the data sources, feature pipeline, task, model list and
seed. The run is fully deterministic given the config (external LLM
calls are out of scope here; text either comes from files or from the
seeded generators). Reports serialize with sorted keys and no
timestamps so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ingest, sentiment, synthgen
from .embed import HashingEmbedder, daily_embedding
from .harness import (
    LabelSeries,
    REGRESSION_TASKS,
    TaskSpec,
    evaluate,
    make_labels,
    mcnemar,
)
from .ingest import AlignedDataset, FinancialSeries, TweetCorpus
from .models import (
    BaselineContext,
    fit_linear,
    fit_logistic,
    financial_baseline,
    train_darnn,
)
from .models.darnn import AttentionRnn


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(name, exc) from exc


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-date feature rows with labels and leakage bookkeeping."""

    dates: tuple[date, ...]
    X: np.ndarray
    labels: tuple
    feature_max_dates: tuple[date, ...]
    t_columns: slice
    f_columns: slice
    t_steps: int  # days per text window: `window` for sentiment, 1 for embeddings
    task: str


@dataclass
class ExperimentReport:
    config_hash: str
    task: dict
    n_train: int
    n_test: int
    train_range: tuple[str, str]
    test_range: tuple[str, str]
    leakage_audit: dict
    models: list[dict]
    mcnemar_pairs: list[dict]
    predictions: dict[str, list]  # model name -> [(date, prediction, label)]

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "task": self.task,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "train_range": list(self.train_range),
            "test_range": list(self.test_range),
            "leakage_audit": self.leakage_audit,
            "models": self.models,
            "mcnemar": self.mcnemar_pairs,
        }


# -- data stage ----------------------------------------------------------


def _load_series(spec: dict) -> FinancialSeries:
    if "path" in spec:
        return ingest.load_series(
            spec["path"], column=spec.get("column", "value"), name=spec.get("name")
        )
    if "random_walk" in spec:
        rw = spec["random_walk"]
        return synthgen.gen_random_walk(
            n=rw["n"],
            sigma=rw["sigma"],
            v0=rw.get("v0", 100.0),
            seed=rw.get("seed", 0),
            name=rw.get("name", "SYNTH"),
        )
    raise ValueError("series spec needs 'path' or 'random_walk'")


def _load_text(spec: dict | None, series: FinancialSeries, horizon: int) -> TweetCorpus:
    if spec is None:
        return TweetCorpus(records=(), date_range=None, provenance={"source": "none"})
    if "path" in spec:
        corpus = ingest.load_tweets(spec["path"], min_followers=spec.get("min_followers", 0))
        return ingest.preprocess(corpus)
    if "random_texts" in spec:
        opts = spec["random_texts"]
        cfg = synthgen.SynthConfig(seed=opts.get("seed", 0), per_day=opts.get("per_day", 3))
        return synthgen.gen_random_texts(cfg, series.dates)
    if "synthetic_narratives" in spec:
        opts = spec["synthetic_narratives"]
        cfg = synthgen.SynthConfig(
            seed=opts.get("seed", 0),
            alignment_p=opts.get("p", 1.0),
            per_day=opts.get("per_day", 3),
        )
        return synthgen.gen_synthetic_narratives(series, horizon, cfg)
    if "shuffled_narratives" in spec:
        opts = spec["shuffled_narratives"]
        cfg = synthgen.SynthConfig(
            seed=opts.get("seed", 0),
            alignment_p=opts.get("p", 1.0),
            per_day=opts.get("per_day", 3),
        )
        base = synthgen.gen_synthetic_narratives(series, horizon, cfg)
        return synthgen.shuffle_dates(base, seed=opts.get("shuffle_seed", opts.get("seed", 0) + 1))
    raise ValueError("unknown text source spec")


# -- feature stage --------------------------------------------------------


def _directions(values: Sequence[float]) -> np.ndarray:
    """Up-move flag per trading day, values[j] > values[j-1]; False on day 0."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([[False], v[1:] > v[:-1]])


def _text_column(aligned: AlignedDataset, kind: str, emb_cfg: dict, read: np.ndarray) -> np.ndarray:
    """One text row per trading day, shape (days, width). Sentiment scores
    every day once; embeddings fill only the days in `read`."""
    if kind == "sentiment-window":
        return sentiment.daily_sentiment_column(aligned)[:, None]
    if kind == "none":
        return np.zeros((len(aligned), 0))
    if kind != "embedding":
        raise ValueError(f"unknown text feature kind {kind!r}")
    embedder = HashingEmbedder(dimension=emb_cfg.get("dimension", 16), seed=emb_cfg.get("seed", 0))
    mode, k = emb_cfg.get("mode", "individual-mean"), emb_cfg.get("k", 10)
    vectors = [daily_embedding(embedder, aligned.tweets[i], mode=mode, k=k) for i in read]
    column = np.zeros((len(aligned), len(vectors[0])))
    column[read] = vectors
    return column


def _financial_column(aligned: AlignedDataset, kind: str) -> np.ndarray:
    """One financial row per trading day, shape (days, width)."""
    if kind == "value-window":
        return np.asarray(aligned.values, dtype=float)[:, None]
    if kind == "direction-window":
        return _directions(aligned.values).astype(float)[:, None]
    if kind == "none":
        return np.zeros((len(aligned), 0))
    raise ValueError(f"unknown financial feature kind {kind!r}")


def _windows(column: np.ndarray, steps: int, rows: np.ndarray) -> np.ndarray:
    """The `steps` days ending at each row, oldest first, flattened step-major."""
    view = sliding_window_view(column, steps, axis=0)  # (days - steps + 1, width, steps)
    picked = view[rows - steps + 1].swapaxes(1, 2)
    return picked.reshape(len(rows), steps * column.shape[1])


def build_features(
    aligned: AlignedDataset,
    labels: LabelSeries,
    features_cfg: dict,
    task: str,
) -> FeatureMatrix:
    window = int(features_cfg.get("window", 7))
    text_kind = features_cfg.get("text", "none")
    fin_kind = features_cfg.get("financial", "value-window")
    if window < 1:
        raise ValueError("feature window must be >= 1")

    # a direction window of `window` moves and the week-majority
    # baselines' 7 moves each need the value before their first day
    start = max(window, 7)
    label_by_date = dict(zip(labels.dates, labels.values))
    rows = np.array(
        [i for i in range(start, len(aligned)) if aligned.dates[i] in label_by_date], dtype=np.intp
    )
    if len(rows) < 2:
        raise ValueError("not enough usable dates to build features")

    t_steps = window if text_kind == "sentiment-window" else 1
    text = _text_column(aligned, text_kind, features_cfg.get("embedding", {}), rows)
    t_block = _windows(text, t_steps, rows)
    f_block = _windows(_financial_column(aligned, fin_kind), window, rows)
    t_width, f_width = t_block.shape[1], f_block.shape[1]
    row_dates = tuple(aligned.dates[i] for i in rows)
    return FeatureMatrix(
        dates=row_dates,
        X=np.concatenate([t_block, f_block], axis=1),
        labels=tuple(label_by_date[d] for d in row_dates),
        feature_max_dates=row_dates,
        t_columns=slice(0, t_width),
        f_columns=slice(t_width, t_width + f_width),
        t_steps=t_steps,
        task=task,
    )


def _input_columns(matrix: FeatureMatrix, inputs: str) -> np.ndarray:
    if inputs == "TF":
        return matrix.X
    if inputs == "T":
        return matrix.X[:, matrix.t_columns]
    if inputs == "F":
        return matrix.X[:, matrix.f_columns]
    raise ValueError(f"model inputs must be F, T or TF, got {inputs!r}")


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (train - mean) / std, (test - mean) / std


# -- model stage ----------------------------------------------------------


def _baseline_predictions(
    kind: str,
    aligned: AlignedDataset,
    matrix: FeatureMatrix,
    test_idx: range,
    train_labels: Sequence,
    task: str,
) -> list:
    values = aligned.values
    moves = np.where(_directions(values), "increase", "decrease").tolist()
    if task in REGRESSION_TASKS:
        train_mean = float(np.mean([float(v) for v in train_labels]))
        train_majority = None
    else:
        ups = sum(1 for v in train_labels if v == "increase")
        train_majority = "increase" if ups > len(train_labels) - ups else "decrease"
        train_mean = None
    out = []
    for row in test_idx:
        i = aligned.index_of(matrix.dates[row])
        if task == "pct-change":
            prev_value = 100.0 * (values[i] - values[i - 1]) / values[i - 1]
        else:
            prev_value = values[i]
        context = BaselineContext(
            task=task,
            prev_value=prev_value,
            prev_direction=moves[i],
            week_directions=tuple(moves[i - 6:i + 1]),
            train_majority=train_majority,
            train_mean=train_mean,
        )
        out.append(financial_baseline(kind, context))
    return out


def _fit_and_predict(
    model_cfg: dict,
    matrix: FeatureMatrix,
    aligned: AlignedDataset,
    n_train: int,
    task: str,
    window: int,
) -> list:
    kind = model_cfg.get("type")
    inputs = model_cfg.get("inputs", "TF")
    test_idx = range(n_train, len(matrix.dates))
    train_labels = matrix.labels[:n_train]

    if kind == "baseline":
        return _baseline_predictions(
            model_cfg["kind"], aligned, matrix, test_idx, train_labels, task
        )

    X = _input_columns(matrix, inputs)
    X_train, X_test = X[:n_train], X[n_train:]

    if kind == "logistic":
        if task in REGRESSION_TASKS:
            raise ValueError("logistic models only fit classification tasks")
        X_train, X_test = _standardize(X_train, X_test)
        y = np.array([1.0 if v == "increase" else 0.0 for v in train_labels])
        model = fit_logistic(X_train, y, lam=model_cfg.get("lam", 0.01))
        return ["increase" if v else "decrease" for v in model.predict(X_test)]

    if kind in ("linear", "ridge", "lasso"):
        if task not in REGRESSION_TASKS:
            raise ValueError(f"{kind} models only fit regression tasks")
        X_train, X_test = _standardize(X_train, X_test)
        y = np.array([float(v) for v in train_labels])
        reg = {"linear": "none", "ridge": "l2", "lasso": "l1"}[kind]
        model = fit_linear(X_train, y, reg=reg, lam=model_cfg.get("lam", 0.0 if kind == "linear" else 1.0))
        return [float(v) for v in model.predict(X_test)]

    if kind == "darnn":
        if task not in REGRESSION_TASKS:
            raise ValueError("the attention RNN predicts regression targets")
        if inputs != "TF":
            raise ValueError("the attention RNN needs both driver and history inputs")
        t_block = matrix.X[:, matrix.t_columns]
        f_block = matrix.X[:, matrix.f_columns]
        if t_block.shape[1] == 0 or f_block.shape[1] != window:
            raise ValueError("darnn requires text drivers and a value-window history")
        if matrix.t_steps != window:
            raise ValueError(
                f"darnn needs text windows of {window} days, got {matrix.t_steps}-day text features"
            )
        drivers = t_block.reshape(len(matrix.dates), window, -1)
        label_mean = float(np.mean([float(v) for v in matrix.labels[:n_train]]))
        label_std = float(np.std([float(v) for v in matrix.labels[:n_train]])) or 1.0
        history = (f_block - label_mean) / label_std
        targets = (np.array([float(v) for v in matrix.labels]) - label_mean) / label_std
        model = AttentionRnn.init(
            T=window,
            n=drivers.shape[2],
            m=model_cfg.get("m", 32),
            p=model_cfg.get("p", 32),
            seed=model_cfg.get("seed", 0),
        )
        trained = train_darnn(
            model,
            drivers[:n_train],
            history[:n_train],
            targets[:n_train],
            epochs=model_cfg.get("epochs", 100),
            learning_rate=model_cfg.get("lr", 1e-3),
            seed=model_cfg.get("seed", 0),
            batch_size=model_cfg.get("batch_size", 32),
        )
        raw = trained.predict(drivers[n_train:], history[n_train:])
        return [float(v) * label_std + label_mean for v in raw]

    raise ValueError(f"unknown model type {kind!r}")


# -- runner ---------------------------------------------------------------


def run_experiment(config: dict, out_dir: str | Path | None = None) -> ExperimentReport:
    chash = config_hash(config)
    task_cfg = config.get("task", {})
    with _stage("config"):
        spec = TaskSpec(
            target=task_cfg.get("target", ""),
            task=task_cfg.get("kind", "direction-change"),
            horizon=int(task_cfg.get("horizon", 1)),
        )
    task = spec.task
    horizon = spec.horizon

    with _stage("ingest"):
        series = _load_series(config["data"]["series"])
        corpus = _load_text(config["data"].get("text"), series, horizon)
        aligned = ingest.align(corpus, series)

    with _stage("features"):
        aligned_series = FinancialSeries(
            name=series.name, points=tuple(zip(aligned.dates, aligned.values))
        )
        labels = make_labels(aligned_series, task, horizon)
        features_cfg = config.get("features", {})
        matrix = build_features(aligned, labels, features_cfg, task)

    with _stage("split"):
        fraction = float(config.get("eval", {}).get("train_fraction", 0.8))
        if not 0 < fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        n_rows = len(matrix.dates)
        n_train = int(np.floor(fraction * n_rows))
        if n_train == 0 or n_train == n_rows:
            raise ValueError(f"degenerate split: {n_train} of {n_rows}")

    window = int(config.get("features", {}).get("window", 7))
    model_rows: list[dict] = []
    predictions: dict[str, list] = {}
    correctness: dict[str, list[bool]] = {}
    test_labels = matrix.labels[n_train:]
    test_dates = matrix.dates[n_train:]

    for model_cfg in config.get("models", []):
        name = model_cfg.get("name") or (
            model_cfg.get("kind") if model_cfg.get("type") == "baseline"
            else f"{model_cfg.get('type')}-{model_cfg.get('inputs', 'TF')}"
        )
        with _stage(f"model:{name}"):
            preds = _fit_and_predict(model_cfg, matrix, aligned, n_train, task, window)
            report = evaluate(preds, test_labels, task)
        row = {"name": name, "type": model_cfg.get("type"), "inputs": model_cfg.get("inputs")}
        row.update(report.to_dict())
        model_rows.append(row)
        predictions[name] = [
            (d.isoformat(), p, l) for d, p, l in zip(test_dates, preds, test_labels)
        ]
        if task not in REGRESSION_TASKS:
            correctness[name] = [p == l for p, l in zip(preds, test_labels)]

    pairs = []
    names = list(correctness)
    with _stage("mcnemar"):
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                result = mcnemar(correctness[names[i]], correctness[names[j]])
                pairs.append(
                    {
                        "model_a": names[i],
                        "model_b": names[j],
                        "b": result.b,
                        "c": result.c,
                        "p_value": result.p_value,
                        "method": result.method,
                    }
                )

    audit = {
        "max_feature_date_ok": all(
            fd <= d for fd, d in zip(matrix.feature_max_dates, matrix.dates)
        ),
        "max_train_date": matrix.dates[n_train - 1].isoformat(),
        "min_test_date": matrix.dates[n_train].isoformat(),
    }
    report = ExperimentReport(
        config_hash=chash,
        task={"target": task_cfg.get("target", series.name), "kind": task, "horizon": horizon},
        n_train=n_train,
        n_test=n_rows - n_train,
        train_range=(matrix.dates[0].isoformat(), matrix.dates[n_train - 1].isoformat()),
        test_range=(matrix.dates[n_train].isoformat(), matrix.dates[-1].isoformat()),
        leakage_audit=audit,
        models=model_rows,
        mcnemar_pairs=pairs,
        predictions=predictions,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


# -- persistence ----------------------------------------------------------


def write_report(report: ExperimentReport, out_dir: str | Path) -> list[str]:
    """Write report.json, report.md, predictions.csv and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    (out / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"# Experiment {report.config_hash[:12]}",
        "",
        f"Task: {report.task['kind']} on {report.task['target']}, horizon {report.task['horizon']}",
        f"Train {report.n_train} ({report.train_range[0]}..{report.train_range[1]}), "
        f"test {report.n_test} ({report.test_range[0]}..{report.test_range[1]})",
        "",
    ]
    is_regression = report.task["kind"] in REGRESSION_TASKS
    if is_regression:
        lines += ["| model | inputs | MSE |", "|---|---|---|"]
        for row in report.models:
            lines.append(f"| {row['name']} | {row.get('inputs') or '-'} | {row.get('mse'):.6g} |")
    else:
        lines += ["| model | inputs | accuracy | F1 |", "|---|---|---|---|"]
        for row in report.models:
            lines.append(
                f"| {row['name']} | {row.get('inputs') or '-'} | "
                f"{row.get('accuracy'):.4f} | {row.get('f1'):.4f} |"
            )
    if report.mcnemar_pairs:
        lines += ["", "| pair | b | c | p |", "|---|---|---|---|"]
        for pair in report.mcnemar_pairs:
            lines.append(
                f"| {pair['model_a']} vs {pair['model_b']} | {pair['b']} | {pair['c']} | "
                f"{pair['p_value']:.4f} |"
            )
    (out / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")

    with (out / "predictions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "model", "prediction", "label"])
        for name in sorted(report.predictions):
            for d, p, l in report.predictions[name]:
                writer.writerow([d, name, p, l])

    artifacts = ["predictions.csv", "report.json", "report.md"]
    (out / "manifest.json").write_text(
        json.dumps(
            {"artifacts": artifacts, "config_hash": report.config_hash}, sort_keys=True, indent=2
        )
        + "\n",
        encoding="utf-8",
    )
    return artifacts + ["manifest.json"]
