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
import itertools
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
    LINEAR_PENALTIES,
    BaselineContext,
    fit_linear,
    fit_logistic,
    financial_baseline,
    train_darnn,
)
from .models.baselines import _majority
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
    feature_max_dates: tuple[date, ...]  # newest day each row's features read
    t_columns: slice
    f_columns: slice
    t_steps: int  # days per text window: `window` for sentiment, 1 for embeddings
    window: int  # days per financial window


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
    source = "synthetic_narratives" if "synthetic_narratives" in spec else "shuffled_narratives"
    if source in spec:
        opts = spec[source]
        cfg = synthgen.SynthConfig(
            seed=opts.get("seed", 0),
            alignment_p=opts.get("p", 1.0),
            per_day=opts.get("per_day", 3),
        )
        corpus = synthgen.gen_synthetic_narratives(series, horizon, cfg)
        if source == "shuffled_narratives":
            shuffle_seed = opts.get("shuffle_seed", opts.get("seed", 0) + 1)
            corpus = synthgen.shuffle_dates(corpus, seed=shuffle_seed)
        return corpus
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


def _windows(column: np.ndarray, steps: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `steps` days ending at each row, oldest first, flattened step-major,
    and the index of the last day each row read."""
    first = rows - steps + 1
    if first.min() < 0:
        start = rows.min()
        raise ValueError(f"need {steps} trading days of history, day {start} has {start + 1}")
    view = sliding_window_view(column, steps, axis=0)  # (days - steps + 1, width, steps)
    picked = view[first].swapaxes(1, 2)
    return picked.reshape(len(rows), steps * column.shape[1]), first + steps - 1


def build_features(aligned: AlignedDataset, labels: LabelSeries, features_cfg: dict) -> FeatureMatrix:
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
    t_block, t_last = _windows(text, t_steps, rows)
    f_block, f_last = _windows(_financial_column(aligned, fin_kind), window, rows)
    t_width, f_width = t_block.shape[1], f_block.shape[1]
    row_dates = tuple(aligned.dates[i] for i in rows)
    return FeatureMatrix(
        dates=row_dates,
        X=np.concatenate([t_block, f_block], axis=1),
        labels=tuple(label_by_date[d] for d in row_dates),
        feature_max_dates=tuple(aligned.dates[i] for i in np.maximum(t_last, f_last)),
        t_columns=slice(0, t_width),
        f_columns=slice(t_width, t_width + f_width),
        t_steps=t_steps,
        window=window,
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


def _baseline_model(
    model_cfg: dict, matrix: FeatureMatrix, n_train: int, aligned: AlignedDataset, task: str
) -> list:
    values = aligned.values
    moves = np.where(_directions(values), "increase", "decrease").tolist()
    train_labels = matrix.labels[:n_train]
    if task in REGRESSION_TASKS:
        train_mean = float(np.mean([float(v) for v in train_labels]))
        train_majority = None
    else:
        train_majority = _majority(train_labels)
        train_mean = None
    out = []
    for d in matrix.dates[n_train:]:
        i = aligned.index_of(d)
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
        out.append(financial_baseline(model_cfg["kind"], context))
    return out


def _standardized_inputs(model_cfg: dict, matrix: FeatureMatrix, n_train: int):
    X = _input_columns(matrix, model_cfg.get("inputs", "TF"))
    return _standardize(X[:n_train], X[n_train:])


def _logistic_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, *_) -> list:
    X_train, X_test = _standardized_inputs(model_cfg, matrix, n_train)
    y = np.array([1.0 if v == "increase" else 0.0 for v in matrix.labels[:n_train]])
    model = fit_logistic(X_train, y, lam=model_cfg.get("lam", 0.01))
    return ["increase" if v else "decrease" for v in model.predict(X_test)]


def _linear_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, *_) -> list:
    kind = model_cfg["type"]
    X_train, X_test = _standardized_inputs(model_cfg, matrix, n_train)
    y = np.array([float(v) for v in matrix.labels[:n_train]])
    lam = model_cfg.get("lam", 0.0 if kind == "linear" else 1.0)
    model = fit_linear(X_train, y, reg=LINEAR_PENALTIES[kind], lam=lam)
    return [float(v) for v in model.predict(X_test)]


def _darnn_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, *_) -> list:
    if model_cfg.get("inputs", "TF") != "TF":
        raise ValueError("the attention RNN needs both driver and history inputs")
    window = matrix.window
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


# model type -> (task kind it fits, None for either; fit-and-predict function,
# called as fn(model_cfg, matrix, n_train, aligned, task) and returning the
# predictions for the rows after the first n_train)
MODELS = {
    "baseline": (None, _baseline_model),
    "logistic": ("classification", _logistic_model),
    **{kind: ("regression", _linear_model) for kind in LINEAR_PENALTIES},
    "darnn": ("regression", _darnn_model),
}


def _model_name(model_cfg: dict) -> str:
    if model_cfg.get("name"):
        return model_cfg["name"]
    if model_cfg.get("type") == "baseline":
        return model_cfg.get("kind")
    return f"{model_cfg.get('type')}-{model_cfg.get('inputs', 'TF')}"


# -- runner ---------------------------------------------------------------


# the keys each config section may hold ("" is the top level); the run reads
# nothing else there, so any other key is a typo that would change nothing
CONFIG_KEYS = {
    "": {"seed", "data", "task", "features", "models", "eval"},
    "task": {"target", "kind", "horizon"},
    "eval": {"train_fraction"},
    "features": {"window", "text", "financial", "embedding"},
    "features.embedding": {"dimension", "seed", "mode", "k"},
}


def _check_config(config: dict) -> list[str]:
    """Reject unknown keys, a bad task, unknown model types, models on the
    wrong task kind and baselines without a kind; return the model names."""
    for section, allowed in CONFIG_KEYS.items():
        node = config
        for part in section.split(".") if section else ():
            node = node.get(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = sorted(set(node) - allowed)
        if unknown:
            where = f"section {section!r}" if section else "the top level"
            raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    task, horizon = _task_of(config)
    TaskSpec(target=config.get("task", {}).get("target", ""), task=task, horizon=horizon)
    task_kind = "regression" if task in REGRESSION_TASKS else "classification"
    models = config.get("models", [])
    for model_cfg in models:
        kind = model_cfg.get("type")
        if kind not in MODELS:
            raise ValueError(f"unknown model type {kind!r}")
        if MODELS[kind][0] not in (None, task_kind):
            raise ValueError(f"{kind} models only fit {MODELS[kind][0]} tasks, not {task!r}")
        if kind == "baseline" and "kind" not in model_cfg:
            raise ValueError("baseline model is missing the 'kind' key")
    names = [_model_name(m) for m in models]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"duplicate model name {repeated[0]!r}: give each model its own 'name'")
    return names


def _task_of(config: dict) -> tuple[str, int]:
    task_cfg = config.get("task", {})
    return task_cfg.get("kind", "direction-change"), int(task_cfg.get("horizon", 1))


def prepare(config: dict) -> tuple[AlignedDataset, FeatureMatrix]:
    """Ingest and align a config's data, label it and build its features."""
    task, horizon = _task_of(config)
    with _stage("ingest"):
        series = _load_series(config["data"]["series"])
        corpus = _load_text(config["data"].get("text"), series, horizon)
        aligned = ingest.align(corpus, series)

    with _stage("features"):
        aligned_series = FinancialSeries(
            name=series.name, points=tuple(zip(aligned.dates, aligned.values))
        )
        labels = make_labels(aligned_series, task, horizon)
        matrix = build_features(aligned, labels, config.get("features", {}))
    return aligned, matrix


def run_experiment(config: dict, out_dir: str | Path | None = None) -> ExperimentReport:
    chash = config_hash(config)
    task_cfg = config.get("task", {})
    with _stage("config"):
        names = _check_config(config)
        task, horizon = _task_of(config)

    aligned, matrix = prepare(config)

    with _stage("split"):
        n_rows = len(matrix.dates)
        n_train = ingest.train_size(n_rows, float(config.get("eval", {}).get("train_fraction", 0.8)))

    model_rows: list[dict] = []
    predictions: dict[str, list] = {}
    correctness: dict[str, list[bool]] = {}
    test_labels = matrix.labels[n_train:]
    test_dates = matrix.dates[n_train:]

    for name, model_cfg in zip(names, config.get("models", [])):
        with _stage(f"model:{name}"):
            preds = MODELS[model_cfg["type"]][1](model_cfg, matrix, n_train, aligned, task)
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
    with _stage("mcnemar"):
        for a, b in itertools.combinations(correctness, 2):
            result = mcnemar(correctness[a], correctness[b])
            pairs.append(
                {
                    "model_a": a,
                    "model_b": b,
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
        task={"target": task_cfg.get("target", aligned.indicator), "kind": task, "horizon": horizon},
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
