"""End-to-end experiment runner: config in, persisted report out.

A config names the data sources, feature pipeline, task and model list;
`load_data` is the one reader of its data. The run is fully deterministic
given the config (external LLM calls are out of scope here; text either
comes from files or from the seeded generators). Reports serialize with
sorted keys and no timestamps so identical runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ingest, sentiment, synthgen
from .embed import AGGREGATION_MODES, HashingEmbedder, daily_embeddings
from .harness import (HORIZONS, REGRESSION_TASKS, TASKS, LabelSeries, evaluate, make_labels,
                      mcnemar, moves)
from .ingest import AlignedDataset, FinancialSeries, TweetCorpus
from .models import financial_baseline, fit_columns, train_darnn
from .models.baselines import BASELINE_KINDS, BASELINE_TASKS, WEEK
from .models.columns import COLUMN_MODELS
from .models.darnn import AttentionRnn, DivergenceError


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # pickle rebuilds an exception from its args, here the message alone
        return type(self), (self.stage, self.cause)


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
        return ingest.load_series(spec["path"], column=spec["column"], name=spec["name"])
    rw = spec["random_walk"]
    return synthgen.gen_random_walk(
        n=rw["n"], sigma=rw["sigma"], v0=rw["v0"], seed=rw["seed"], name=rw["name"]
    )


def _load_text(spec: dict | None, series: FinancialSeries, horizon: int) -> TweetCorpus:
    if spec is None:
        return TweetCorpus()
    if "path" in spec:
        corpus = ingest.load_tweets(spec["path"], min_followers=spec["min_followers"])
        return ingest.preprocess(corpus)
    if "random_texts" in spec:
        opts = spec["random_texts"]
        cfg = synthgen.SynthConfig(seed=opts["seed"], per_day=opts["per_day"])
        return synthgen.gen_random_texts(cfg, series.dates)
    source = "synthetic_narratives" if "synthetic_narratives" in spec else "shuffled_narratives"
    opts = spec[source]
    cfg = synthgen.SynthConfig(seed=opts["seed"], alignment_p=opts["p"], per_day=opts["per_day"])
    corpus = synthgen.gen_synthetic_narratives(series, horizon, cfg)
    if source == "shuffled_narratives":
        corpus = synthgen.shuffle_dates(corpus, seed=opts["shuffle_seed"])
    return corpus


# -- feature stage --------------------------------------------------------


def _text_column(aligned: AlignedDataset, kind: str, emb_cfg: dict, read: np.ndarray) -> np.ndarray:
    """One text row per trading day, shape (days, width). Sentiment scores
    every day once; embeddings fill only the days in `read`."""
    if kind == "sentiment-window":
        return sentiment.daily_sentiment_column(aligned)[:, None]
    if kind == "none":
        return np.zeros((len(aligned), 0))
    embedder = HashingEmbedder(dimension=emb_cfg["dimension"], seed=emb_cfg["seed"])
    texts, followers = aligned.per_day("texts"), aligned.per_day("followers")
    vectors = daily_embeddings(embedder, [texts[i] for i in read], emb_cfg["mode"], emb_cfg["k"],
                               [followers[i] for i in read])
    column = np.zeros((len(aligned), vectors.shape[1]))
    column[read] = vectors
    return column


def _financial_column(aligned: AlignedDataset, kind: str) -> np.ndarray:
    """One financial row per trading day, shape (days, width)."""
    if kind == "value-window":
        return np.asarray(aligned.values, dtype=float)[:, None]
    if kind == "direction-window":  # 1.0 on a day the value rose to, 0.0 on day 0
        ups = np.asarray(moves(aligned.values, "direction-change")) == "increase"
        return np.concatenate([[0.0], ups])[:, None]
    return np.zeros((len(aligned), 0))


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
    """Feature rows for a `features` config section; absent keys take their
    SCHEMA defaults."""
    features_cfg = _section(features_cfg, "features")
    window, text_kind = features_cfg["window"], features_cfg["text"]
    if window < 1:
        raise ValueError("feature window must be >= 1")

    # day i's label is labels.values[i]: the labels cover the first days
    if labels.dates != aligned.dates[:len(labels.dates)]:
        raise ValueError("labels must cover the aligned days from the first one on")
    # a direction window of `window` moves needs the value before its first
    # day, and a baseline reads the WEEK + 1 values ending at its row's day
    start = max(window, WEEK)
    rows = np.arange(start, len(labels.dates), dtype=np.intp)
    if len(rows) < 2:
        raise ValueError("not enough usable dates to build features")

    t_steps = window if text_kind == "sentiment-window" else 1
    text = _text_column(aligned, text_kind, features_cfg["embedding"], rows)
    t_block, t_last = _windows(text, t_steps, rows)
    f_block, f_last = _windows(_financial_column(aligned, features_cfg["financial"]), window, rows)
    t_width, f_width = t_block.shape[1], f_block.shape[1]
    return FeatureMatrix(
        dates=aligned.dates[start:len(labels.dates)],
        X=np.concatenate([t_block, f_block], axis=1),
        labels=labels.values[start:],
        feature_max_dates=tuple(aligned.dates[i] for i in np.maximum(t_last, f_last)),
        t_columns=slice(0, t_width),
        f_columns=slice(t_width, t_width + f_width),
        t_steps=t_steps,
        window=window,
    )


def _input_columns(matrix: FeatureMatrix, inputs: str) -> np.ndarray:
    if inputs == "T":
        return matrix.X[:, matrix.t_columns]
    if inputs == "F":
        return matrix.X[:, matrix.f_columns]
    return matrix.X


# -- model stage ----------------------------------------------------------


def _baseline_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, aligned: AlignedDataset,
                    task: str) -> list:
    # the rows are consecutive aligned days, so the test rows follow the first one
    first = aligned.index_of(matrix.dates[n_train])
    rows = np.arange(first, first + len(matrix.dates) - n_train)
    weeks, _ = _windows(_financial_column(aligned, "value-window"), WEEK + 1, rows)
    return financial_baseline(model_cfg["kind"], task, weeks, matrix.labels[:n_train])


def _column_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, *_) -> list:
    X = _input_columns(matrix, model_cfg["inputs"])
    return fit_columns(model_cfg, X[:n_train], matrix.labels[:n_train]).predict(X[n_train:])


def _darnn_model(model_cfg: dict, matrix: FeatureMatrix, n_train: int, *_) -> list:
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
    labels = np.array(matrix.labels, dtype=float)
    label_mean = float(np.mean(labels[:n_train]))
    label_std = float(np.std(labels[:n_train])) or 1.0
    history = (f_block - label_mean) / label_std
    targets = (labels - label_mean) / label_std
    model = AttentionRnn.init(
        T=window, n=drivers.shape[2], m=model_cfg["m"], p=model_cfg["p"], seed=model_cfg["seed"]
    )
    trained = train_darnn(
        model,
        drivers[:n_train],
        history[:n_train],
        targets[:n_train],
        epochs=model_cfg["epochs"],
        learning_rate=model_cfg["lr"],
        seed=model_cfg["seed"],
        batch_size=model_cfg["batch_size"],
    )
    raw = trained.forward(drivers[n_train:], history[n_train:])
    with np.errstate(over="ignore", invalid="ignore"):
        # finite weights can still overflow the forward pass or the MSE
        scorable = np.isfinite(raw * raw).all()
    if not scorable:
        raise DivergenceError(
            f"model {model_cfg['name']!r} diverged: a prediction or its square is not finite"
        )
    return [float(v) * label_std + label_mean for v in raw]


# -- config ---------------------------------------------------------------


REQUIRED = object()  # the default of a key that every config must give

TEXT_FEATURES = ("none", "sentiment-window", "embedding")
FINANCIAL_FEATURES = ("value-window", "direction-window", "none")
INPUTS = ("TF", "T", "F")

# section ("" is the top level) -> key -> (type, default). A type is `int`,
# `float` (any number), `str`, `list`, `dict` (the section of that name) or a
# tuple of the values the key may take; none takes a bool, and a None default
# also takes null. A function default derives the value from the keys above
# it. A data spec maps each source to its own table, and the
# first source it names, in table order, picks the table. The run reads no
# other key, so any other key is a typo that would change nothing. Nothing
# reads the top-level `seed` either: it enters only config_hash, and each
# generator and model takes its own.
SCHEMA = {
    "": {"seed": (int, 0), "data": (dict, REQUIRED), "task": (dict, {}), "features": (dict, {}),
         "models": (list, []), "eval": (dict, {})},
    "data": {"series": (dict, REQUIRED), "text": (dict, None)},  # None: no text
    "data.series": {
        "path": {"path": (str, REQUIRED), "column": (str, "value"), "name": (str, None)},
        "random_walk": {"random_walk": (dict, REQUIRED)},
    },
    "data.series.random_walk": {"n": (int, REQUIRED), "sigma": (float, REQUIRED),
                                "v0": (float, 100.0), "seed": (int, 0), "name": (str, "SYNTH")},
    "data.text": {
        "path": {"path": (str, REQUIRED), "min_followers": (int, 0)},
        **{source: {source: (dict, REQUIRED)}
           for source in ("random_texts", "synthetic_narratives", "shuffled_narratives")},
    },
    "data.text.random_texts": {"seed": (int, 0), "per_day": (int, 3)},
    "data.text.synthetic_narratives": {"seed": (int, 0), "p": (float, 1.0), "per_day": (int, 3)},
    "data.text.shuffled_narratives": {"seed": (int, 0), "p": (float, 1.0), "per_day": (int, 3),
                                      "shuffle_seed": (int, lambda opts: opts["seed"] + 1)},
    # target None: the series name
    "task": {"target": (str, None), "kind": (TASKS, "direction-change"), "horizon": (HORIZONS, 1)},
    "features": {"window": (int, 7), "text": (TEXT_FEATURES, "none"),
                 "financial": (FINANCIAL_FEATURES, "value-window"), "embedding": (dict, {})},
    "features.embedding": {"dimension": (int, 16), "seed": (int, 0),
                           "mode": (AGGREGATION_MODES, "individual-mean"), "k": (int, 10)},
    "eval": {"train_fraction": (float, 0.8)},
}

# the keys of every model entry; name None: its baseline `kind`, else `<type>-<inputs>`
MODEL_KEYS = {"type": (str, REQUIRED), "name": (str, None)}
# model type -> (task kind it fits, None for either; fit-and-predict function,
# called as fn(model_cfg, matrix, n_train, aligned, task) and returning the
# predictions for the rows after the first n_train; the keys it reads besides
# MODEL_KEYS, in SCHEMA's form)
MODELS = {
    "baseline": (None, _baseline_model, {"kind": (BASELINE_KINDS, REQUIRED)}),
    **{kind: ("classification" if reg is None else "regression", _column_model,
              {"inputs": (INPUTS, "TF"), **({"lam": (float, lam)} if lam else {})})
       for kind, (reg, lam) in COLUMN_MODELS.items()},
    "darnn": ("regression", _darnn_model, {
        "inputs": (("TF",), "TF"), "m": (int, 32), "p": (int, 32), "seed": (int, 0),
        "epochs": (int, 100), "lr": (float, 1e-3), "batch_size": (int, 32),
    }),
}


def _value(key: str, value, kind, default, where: str, path: str):
    """One config value checked against its key's type; a section comes back
    resolved."""
    if value is None and default is None:
        return None
    if kind is dict:
        return _section(value, path)
    if kind is list:
        if not isinstance(value, list):
            raise ValueError(f"{key!r} must be a list, got {type(value).__name__}")
    elif isinstance(kind, tuple):
        _value(key, value, type(kind[0]), REQUIRED, where, path)  # the options' type first
        if value not in kind:
            raise ValueError(f"{key!r} in {where} must be one of "
                             f"{', '.join(map(repr, kind))}, got {value!r}")
    elif kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{key!r} in {where} must be a string, got {type(value).__name__}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key!r} in {where} must be a number, got {type(value).__name__}")
    elif kind is int and not isinstance(value, int):
        raise ValueError(f"{key!r} in {where} must be an integer, got {value!r}")
    return value


def _keys(node: dict, table: dict, where: str, section: str = "") -> dict:
    """`node`'s keys checked against `table`, with every absent one set to its default."""
    unknown = sorted(set(node) - set(table))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    resolved = {}
    for key, (kind, default) in table.items():
        value = node.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"{where} is missing the {key!r} key")
        path = f"{section}.{key}".lstrip(".")
        resolved[key] = (value(resolved) if callable(value)
                         else _value(key, value, kind, default, where, path))
    return resolved


def _section(node, section: str) -> dict:
    if not isinstance(node, dict):
        raise ValueError(f"config section {section!r} must be an object" if section
                         else "the top level must be an object")
    table = SCHEMA[section]
    if isinstance(next(iter(table.values())), dict):  # a data spec
        table = next((keys for source, keys in table.items() if source in node),
                     next(iter(table.values())))
    return _keys(node, table, f"section {section!r}" if section else "the top level", section)


def _model_name(entry: dict):
    """`entry`'s name; `entry` holds every model key that has a default."""
    if entry["name"]:
        return entry["name"]
    if entry["type"] == "baseline":
        return entry.get("kind")
    return f"{entry['type']}-{entry['inputs']}"


def resolve_config(config: dict) -> dict:
    """`config` checked against SCHEMA and MODELS and returned with every
    absent key set to its default and every model's `name` filled in. Ranges
    are left to the stages that own them."""
    resolved = _section(config, "")
    task = resolved["task"]["kind"]
    task_kind = "regression" if task in REGRESSION_TASKS else "classification"
    models = []
    for i, entry in enumerate(resolved["models"]):
        if not isinstance(entry, dict):
            raise ValueError(f"models[{i}] must be an object, got {type(entry).__name__}")
        kind = entry.get("type")
        if kind not in MODELS:
            raise ValueError(f"unknown model type {kind!r}")
        table = {**MODEL_KEYS, **MODELS[kind][2]}
        defaults = {key: default for key, (_, default) in table.items() if default is not REQUIRED}
        name = _model_name({**defaults, **entry}) or kind  # or kind: a baseline without one
        model = _keys(entry, table, f"model {name!r}")
        model["name"] = _model_name(model)
        fits = BASELINE_TASKS[model["kind"]] if kind == "baseline" else MODELS[kind][0]
        if fits not in (None, task_kind):
            what = f"{model['kind']!r} baselines" if kind == "baseline" else f"{kind} models"
            raise ValueError(f"{what} only fit {fits} tasks, not {task!r}")
        models.append(model)
    names = [model["name"] for model in models]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"duplicate model name {repeated[0]!r}: give each model its own 'name'")
    resolved["models"] = models
    return resolved


# -- runner ---------------------------------------------------------------


def load_data(config: dict) -> tuple[dict, FinancialSeries, TweetCorpus]:
    """`config` resolved at stage 'config', then its series and text loaded
    at stage 'ingest', before alignment: the one reader of a `data` section."""
    with _stage("config"):
        config = resolve_config(config)
    with _stage("ingest"):
        series = _load_series(config["data"]["series"])
        corpus = _load_text(config["data"]["text"], series, config["task"]["horizon"])
    return config, series, corpus


def align_data(config: dict) -> tuple[dict, AlignedDataset]:
    """`config` resolved and its data loaded and aligned, all as the run does."""
    config, series, corpus = load_data(config)
    with _stage("ingest"):
        return config, ingest.align(corpus, series)


def prepare(config: dict) -> tuple[dict, AlignedDataset, FeatureMatrix]:
    """`config` resolved, its data loaded and aligned, labelled and made into features."""
    config, aligned = align_data(config)
    task = config["task"]
    with _stage("features"):
        labels = make_labels(aligned, task["kind"], task["horizon"])
        matrix = build_features(aligned, labels, config["features"])
    return config, aligned, matrix


def run_experiment(config: dict, out_dir: str | Path | None = None) -> ExperimentReport:
    chash = config_hash(config)
    resolved, aligned, matrix = prepare(config)
    task, horizon, target = (resolved["task"][key] for key in ("kind", "horizon", "target"))

    with _stage("split"):
        n_rows = len(matrix.dates)
        n_train = ingest.train_size(n_rows, float(resolved["eval"]["train_fraction"]))

    model_rows: list[dict] = []
    predictions: dict[str, list] = {}
    correctness: dict[str, list[bool]] = {}
    test_labels = matrix.labels[n_train:]
    test_dates = matrix.dates[n_train:]

    for i, model_cfg in enumerate(resolved["models"]):
        name = model_cfg["name"]
        with _stage(f"model:{name}"):
            preds = MODELS[model_cfg["type"]][1](model_cfg, matrix, n_train, aligned, task)
            report = evaluate(preds, test_labels, task)
        # `inputs` as the entry gives it: null where it takes the default
        row = {"name": name, "type": model_cfg["type"], "inputs": config["models"][i].get("inputs")}
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
        task={"target": aligned.indicator if target is None else target, "kind": task,
              "horizon": horizon},
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

    ingest.write_json(out / "report.json", report.to_dict())

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

    ingest.write_csv(out / "predictions.csv", ["date", "model", "prediction", "label"],
                     ([d, name, p, l] for name in sorted(report.predictions)
                      for d, p, l in report.predictions[name]))

    artifacts = ["predictions.csv", "report.json", "report.md"]
    ingest.write_json(out / "manifest.json",
                      {"artifacts": artifacts, "config_hash": report.config_hash})
    return artifacts + ["manifest.json"]
