"""Command-line front end. Every subcommand is a thin adapter over the
library; all behavior is covered by library-level tests.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__, ingest, sentiment, synthgen
from .experiment import (FINANCIAL_FEATURES, MODELS, TEXT_FEATURES, config_hash, prepare,
                         run_experiment)
from .harness import TASKS, EntryError, evaluate
from .models import LinearModel, LogisticModel, Standardized, fit_columns, model_from_doc, model_to_doc
from .models.baselines import BASELINE_KINDS
from .models.columns import DEFAULT_LAM

logger = logging.getLogger("econarrative")


class UsageError(argparse.ArgumentTypeError):
    pass


def _setup_logging(out_dir: Path | None, verbosity: int) -> None:
    handlers: list[logging.Handler] = [logging.StreamHandler(sys.stderr)]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        handlers.append(logging.FileHandler(out_dir / "run.log", encoding="utf-8"))
    logging.basicConfig(
        level=logging.DEBUG if verbosity > 1 else (logging.INFO if verbosity else logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        handlers=handlers,
        force=True,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# -- subcommand implementations -------------------------------------------


def _cmd_ingest(args) -> int:
    out = Path(args.out)
    summary = {}
    if args.tweets:
        corpus = ingest.preprocess(ingest.load_tweets(args.tweets, min_followers=args.min_followers))
        ingest.write_tweets_jsonl(corpus, out / "tweets.jsonl")
        summary["tweets"] = {
            "records": len(corpus),
            "date_range": [d.isoformat() for d in corpus.date_range] if corpus.date_range else None,
        }
        logger.info("ingested %d tweets", len(corpus))
    if args.series:
        series = ingest.load_series(args.series, column=args.column, name=args.name)
        ingest.write_series_csv(series, out / "series.csv")
        summary["series"] = {
            "name": series.name,
            "points": len(series),
            "skipped_rows": series.skipped_rows,
        }
        logger.info("ingested %d series points", len(series))
    if not summary:
        raise UsageError("nothing to ingest: pass --tweets and/or --series")
    _write_json(out / "ingest.json", summary)
    return 0


def _cmd_features(args) -> int:
    out = Path(args.out)
    text = {"path": args.tweets, "min_followers": args.min_followers} if args.tweets else None
    _, matrix = prepare({
        "data": {"series": {"path": args.series, "column": args.column}, "text": text},
        "task": {"kind": args.task, "horizon": args.horizon},
        "features": {"text": args.kind, "financial": args.financial, "window": args.window},
    })
    with (out / "features.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        width = matrix.X.shape[1]
        writer.writerow(["date"] + [f"x{i}" for i in range(width)] + ["label"])
        for i, d in enumerate(matrix.dates):
            writer.writerow(
                [d.isoformat()] + [repr(float(v)) for v in matrix.X[i]] + [matrix.labels[i]]
            )
    logger.info("wrote %d feature rows", len(matrix.dates))
    return 0


def _load_features_csv(path: str):
    import numpy as np

    dates, rows, labels = [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"feature file {path} has no header row")
        for record in reader:
            where = f"feature file {path} line {reader.line_num}"
            if len(record) < len(header):  # a blank line is a record of no fields
                raise ValueError(f"{where}: no value for column {header[len(record)]!r}")
            if len(record) > len(header):
                raise ValueError(f"{where}: {len(record)} fields under {len(header)} column headers")
            row = []
            for column, cell in zip(header[1:-1], record[1:-1]):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ValueError(f"{where}: column {column!r} is {cell!r}, not a number") from None
            dates.append(record[0])
            rows.append(row)
            labels.append(record[-1])
    if not rows:
        raise ValueError(f"feature file {path} has no data rows")
    return dates, np.array(rows), labels


def _cmd_train(args) -> int:
    out = Path(args.out)
    dates, X, labels = _load_features_csv(args.features)
    model_cfg = {"type": args.model} if args.lam is None else {"type": args.model, "lam": args.lam}
    task = MODELS[args.model][0]
    _write_json(out / "model.json", model_to_doc(fit_columns(model_cfg, X, labels), task=task))
    logger.info("trained %s on %d rows", args.model, len(dates))
    return 0


def _cmd_predict(args) -> int:
    out = Path(args.out)
    model = model_from_doc(json.loads(Path(args.model).read_text("utf-8")))
    if isinstance(model, (LinearModel, LogisticModel)):  # schema 1: `train` fitted the raw columns
        model = Standardized(model)
    if not isinstance(model, Standardized):
        raise ValueError(f"predict applies logistic and linear models, not {type(model).__name__}")
    dates, X, _ = _load_features_csv(args.features)
    with (out / "predictions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "prediction"])
        writer.writerows(zip(dates, model.predict(X)))
    return 0


def _cmd_evaluate(args) -> int:
    predictions, labels, lines = [], [], []
    with open(args.predictions, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("prediction", "label"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{args.predictions} has no {column!r} column")
        for row in reader:
            predictions.append(row["prediction"])
            labels.append(row["label"])
            lines.append(reader.line_num)
    try:
        report = evaluate(predictions, labels, args.task)
    except EntryError as exc:
        raise ValueError(f"{args.predictions} line {lines[exc.index]}: {exc}") from None
    payload = report.to_dict()
    print(json.dumps(payload, sort_keys=True, indent=2))
    if args.out:
        _write_json(Path(args.out) / "metrics.json", payload)
    return 0


def _cmd_baseline(args) -> int:
    config = {
        "seed": 0,
        "data": {"series": {"path": args.series, "column": args.column}},
        "task": {"kind": args.task, "horizon": args.horizon},
        "features": {"text": "none", "financial": "value-window", "window": 7},
        "models": [{"name": args.kind, "type": "baseline", "kind": args.kind}],
        "eval": {"train_fraction": args.train_fraction},
    }
    report = run_experiment(config, out_dir=args.out)
    print(json.dumps(report.models[0], sort_keys=True, indent=2))
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if args.kind == "walk":
        series = synthgen.gen_random_walk(n=args.n, sigma=args.sigma, v0=args.v0, seed=args.seed)
        ingest.write_series_csv(series, out / "series.csv")
        logger.info("wrote %d-point walk", len(series))
        return 0
    cfg = synthgen.SynthConfig(seed=args.seed, alignment_p=args.p, per_day=args.per_day)
    if args.kind == "random-texts":
        if not args.series:
            raise UsageError("--series is required to know the date grid")
        series = ingest.load_series(args.series, column=args.column)
        corpus = synthgen.gen_random_texts(cfg, series.dates)
    elif args.kind == "narratives":
        if not args.series:
            raise UsageError("--series is required for aligned narratives")
        series = ingest.load_series(args.series, column=args.column)
        corpus = synthgen.gen_synthetic_narratives(series, args.horizon, cfg)
    else:  # shuffled
        if not args.tweets:
            raise UsageError("--tweets is required for shuffling")
        corpus = synthgen.shuffle_dates(ingest.load_tweets(args.tweets), seed=args.seed)
    ingest.write_tweets_jsonl(corpus, out / "tweets.jsonl")
    logger.info("wrote %d synthetic tweets", len(corpus))
    return 0


def _cmd_analyze(args) -> int:
    corpus = ingest.preprocess(ingest.load_tweets(args.tweets))
    out = Path(args.out)
    if args.what == "freq":
        timeline = sentiment.word_frequency_timeline(corpus, args.term, granularity=args.by)
        path = out / f"freq_{args.term}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["period", "count"])
            writer.writerows(timeline)
    else:
        histogram = sentiment.sentiment_histogram(corpus, args.bin)
        path = out / "sentiment_histogram.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_low", "bin_high", "count"])
            for (lo, hi), count in histogram.items():
                writer.writerow([repr(lo), repr(hi), count])
    logger.info("wrote %s", path.name)
    return 0


def _cmd_llm_analyze(args) -> int:
    from .narrative import LlmClient, LlmClientConfig, build_analysis_prompt

    corpus = ingest.preprocess(ingest.load_tweets(args.tweets))
    series = ingest.load_series(args.series, column=args.column, name=args.target)
    aligned = ingest.align(corpus, series)
    tweets_by_date = dict(zip(aligned.dates, map(list, aligned.tweets)))
    values_by_date = dict(zip(aligned.dates, aligned.values))
    prompt = build_analysis_prompt(tweets_by_date, values_by_date, target=args.target)
    client = LlmClient(
        LlmClientConfig(
            endpoint=args.endpoint,
            model=args.model,
            cache_dir=args.cache_dir or os.environ.get("NARRATIVE_CACHE_DIR"),
        )
    )
    try:
        analysis = client.request_analysis(prompt)
    finally:
        client.service.close()
    _write_json(
        Path(args.out) / "analysis.json",
        {
            "window": [analysis.window[0].isoformat(), analysis.window[1].isoformat()],
            "tweet_analysis": analysis.tweet_analysis,
            "impact_analysis": analysis.impact_analysis,
            "cache_key": analysis.cache_key,
        },
    )
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, not {args.jobs}")
    configs = [Path(p) for p in args.config]
    out_root = Path(args.out)
    stems = [p.stem for p in configs]
    shared = [stem for i, stem in enumerate(stems) if stem in stems[:i]]
    if shared:
        raise UsageError(f"configs named {shared[0]!r} would both write {out_root / shared[0]}")

    def run_one(path: Path) -> str:
        config = json.loads(path.read_text("utf-8"))
        target_dir = out_root / path.stem if len(configs) > 1 else out_root
        run_experiment(config, out_dir=target_dir)
        logger.info("experiment %s -> %s", path.name, target_dir)
        return config_hash(config)

    if args.jobs > 1 and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            hashes = list(pool.map(run_one, configs))
    else:
        hashes = [run_one(p) for p in configs]
    print(json.dumps({"configs": len(configs), "hashes": hashes}, sort_keys=True))
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econarrative",
        description="Narrative-signal forecasting harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("ingest", help="load and preprocess tweets and/or a series", parents=[verbose])
    p.add_argument("--tweets")
    p.add_argument("--series")
    p.add_argument("--column", default="value")
    p.add_argument("--name")
    p.add_argument("--min-followers", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", help="emit a per-date feature matrix", parents=[verbose])
    p.add_argument("--tweets")
    p.add_argument("--series", required=True)
    p.add_argument("--column", default="value")
    p.add_argument("--kind", default="sentiment-window", choices=TEXT_FEATURES)
    p.add_argument("--financial", default="value-window", choices=FINANCIAL_FEATURES)
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--task", default="direction-change", choices=TASKS)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--min-followers", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="fit a model on a feature CSV", parents=[verbose])
    p.add_argument("--features", required=True)
    p.add_argument("--model", default="logistic", choices=list(DEFAULT_LAM))
    p.add_argument("--lam", type=float, help="penalty weight (default: the experiment's)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to features", parents=[verbose])
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions CSV against labels", parents=[verbose])
    p.add_argument("--predictions", required=True, help="CSV with prediction,label columns")
    p.add_argument("--task", default="direction-change", choices=TASKS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baseline", help="run one rule baseline over a series", parents=[verbose])
    p.add_argument("--kind", required=True, choices=BASELINE_KINDS)
    p.add_argument("--series", required=True)
    p.add_argument("--column", default="value")
    p.add_argument("--task", default="direction-change", choices=TASKS)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("synth", help="generate synthetic corpora or series", parents=[verbose])
    p.add_argument("--kind", required=True, choices=["random-texts", "narratives", "shuffled", "walk"])
    p.add_argument("--series")
    p.add_argument("--column", default="value")
    p.add_argument("--tweets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--per-day", type=int, default=3)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--v0", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="corpus analyses (word frequency, sentiment histogram)")
    what = p.add_subparsers(dest="what", required=True)
    freq = what.add_parser("freq", help="term frequency timeline", parents=[verbose])
    freq.add_argument("--tweets", required=True)
    freq.add_argument("--term", required=True)
    freq.add_argument("--by", default="month", choices=["month", "day"])
    freq.add_argument("--out", required=True)
    freq.set_defaults(func=_cmd_analyze)
    hist = what.add_parser("sent-hist", help="sentiment score histogram", parents=[verbose])
    hist.add_argument("--tweets", required=True)
    hist.add_argument("--bin", type=float, default=0.5)
    hist.add_argument("--out", required=True)
    hist.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("llm-analyze", help="request a cached narrative analysis", parents=[verbose])
    p.add_argument("--tweets", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--column", default="value")
    p.add_argument("--target", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--cache-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_llm_analyze)

    p = sub.add_parser("experiment", help="run experiment config(s) end to end", parents=[verbose])
    p.add_argument("--config", action="append", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return 0 if exc.code in (0, None) else 1
    out_dir = Path(args.out) if getattr(args, "out", None) else None
    _setup_logging(out_dir, getattr(args, "verbose", 0))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
