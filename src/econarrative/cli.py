"""Command-line front end. Every subcommand is a thin adapter over the
library; all behavior is covered by library-level tests.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from . import __version__, ingest, sentiment
from .experiment import align_data, load_data, prepare, run_experiment
from .harness import TASKS, EntryError, evaluate
from .models import Standardized, fit_columns, model_from_doc, model_to_doc
from .models.columns import COLUMN_MODELS

logger = logging.getLogger("econarrative")


class UsageError(argparse.ArgumentTypeError):
    pass


def _setup_logging(out_dir: Path | None, verbosity: int) -> None:
    stderr = logging.StreamHandler(sys.stderr)
    stderr.addFilter(lambda record: not hasattr(record, "printed"))  # main prints those itself
    handlers: list[logging.Handler] = [stderr]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        handlers.append(logging.FileHandler(out_dir / "run.log", encoding="utf-8"))
    logging.basicConfig(
        level=logging.DEBUG if verbosity > 1 else (logging.INFO if verbosity else logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        handlers=handlers,
        force=True,
    )


@contextmanager
def _naming(where, lines=()):
    """Start every error raised in the block with `where`, the input file;
    main reports it. An EntryError also names its line, `lines[exc.index]`."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, EntryError) and lines:
            raise ValueError(f"{where} line {lines[exc.index]}: {exc}") from None
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{where}: {detail}") from exc


def _on_config(path: Path, action):
    """`action(config)` on the JSON config at `path`."""
    with _naming(path):
        return action(json.loads(path.read_text("utf-8")))


# -- subcommand implementations -------------------------------------------


def _cmd_ingest(args) -> int:
    out = Path(args.out)
    config, series, corpus = _on_config(Path(args.config), load_data)
    ingest.write_series_csv(series, out / "series.csv")
    summary = {
        "series": {"name": series.name, "points": len(series), "skipped_rows": series.skipped_rows},
    }
    logger.info("ingested %d series points", len(series))
    if config["data"]["text"] is not None:
        ingest.write_tweets_jsonl(corpus, out / "tweets.jsonl")
        summary["tweets"] = {
            "records": len(corpus),
            "date_range": [d.isoformat() for d in corpus.date_range] if corpus.date_range else None,
        }
        logger.info("ingested %d tweets", len(corpus))
    ingest.write_json(out / "ingest.json", summary)
    return 0


def _cmd_features(args) -> int:
    out = Path(args.out)
    _, _, matrix = _on_config(Path(args.config), prepare)
    ingest.write_csv(out / "features.csv",
                     ["date"] + [f"x{i}" for i in range(matrix.X.shape[1])] + ["label"],
                     ([d.isoformat()] + [repr(float(v)) for v in row] + [label]
                      for d, row, label in zip(matrix.dates, matrix.X, matrix.labels)))
    logger.info("wrote %d feature rows", len(matrix.dates))
    return 0


def _load_features_csv(path: str):
    import numpy as np

    try:
        header, records = ingest.read_csv(path)
    except ingest.IngestError as exc:  # its message starts with the path
        raise ValueError(f"feature file {exc}") from None
    rows = []
    for line, record in records:
        where = f"feature file {path} line {line}"
        row = []
        for column, cell in zip(header[1:-1], record[1:-1]):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{where}: column {column!r} is {cell!r}, not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: column {column!r} is {cell!r}, not a finite number")
            row.append(value)
        rows.append(row)
    if not rows:
        raise ValueError(f"feature file {path} has no data rows")
    dates = [record[0] for _, record in records]
    labels = [record[-1] for _, record in records]
    return dates, np.array(rows), labels, [line for line, _ in records]


def _cmd_train(args) -> int:
    out = Path(args.out)
    dates, X, labels, lines = _load_features_csv(args.features)
    model_cfg = {"type": args.model} if args.lam is None else {"type": args.model, "lam": args.lam}
    with _naming(f"feature file {args.features}", lines):
        model = fit_columns(model_cfg, X, labels)
    ingest.write_json(out / "model.json", model_to_doc(model))
    logger.info("trained %s on %d rows", args.model, len(dates))
    return 0


def _cmd_predict(args) -> int:
    out = Path(args.out)
    with _naming(args.model):
        model = model_from_doc(json.loads(Path(args.model).read_text("utf-8")))
        if not isinstance(model, Standardized):
            raise ValueError(f"predict applies logistic and linear models, not {type(model).__name__}")
    dates, X, _, _ = _load_features_csv(args.features)
    ingest.write_csv(out / "predictions.csv", ["date", "prediction"], zip(dates, model.predict(X)))
    return 0


def _cmd_evaluate(args) -> int:
    header, records = ingest.read_csv(args.predictions)
    for column in ("prediction", "label"):
        if column not in header:
            raise ValueError(f"{args.predictions} has no {column!r} column")
    at_prediction, at_label = header.index("prediction"), header.index("label")
    predictions = [fields[at_prediction] for _, fields in records]
    labels = [fields[at_label] for _, fields in records]
    with _naming(args.predictions, [line for line, _ in records]):
        report = evaluate(predictions, labels, args.task)
    payload = report.to_dict()
    sys.stdout.write(ingest.json_text(payload))
    if args.out:
        ingest.write_json(Path(args.out) / "metrics.json", payload)
    return 0


def _cmd_analyze(args) -> int:
    corpus = ingest.preprocess(ingest.load_tweets(args.tweets))
    out = Path(args.out)
    if args.what == "freq":
        timeline = sentiment.word_frequency_timeline(corpus, args.term, granularity=args.by)
        path = out / f"freq_{args.term}.csv"
        ingest.write_csv(path, ["period", "count"], timeline)
    else:
        histogram = sentiment.sentiment_histogram(corpus, args.bin)
        path = out / "sentiment_histogram.csv"
        ingest.write_csv(path, ["bin_low", "bin_high", "count"],
                         ([repr(lo), repr(hi), count] for (lo, hi), count in histogram.items()))
    logger.info("wrote %s", path.name)
    return 0


def _cmd_llm_analyze(args) -> int:
    from .narrative import LlmClient, LlmClientConfig, build_analysis_prompt

    def config_prompt(config):
        config, aligned = align_data(config)
        tweets_by_date = dict(zip(aligned.dates, map(list, aligned.tweets)))
        values_by_date = dict(zip(aligned.dates, aligned.values))
        target = config["task"]["target"]
        return build_analysis_prompt(tweets_by_date, values_by_date,
                                     target=aligned.indicator if target is None else target)

    prompt = _on_config(Path(args.config), config_prompt)
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
    ingest.write_json(
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
        target_dir = out_root / path.stem if len(configs) > 1 else out_root
        report = _on_config(path, lambda config: run_experiment(config, out_dir=target_dir))
        logger.info("experiment %s -> %s", path.name, target_dir)
        return report.config_hash

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

    for name, func, what in (
            ("ingest", _cmd_ingest, "load an experiment config's series and text"),
            ("features", _cmd_features, "emit an experiment config's feature matrix")):
        p = sub.add_parser(name, help=what, parents=[verbose])
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("train", help="fit a model on a feature CSV", parents=[verbose])
    p.add_argument("--features", required=True)
    p.add_argument("--model", default="logistic", choices=list(COLUMN_MODELS))
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
    p.add_argument("--config", required=True)
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
        logger.error("%s", exc, extra={"printed": True})  # for run.log
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
