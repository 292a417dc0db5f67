"""Span recorder that wraps the library's public functions from outside.

Each layer is named after the module that defines it. Installing the
tracer replaces the function (or method) with a wrapper everywhere a
module of the package binds it, so calls made through ``from x import f``
names are seen too. A span is (id, parent id, name, start, end); parents
follow a per-thread stack. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _fit_linear_name(args, kwargs) -> str:
    reg = kwargs.get("reg", args[2] if len(args) > 2 else "none")
    return f"models.fit_linear.{reg}"


# (defining module, attribute path, span name or name function)
LAYERS = (
    ("econarrative.ingest", "load_tweets", "ingest.load_tweets"),
    ("econarrative.ingest", "preprocess", "ingest.preprocess"),
    ("econarrative.ingest", "load_series", "ingest.load_series"),
    ("econarrative.ingest", "align", "ingest.align"),
    ("econarrative.sentiment", "score", "sentiment.score"),
    ("econarrative.sentiment", "daily_sentiment", "sentiment.daily_sentiment"),
    ("econarrative.embed", "HashingEmbedder.embed", "embed.HashingEmbedder.embed"),
    ("econarrative.embed", "daily_embedding", "embed.daily_embedding"),
    ("econarrative.experiment", "build_features", "experiment.build_features"),
    ("econarrative.experiment", "run_experiment", "experiment.run_experiment"),
    ("econarrative.experiment", "write_report", "experiment.write_report"),
    ("econarrative.harness", "make_labels", "harness.make_labels"),
    ("econarrative.harness", "evaluate", "harness.evaluate"),
    ("econarrative.harness", "mcnemar", "harness.mcnemar"),
    ("econarrative.models.logistic", "fit_logistic", "models.fit_logistic"),
    ("econarrative.models.linear", "fit_linear", _fit_linear_name),
    ("econarrative.models.darnn", "train_darnn", "models.train_darnn"),
    ("econarrative.models.darnn", "AttentionRnn.loss_and_grads", "models.darnn.loss_and_grads"),
    ("econarrative.models.darnn", "AttentionRnn.forward", "models.darnn.forward"),
    ("econarrative.models.baselines", "financial_baseline", "models.financial_baseline"),
    ("econarrative.narrative", "build_analysis_prompt", "narrative.build_analysis_prompt"),
    ("econarrative.narrative", "LlmClient.complete", "narrative.LlmClient.complete"),
    ("econarrative.narrative", "parse_analysis", "narrative.parse_analysis"),
)

SPAN_NAMES = tuple(
    name for _, _, name in LAYERS if isinstance(name, str)
) + tuple(f"models.fit_linear.{reg}" for reg in ("none", "l2", "l1"))


class Tracer:
    def __init__(self, observers: dict | None = None) -> None:
        # observers: span name -> fn(args, kwargs, result), run after the span ends
        self.observers = observers or {}
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        spans, ids, stack_of, observers = self.spans, self._ids, self._stack, self.observers

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, label, start, end))
            observe = observers.get(label)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer; return the layers the package no longer has."""
        missing = []
        package = [m for n, m in list(sys.modules.items()) if n.startswith("econarrative")]
        for module_name, path, name in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(path)
                continue
            wrapper = self._wrap(original, name)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return missing

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds). Children run on the parent's
        thread and inside its interval, so self time is duration minus the
        children's durations."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(sid, 0.0)
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        """Write the spans as columns, with times relative to the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, index[name], round(start - t0, 7), round(end - t0, 7)]
                for sid, parent, name, start, end in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
