"""Prediction tasks, labels, metrics and paired significance testing.

Three tasks over a horizon h (in trading steps): the raw value at t+h,
the percentage change between t+h and t+h-1, and the direction of that
change. `moves` is the only code that labels a move; a flat move is a
"decrease", so the binary convention is total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .ingest import AlignedDataset, FinancialSeries

TASKS = ("next-value", "pct-change", "direction-change")
REGRESSION_TASKS = ("next-value", "pct-change")
DIRECTIONS = ("increase", "decrease")  # the labels of a direction-change task
HORIZONS = (1, 7, 30)

# discordant-pair count below which the exact binomial test is used
MCNEMAR_EXACT_LIMIT = 25


@dataclass(frozen=True)
class LabelSeries:
    dates: tuple[date, ...]
    values: tuple


class ZeroBaseError(ZeroDivisionError):
    """A pct-change move from a zero value; `index` locates that value."""

    def __init__(self, index: tuple) -> None:
        super().__init__(f"zero base value at values{list(index)}")
        self.index = index


def moves(values, task: str) -> list:
    """The one rule that labels a move: each pair of consecutive values along
    the last axis gives the later value, the percentage change or its
    direction, as plain floats or strings. A flat move is a decrease."""
    v = np.asarray(values, dtype=float)
    before, ahead = v[..., :-1], v[..., 1:]
    if task == "direction-change":
        return np.where(ahead > before, *DIRECTIONS).tolist()
    if task == "pct-change":
        zero = np.argwhere(before == 0)
        if len(zero):
            raise ZeroBaseError(tuple(zero[0].tolist()))
        with np.errstate(over="ignore"):  # beyond float range is inf, as in float arithmetic
            ahead = 100.0 * (ahead - before) / before
    elif task != "next-value":
        raise ValueError(f"unknown task {task!r}")
    return ahead.tolist()


def make_labels(series: FinancialSeries | AlignedDataset, task: str, horizon: int) -> LabelSeries:
    """Label each date t from the values at t+h and t+h-1.

    Reads only the `dates` and `values` columns. Dates whose horizon falls
    past the end of the series are omitted.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    dates, values = series.dates, series.values
    n = len(values)
    if n <= horizon:
        raise ValueError(f"series of length {n} cannot support horizon {horizon}")
    try:
        labels = moves(values[horizon - 1:], task)
    except ZeroBaseError as exc:
        raise ZeroDivisionError(f"zero base value at {dates[horizon - 1 + exc.index[0]]}") from None
    return LabelSeries(dates=tuple(dates[:n - horizon]), values=tuple(labels))


@dataclass(frozen=True)
class MetricsReport:
    task: str
    n: int
    mse: float | None = None
    accuracy: float | None = None
    f1: float | None = None

    def to_dict(self) -> dict:
        out = {"task": self.task, "n": self.n}
        if self.mse is not None:
            out["mse"] = self.mse
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
            out["f1"] = self.f1
        return out


class EntryError(ValueError):
    """A prediction or label `evaluate` cannot score; `index` is its position."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def _number(what: str, i: int, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise EntryError(f"{what} {i} is {value!r}, not a number", i) from None
    except OverflowError:
        raise EntryError(f"{what} {i} is beyond float range", i) from None


def evaluate(predictions: Sequence, labels: Sequence, task: str) -> MetricsReport:
    """MSE for regression; accuracy and increase-positive F1 for classification.

    A regression entry that is not a number, a squared error beyond float
    range, or a classification entry that is not "increase" or "decrease" is
    an EntryError naming the entry's index and value.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("nothing to evaluate")
    pairs = tuple(zip(predictions, labels))
    if task in REGRESSION_TASKS:
        squares = []
        for i, (p, y) in enumerate(pairs):
            p, y = _number("prediction", i, p), _number("label", i, y)
            try:
                squares.append((p - y) ** 2)
            except OverflowError:
                raise EntryError(f"prediction {i} is {p!r}: its squared error overflows", i) from None
        mse = sum(squares) / len(pairs)
        return MetricsReport(task=task, n=len(pairs), mse=mse)
    for i, pair in enumerate(pairs):
        for what, value in zip(("prediction", "label"), pair):
            if value not in DIRECTIONS:
                raise EntryError(f"{what} {i} is {value!r}, not 'increase' or 'decrease'", i)
    correct = sum(1 for p, y in pairs if p == y)
    tp = sum(1 for p, y in pairs if p == "increase" and y == "increase")
    fp = sum(1 for p, y in pairs if p == "increase" and y == "decrease")
    fn = sum(1 for p, y in pairs if p == "decrease" and y == "increase")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(task=task, n=len(pairs), accuracy=correct / len(pairs), f1=f1)


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    p_value: float
    method: str


def mcnemar(a_correct: Sequence, b_correct: Sequence) -> McNemarResult:
    """Paired test on two models' per-sample correctness vectors.

    b counts samples only model A got right, c samples only model B got
    right. Small discordant counts use the exact two-sided binomial
    test; otherwise the chi-square statistic with continuity correction.
    """
    if len(a_correct) != len(b_correct):
        raise ValueError("correctness vectors differ in length")
    b = sum(1 for x, y in zip(a_correct, b_correct) if x and not y)
    c = sum(1 for x, y in zip(a_correct, b_correct) if not x and y)
    n = b + c
    if n < MCNEMAR_EXACT_LIMIT:
        if n == 0:
            return McNemarResult(b=b, c=c, p_value=1.0, method="exact")
        k = min(b, c)
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
        return McNemarResult(b=b, c=c, p_value=min(1.0, 2.0 * tail), method="exact")
    statistic = (abs(b - c) - 1.0) ** 2 / n
    p = math.erfc(math.sqrt(statistic / 2.0))  # chi-square(1) survival
    return McNemarResult(b=b, c=c, p_value=p, method="chi-square-corrected")
