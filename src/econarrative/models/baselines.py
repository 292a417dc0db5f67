"""Rule-based financial baselines.

Seven deterministic rules: repeat or invert the previous observation,
majority votes over the previous week or the training labels, constant
up/down calls, and the training-mean for regression.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..harness import REGRESSION_TASKS, TASKS

# baseline kind -> the task kind it predicts, None for either
BASELINE_TASKS = {
    "as-previous": None,
    "inverse-previous": "classification",
    "week-majority": "classification",
    "train-majority": "classification",
    "up": "classification",
    "down": "classification",
    "train-mean": "regression",
}
BASELINE_KINDS = tuple(BASELINE_TASKS)


def _direction(up) -> list:
    # a flat move or a tied vote is a decrease, matching the labelling convention
    return np.where(up, "increase", "decrease").tolist()


def financial_baseline(kind: str, task: str, weeks, train_labels: Sequence) -> list:
    """One rule's prediction per test row: floats for a regression task,
    'increase'/'decrease' otherwise. `weeks` holds each row's 8 values ending
    at its day, oldest first: the last 7 moves."""
    if kind not in BASELINE_TASKS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    fits = BASELINE_TASKS[kind]
    if fits not in (None, "regression" if task in REGRESSION_TASKS else "classification"):
        raise ValueError(f"{kind!r} baselines only fit {fits} tasks, not {task!r}")
    weeks = np.asarray(weeks, dtype=float)
    if weeks.ndim != 2 or weeks.shape[1] != 8:
        raise ValueError(f"weeks must have shape (rows, 8), got {weeks.shape}")
    rows = len(weeks)
    if kind == "train-mean":
        return [float(np.mean([float(v) for v in train_labels]))] * rows
    if kind == "train-majority":
        ups = sum(1 for v in train_labels if v == "increase")
        return _direction([2 * ups > len(train_labels)] * rows)
    if kind in ("up", "down"):
        return _direction([kind == "up"] * rows)
    last, before = weeks[:, -1], weeks[:, -2]
    if task == "next-value":  # as-previous
        return last.tolist()
    if task == "pct-change":  # as-previous
        if (before == 0).any():
            raise ZeroDivisionError("pct-change baseline: zero base value")
        return (100.0 * (last - before) / before).tolist()
    ups = weeks[:, 1:] > weeks[:, :-1]
    if kind == "week-majority":
        return _direction(2 * ups.sum(axis=1) > ups.shape[1])
    return _direction(ups[:, -1] if kind == "as-previous" else ~ups[:, -1])
