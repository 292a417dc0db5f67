"""Rule-based financial baselines.

Seven deterministic rules: repeat or invert the previous observation,
majority votes over the previous week or the training labels, constant
up/down calls, and the training-mean for regression.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..harness import REGRESSION_TASKS, TASKS, moves

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
# the moves in a week: a baseline reads the WEEK + 1 values ending at its row's day
WEEK = 7
INVERSE = {"increase": "decrease", "decrease": "increase"}


def _votes(ups, voters: int) -> list:
    """'increase' where more than half of `voters` voted up. A vote is the move
    from half the voters to the up votes, so a tied vote is a flat move."""
    halves = np.full(len(ups), voters / 2)
    return [label for (label,) in moves(np.stack([halves, ups], axis=1), "direction-change")]


def financial_baseline(kind: str, task: str, weeks, train_labels: Sequence) -> list:
    """One rule's prediction per test row: floats for a regression task,
    'increase'/'decrease' otherwise. `weeks` holds each row's WEEK + 1 values
    ending at its day, oldest first: the last WEEK moves."""
    if kind not in BASELINE_TASKS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    fits = BASELINE_TASKS[kind]
    if fits not in (None, "regression" if task in REGRESSION_TASKS else "classification"):
        raise ValueError(f"{kind!r} baselines only fit {fits} tasks, not {task!r}")
    weeks = np.asarray(weeks, dtype=float)
    if weeks.ndim != 2 or weeks.shape[1] != WEEK + 1:
        raise ValueError(f"weeks must have shape (rows, {WEEK + 1}), got {weeks.shape}")
    rows = len(weeks)
    if kind == "train-mean":
        return [float(np.mean([float(v) for v in train_labels]))] * rows
    if kind in ("up", "down"):
        return ["increase" if kind == "up" else "decrease"] * rows
    if kind == "train-majority":
        return _votes([list(train_labels).count("increase")] * rows, len(train_labels))
    if kind == "week-majority":
        return _votes((np.asarray(moves(weeks, task)) == "increase").sum(axis=1), WEEK)
    # as-previous or inverse-previous: only the last move, so only its base must be nonzero
    last = [move for (move,) in moves(weeks[:, -2:], task)]
    return last if kind == "as-previous" else [INVERSE[move] for move in last]
