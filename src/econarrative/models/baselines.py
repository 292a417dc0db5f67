"""Rule-based financial baselines.

Seven deterministic rules: repeat or invert the previous observation,
majority votes over the previous week or the training labels, constant
up/down calls, and the training-mean for regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..harness import REGRESSION_TASKS

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


class MissingContextError(ValueError):
    """A baseline was asked for without the context element it needs."""


@dataclass(frozen=True)
class BaselineContext:
    """Everything a rule might consume; populate what the kind requires."""

    task: str = "direction-change"
    prev_value: float | None = None
    prev_direction: str | None = None
    week_directions: Sequence[str] | None = None
    train_majority: str | None = None
    train_mean: float | None = None


def _require(value, name: str):
    if value is None:
        raise MissingContextError(f"baseline needs context element {name!r}")
    return value


def _flip(direction: str) -> str:
    if direction == "increase":
        return "decrease"
    if direction == "decrease":
        return "increase"
    raise ValueError(f"unknown direction {direction!r}")


def _majority(directions: Sequence[str]) -> str:
    ups = sum(1 for d in directions if d == "increase")
    downs = len(directions) - ups
    # ties resolve to decrease, matching the labelling convention
    return "increase" if ups > downs else "decrease"


def financial_baseline(kind: str, context: BaselineContext):
    """Evaluate one baseline rule; returns a float or a direction string."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    regression = context.task in REGRESSION_TASKS
    if kind == "as-previous":
        if regression:
            return float(_require(context.prev_value, "prev_value"))
        return _require(context.prev_direction, "prev_direction")
    if kind == "inverse-previous":
        return _flip(_require(context.prev_direction, "prev_direction"))
    if kind == "week-majority":
        week = _require(context.week_directions, "week_directions")
        if not week:
            raise MissingContextError("week_directions is empty")
        return _majority(week)
    if kind == "train-majority":
        return _require(context.train_majority, "train_majority")
    if kind == "up":
        return "increase"
    if kind == "down":
        return "decrease"
    return float(_require(context.train_mean, "train_mean"))
