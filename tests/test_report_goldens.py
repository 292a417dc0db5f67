"""Byte-identity gate: rule-baseline runs reproduce their committed reports.

Each config runs the rule baselines over `goldens/reports/series.csv`, a
90-day walk rounded to 0.1 so that 19 of its 89 moves are flat. Nothing in
these runs goes through a BLAS reduction, so the bytes are the same on any
machine. Every baseline kind runs on every task it fits at horizons 1 and 7,
and `up` and `week-majority` run once more over `direction-window` features,
whose `features.csv` is kept too.

To rewrite the goldens after a deliberate change of output, run
`PYTHONPATH=src python tests/test_report_goldens.py` from the repository root.
"""

import os
from pathlib import Path

import pytest

from econarrative.cli import main
from econarrative.experiment import run_experiment
from econarrative.harness import REGRESSION_TASKS, TASKS
from econarrative.models.baselines import BASELINE_KINDS, BASELINE_TASKS

REPORTS = Path(__file__).parent / "goldens" / "reports"
FILES = ("report.json", "report.md", "predictions.csv")
SERIES = {"path": "series.csv", "name": "GOLD"}  # read relative to REPORTS


def _kinds(task):
    wanted = "regression" if task in REGRESSION_TASKS else "classification"
    return [kind for kind in BASELINE_KINDS if BASELINE_TASKS[kind] in (None, wanted)]


CONFIGS = {
    f"{task}-h{horizon}": {
        "data": {"series": SERIES},
        "task": {"kind": task, "horizon": horizon},
        "models": [{"type": "baseline", "kind": kind} for kind in _kinds(task)],
    }
    for task in TASKS
    for horizon in (1, 7)
}
CONFIGS["direction-window"] = {
    "data": {"series": SERIES},
    "task": {"kind": "direction-change", "horizon": 1},
    "features": {"financial": "direction-window", "window": 10},
    "models": [{"type": "baseline", "kind": "up"}, {"type": "baseline", "kind": "week-majority"}],
}
FEATURES_ARGS = ["features", "--series", "series.csv", "--kind", "none",
                 "--financial", "direction-window", "--window", "10"]


def _write(name, out_dir):
    run_experiment(CONFIGS[name], out_dir=out_dir)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPORTS)
    _write(name, tmp_path)
    for file in FILES:
        assert (tmp_path / file).read_bytes() == (REPORTS / name / file).read_bytes(), file


def test_direction_window_features_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(REPORTS)
    assert main(FEATURES_ARGS + ["--out", str(tmp_path)]) == 0
    golden = REPORTS / "direction-window" / "features.csv"
    assert (tmp_path / "features.csv").read_bytes() == golden.read_bytes()


if __name__ == "__main__":
    os.chdir(REPORTS)
    for name in CONFIGS:
        _write(name, name)
        (Path(name) / "manifest.json").unlink()
    main(FEATURES_ARGS + ["--out", "direction-window"])
    Path("direction-window", "run.log").unlink()
