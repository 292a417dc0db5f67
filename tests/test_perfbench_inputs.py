"""The benchmark drives the library through calls no other test makes the
same way: its input generator builds corpora with SynthConfig and
shuffle_dates and writes them out through `records`, and its llm-replay
unit reads them back through `records` and `points` into an LlmClient.
Generating every workload's inputs and running one traced llm-replay unit
keeps those calls working."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_generates_and_llm_replay_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    for workload in inputs.WORKLOADS:
        (tmp_path / workload).mkdir()
        inputs.generate(workload, 1, tmp_path / workload)

    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", "llm-replay",
         "--work", str(tmp_path / "llm-replay"), "--seconds", "0", "--trace", "1"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["reasons"] == []
