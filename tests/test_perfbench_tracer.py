"""The benchmark's traced run wraps library functions by their names. A
renamed or deleted layer would make that run record a failure, so every
name it lists must still resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
