"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
name.  Without this guard, a renamed or deleted traced function shows only
in a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for module, function, _ in tracer.TRACED:
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if not callable(getattr(home, function, None)):
            missing.append(f"{module}.{function}")
    assert missing == []
