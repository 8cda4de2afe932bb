"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
name.  Without this guard, a renamed or deleted traced function shows only
in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["grid-n40", "ensemble-loo", "predict"])
def test_traced_pass_keeps_coverage(workload, monkeypatch, tmp_path):
    # each span must record calls on a workload unless the tracer expects
    # none there, so a refactor that routes around a wrapped function fails
    # here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    (inp,) = workloads.prepare(workload, 1, 1, tmp_path)
    traced = tracer.Tracer()
    traced.install()
    try:
        result = workloads.run_pass(workload, inp)
    finally:
        traced.uninstall()
    assert result.failed == 0, result.errors
    assert result.problems == []
    assert traced.coverage_failures(workload) == []
