"""The benchmark's workloads: inputs made from a seed, one timed pass
through ``ucp_locality.cli.main`` and the checks on that pass's outputs.

Every pass runs in this process and thread.  The program sees only the
CSV files written here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ucp_locality import cli
from ucp_locality.dataset import generate_synthetic, save_dataset
from ucp_locality.preprocess import zscore_outliers

# (projects written, projects the z-score screen removes): every seeded
# input set keeps the same size after screening, so a seed changes the
# values but not the amount of work that size sets
GRID_SIZE = (40, 1)
LOO_SIZE = (50, 2)
# predict trains on the paper-size synthetic set (seed 42, 110 projects)
PAPER_SEED, PAPER_N = 42, 110
NEW_N = 100
MAX_DRAWS = 1000

FACTOR_SCHEMES = tuple(f"e{i}" for i in range(1, 9))
LEARNERS = ("svr", "stepwise", "cart", "ensemble")
GRID_RUNS = (tuple((s, m) for s in FACTOR_SCHEMES + ("kmeans",) for m in LEARNERS)
             + tuple(("none", m) for m in LEARNERS + ("karner", "sw")))
LOO_RUNS = (("none", "ensemble"),)
PREDICT_SCHEMES = FACTOR_SCHEMES + ("kmeans",)
PREDICT_PDR_FLOOR = 0.01
METRIC_TOL = 1e-12

# Nominal seconds of one pass on a 2-core x86 box.  A run makes
# round(seconds / nominal) passes (at least one), so the amount of work is
# fixed by --seconds and does not depend on the machine's speed.
PASS_SECONDS = {"grid-n40": 24.0, "ensemble-loo": 10.0, "predict": 15.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def derived_seed(seed: int, tag) -> int:
    """Input seed for one part of a run; string seeding of `random` is
    stable across Python versions."""
    return random.Random(f"{seed}/{tag}").getrandbits(32)


@dataclass
class PassInput:
    """Files and facts one pass needs; `projects` are the new projects a
    predict pass asks about."""

    csv_path: Path
    out_dir: Path
    n_before: int
    n_after: int
    projects: tuple = ()


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    mbre_values: list[float] = field(default_factory=list)
    fit_ms: list[float] = field(default_factory=list)
    artifact_ms: list[float] = field(default_factory=list)
    artifact_bytes: int = 0


def _write_set(seed: int, size: tuple[int, int], path: Path):
    """Write the first synthetic set drawn from (seed, draw) whose outlier
    screen removes exactly the given number of projects."""
    n, removed = size
    for draw in range(MAX_DRAWS):
        dataset = generate_synthetic(derived_seed(seed, draw), n)
        if sum(zscore_outliers(dataset).flagged) == removed:
            save_dataset(dataset, path)
            return n, n - removed
    raise RuntimeError(f"no draw of {n} projects has exactly {removed} outliers")


def prepare(workload: str, seed: int, passes: int, tmp: Path) -> list[PassInput]:
    """Write every pass's input CSV under `tmp`."""
    inputs = []
    if workload == "predict":
        train = tmp / "train.csv"
        paper = generate_synthetic(PAPER_SEED, PAPER_N)
        save_dataset(paper, train)
        n_before = PAPER_N
        n_after = PAPER_N - sum(zscore_outliers(paper).flagged)
    for p in range(passes):
        pass_dir = tmp / f"pass{p}"
        pass_dir.mkdir()
        if workload == "predict":
            new = generate_synthetic(derived_seed(seed, p), NEW_N, name="new")
            inputs.append(PassInput(train, pass_dir, n_before, n_after,
                                    tuple(new)))
        else:
            size = GRID_SIZE if workload == "grid-n40" else LOO_SIZE
            path = pass_dir / "data.csv"
            inputs.append(PassInput(path, pass_dir / "out",
                                    *_write_set(derived_seed(seed, p), size, path)))
    return inputs


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: str, inp: PassInput) -> PassResult:
    if workload == "predict":
        return _predict_pass(inp)
    argv = ["benchmark", "--data", str(inp.csv_path), "--out", str(inp.out_dir),
            "--format", "csv"]
    runs = GRID_RUNS
    if workload == "ensemble-loo":
        argv += ["--scheme", "none", "--model", "ensemble"]
        runs = LOO_RUNS
    start = time.perf_counter()
    code, _, err = call_cli(argv)
    wall = time.perf_counter() - start
    attempted = len(runs) * inp.n_after
    if code != 0:
        return PassResult(wall, attempted, attempted, "", errors=[err.strip()])
    result = check_benchmark_outputs(inp.out_dir, runs, inp.n_after)
    result.wall_s = wall
    result.attempted = attempted
    return result


# -- benchmark output checks ------------------------------------------

def _metrics_from_trace(rows) -> tuple[float, float, float]:
    a = np.array([float(r["effort_actual"]) for r in rows])
    e = np.array([float(r["effort_pred"]) for r in rows])
    err = np.abs(a - e)
    return (float(np.mean(err)), float(np.mean(err / np.minimum(a, e))),
            float(np.mean(err / np.maximum(a, e))))


def _table_metrics(out: Path) -> dict[tuple[str, str], tuple[float, ...]]:
    cells = {}
    table4 = out / "table4.csv"
    if table4.exists():
        with open(table4, newline="") as fh:
            for row in csv.DictReader(fh):
                for model in LEARNERS:
                    if f"{model}_mae" in row:
                        cells[(row["scheme"], model)] = tuple(
                            float(row[f"{model}_{m}"]) for m in ("mae", "mbre", "mibre"))
    table5 = out / "table5.csv"
    if table5.exists():
        with open(table5, newline="") as fh:
            for row in csv.DictReader(fh):
                cells[("none", row["model"])] = tuple(
                    float(row[m]) for m in ("mae", "mbre", "mibre"))
    return cells


def output_digest(out: Path) -> str:
    """Digest of table4/table5, the fold traces and run.json."""
    h = hashlib.blake2b(digest_size=16)
    files = [out / "table4.csv", out / "table5.csv", out / "run.json"]
    files += sorted((out / "traces").glob("*.csv"))
    for path in files:
        if path.exists():
            h.update(str(path.relative_to(out)).encode() + b"\x00")
            h.update(path.read_bytes() + b"\x00")
    return h.hexdigest()


def check_benchmark_outputs(out: Path, runs, n_folds: int) -> PassResult:
    """Count the folds whose outputs fail a check; a failed check on a
    table value fails every fold of that cell."""
    result = PassResult(0.0, 0, 0, output_digest(out))
    run_info = json.loads((out / "run.json").read_text())
    floor = run_info["settings"]["pdr_floor"]
    recorded = [tuple(r) for r in run_info["runs"]]
    if sorted(recorded) != sorted(runs):
        result.problems.append(f"run.json lists {len(recorded)} runs, "
                               f"expected {len(runs)}")
    tables = _table_metrics(out)
    for scheme, model in runs:
        trace = out / "traces" / f"{scheme}_{model}.csv"
        if (scheme, model) not in tables or not trace.exists():
            result.problems.append(f"{scheme}/{model}: missing table cell or trace")
            result.failed += n_folds
            continue
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        recomputed = _metrics_from_trace(rows)
        table = tables[(scheme, model)]
        if len(rows) != n_folds or not all(
                math.isclose(t, r, rel_tol=METRIC_TOL, abs_tol=0.0)
                for t, r in zip(table, recomputed)):
            result.problems.append(
                f"{scheme}/{model}: table {table} != trace {recomputed} "
                f"over {len(rows)} folds")
            result.failed += n_folds
            continue
        bad = [r["fold"] for r in rows
               if not (math.isfinite(float(r["pdr_pred"]))
                       and float(r["pdr_pred"]) >= floor)]
        if bad:
            result.problems.append(f"{scheme}/{model}: pdr_pred below the "
                                   f"floor or not finite in folds {bad}")
            result.failed += len(bad)
        if model in LEARNERS:
            result.mbre_values.append(table[1])
    return result


# -- predict ----------------------------------------------------------

def _project_args(p) -> list[str]:
    return ["--uaw", repr(p.uaw), "--uucw", repr(p.uucw), "--tcf", repr(p.tcf),
            "--ef", repr(p.ef), "--env", ",".join(str(e) for e in p.env)]


def _field(stdout: str, name: str) -> float:
    """The float printed on the `name: value` line; nan when absent or
    unreadable, which fails the checks below."""
    for line in stdout.splitlines():
        if line.startswith(name + ": "):
            try:
                return float(line[len(name) + 2:])
            except ValueError:
                break
    return math.nan


def _predict_pass(inp: PassInput) -> PassResult:
    """Closed loop, one client: per new project, fit on the fly and save
    the artifact, then predict the same project from the artifact."""
    result = PassResult(0.0, 0, 0, "")
    digest = hashlib.blake2b(digest_size=16)
    artifact = inp.out_dir / "model.json"
    start = time.perf_counter()
    for i, project in enumerate(inp.projects):
        args = _project_args(project)
        scheme = PREDICT_SCHEMES[i % len(PREDICT_SCHEMES)]
        result.attempted += 1
        t0 = time.perf_counter()
        code, out, err = call_cli(
            ["predict", "--data", str(inp.csv_path), "--scheme", scheme,
             "--model", "ensemble", "--save-model", str(artifact)] + args)
        result.fit_ms.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            result.failed += 1
            result.errors.append(f"{project.id} {scheme}: {err.strip()}")
            continue
        saved = artifact.read_bytes()
        result.artifact_bytes += len(saved)
        digest.update(out.encode() + saved)
        pdr, effort = _field(out, "pdr"), _field(out, "effort")
        if not (math.isfinite(effort) and pdr >= PREDICT_PDR_FLOOR):
            result.problems.append(f"{project.id} {scheme}: pdr {pdr!r}, "
                                   f"effort {effort!r}")
            result.failed += 1
            continue
        result.mbre_values.append(
            abs(project.effort - effort) / min(project.effort, effort))

        result.attempted += 1
        t0 = time.perf_counter()
        code, out, err = call_cli(["predict", "--model-file", str(artifact)] + args)
        result.artifact_ms.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            result.failed += 1
            result.errors.append(f"{project.id} {scheme} artifact: {err.strip()}")
            continue
        digest.update(out.encode())
        artifact_pdr = _field(out, "pdr")
        if artifact_pdr != pdr:
            result.problems.append(f"{project.id} {scheme}: artifact pdr "
                                   f"{artifact_pdr!r} != fit pdr {pdr!r}")
            result.failed += 1
    result.wall_s = time.perf_counter() - start
    result.digest = digest.hexdigest()
    return result
