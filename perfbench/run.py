#!/usr/bin/env python3
"""Benchmark of the ucp-locality package.

    python3 perfbench/run.py --workload grid-n40 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):

  grid-n40      `ucp-locality benchmark` over all 42 cells, n=40
  ensemble-loo  `ucp-locality benchmark --scheme none --model ensemble`, n=50
  predict       fit-on-the-fly `predict --model ensemble` requests against a
                110-project training set, each followed by `--model-file`

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
makes one untraced and one traced pass over the same inputs and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat every
metric by name, unit and sample count.  A result file (with provenance) and,
for traced runs, a span file go to .perfbench_out/.  Temporary inputs and
outputs live under .perfbench_tmp/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import os
import sys

# before numpy is imported: one BLAS thread keeps runs single-threaded
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOADS = ("grid-n40", "ensemble-loo", "predict")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only and print the seconds")
    return p.parse_args(argv)


def setup(args):
    """Import the package and write the inputs; returns (seconds, temp
    dir, pass inputs)."""
    start = time.perf_counter()
    import workloads
    passes = 1 if args.trace else workloads.pass_count(args.workload, args.seconds)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    inputs = workloads.prepare(args.workload, args.seed, passes, tmp)
    return time.perf_counter() - start, tmp, inputs


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes (imports included); the in-process
    set-up already compiled the bytecode they load."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def provenance(args, inputs) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(inputs),
        "inputs": [{"n_before_outliers": i.n_before,
                    "n_after_outliers": i.n_after,
                    "new_projects": len(i.projects)} for i in inputs],
    }


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside
    a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def summary_lines(metrics: dict, counts: dict) -> list[str]:
    """One line per metric; metrics with no samples on this workload (the
    predict latencies elsewhere) are left out."""
    lines = []
    for name, m in metrics.items():
        n = counts.get(name)
        if n == 0:
            continue
        suffix = f"  (n={n})" if n is not None else ""
        lines.append(f"{name:42s} {m['value']:>14.6g} {m['unit']}{suffix}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ucp_locality" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    setup_inproc, tmp, inputs = setup(args)
    try:
        if args.setup_probe:
            print(repr(setup_inproc))
            return 0
        return measure(args, inputs, setup_inproc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_pass(workload: str, inp, tracer):
    """Run the pass again on the same inputs with the wrappers installed;
    the outputs must come out the same."""
    import workloads
    shutil.rmtree(inp.out_dir, ignore_errors=True)
    inp.out_dir.mkdir(parents=True, exist_ok=True)
    tracer.install()
    try:
        return workloads.run_pass(workload, inp)
    finally:
        tracer.uninstall()


def measure(args, inputs, setup_inproc: float) -> int:
    import tracer as tracing
    import workloads

    setups = [] if args.trace else setup_samples(args)
    results = [workloads.run_pass(args.workload, inp) for inp in inputs]
    traced = None
    problems = [p for r in results for p in r.problems]
    if args.trace:
        tracer = tracing.Tracer()
        traced = traced_pass(args.workload, inputs[0], tracer)
        problems += [f"traced: {p}" for p in traced.problems]
        problems += [f"coverage: {f}" for f in tracer.coverage_failures(args.workload)]
        if traced.digest != results[0].digest:
            problems.append(f"traced digest {traced.digest} != untraced "
                            f"{results[0].digest}")

    measured = results + ([traced] if traced else [])
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    walls = [r.wall_s for r in results]
    fit_ms = [v for r in results for v in r.fit_ms]
    artifact_ms = [v for r in results for v in r.artifact_ms]
    mbre_values = [v for r in results for v in r.mbre_values]
    counts = {"wall_s": len(walls), "setup_s": len(setups),
              "predict_p50_ms": len(fit_ms), "predict_p90_ms": len(fit_ms),
              "artifact_p50_ms": len(artifact_ms), "mbre": len(mbre_values),
              "error_rate": attempted}
    report = {
        "predict_p50_ms": (percentile(fit_ms, 50), "ms"),
        "predict_p90_ms": (percentile(fit_ms, 90), "ms"),
        "artifact_p50_ms": (percentile(artifact_ms, 50), "ms"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
        "mbre": (statistics.fmean(mbre_values) if mbre_values else 0.0, "ratio"),
    }
    if args.trace:
        layer = tracer.layer_metrics()
        layer["cli.artifact_bytes"] = traced.artifact_bytes
        layer["trace_overhead_ratio"] = traced.wall_s / results[0].wall_s
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
        metrics.update({name: {"value": v, "unit": u} for name, (v, u) in report.items()})
        extra = {}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        extra = {name: {"value": v, "unit": u} for name, (v, u) in report.items()}

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "result": result,
        "reported_only": extra,
        "samples": {"setup_s": setups, "setup_in_process_s": setup_inproc,
                    "wall_s": walls, "predict_ms": fit_ms,
                    "artifact_ms": artifact_ms},
        "digests": [r.digest for r in measured],
        "problems": problems,
        "errors": [e for r in measured for e in r.errors],
        "provenance": provenance(args, inputs),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    for line in summary_lines({**metrics, **extra}, counts):
        print(line)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_bytes", ".bytes_written")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
