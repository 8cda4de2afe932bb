"""Command-line interface: dataset validation, descriptive statistics,
per-factor analysis, the benchmark grid, single-project prediction and
synthetic data generation.

Exit codes: 0 success, 1 user or data error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .dataset import (
    Dataset,
    DatasetError,
    Project,
    compute_ucp,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .ensemble import BaseModelParams
from .evaluation import (
    LocalModel,
    RunSettings,
    benchmark_all,
    fit_local,
    grid_cells,
)
from .plots import svg_bar_chart, svg_histogram, svg_interval_plot
from .preprocess import DEFAULT_Z_THRESHOLD, remove_outliers, zscore_outliers
from .report import (
    benchmark_files,
    csv_text,
    intervals_to_csv,
    json_text,
    moments_table,
    spearman_table,
)
from .stats import interval_plot_data, level_counts

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class CliError(Exception):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Argument errors are user errors (exit 1, not argparse's default 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USER, f"error: {message}")


def _fail(message: str) -> CliError:
    return CliError(EXIT_USER, f"error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucp-locality",
                     description="Productivity and effort prediction over "
                                 "Use Case Points datasets")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p):
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--format", choices=("csv", "json", "md"),
                       default="csv", help="report format")

    p = sub.add_parser("validate", help="schema and invariant check")
    p.add_argument("--data", required=True)

    p = sub.add_parser("stats", help="descriptive statistics and histogram")
    add_common(p)

    p = sub.add_parser("rq1", help="per-factor interval plots and level charts")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("benchmark", help="full locality/model accuracy grid")
    add_common(p)
    _add_run_options(p)
    p.add_argument("--scheme", default="all",
                   help="e1..e8 | kmeans | none | all")
    p.add_argument("--model", default="all",
                   help="svr | cart | stepwise | ensemble | karner | sw | all")

    p = sub.add_parser("predict", help="predict effort for one project")
    p.add_argument("--data", help="training dataset CSV (fit on the fly)")
    p.add_argument("--model-file", help="serialized model artifact (JSON)")
    p.add_argument("--save-model", help="write the fitted artifact here")
    p.add_argument("--scheme", default="none", help="e1..e8 | kmeans | none")
    p.add_argument("--model", default="ensemble",
                   help="svr | cart | stepwise | ensemble | karner | sw")
    p.add_argument("--uaw", type=float, required=True)
    p.add_argument("--uucw", type=float, required=True)
    p.add_argument("--tcf", type=float, required=True)
    p.add_argument("--ef", type=float, required=True)
    p.add_argument("--env", required=True,
                   help="eight comma-separated factor scores, e.g. 3,3,3,3,3,3,3,3")
    p.add_argument("--keep-outliers", action="store_true",
                   help="skip z-score outlier removal before fitting")
    _add_run_options(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV file")

    return parser


def _add_run_options(p) -> None:
    run = RunSettings()
    base = run.base_params
    p.add_argument("--seed", type=int, default=run.seed)
    p.add_argument("--svr-c", type=float, default=base.svr_c)
    p.add_argument("--svr-eps", type=float, default=base.svr_epsilon)
    p.add_argument("--svr-gamma", type=float, default=base.svr_gamma,
                   help="RBF width (default: auto)")
    p.add_argument("--cart-min-split", type=int, default=base.cart_min_split)
    p.add_argument("--cart-min-leaf", type=int, default=base.cart_min_leaf)
    p.add_argument("--cart-max-depth", type=int, default=base.cart_max_depth)
    p.add_argument("--alpha", type=float, default=run.ensemble_alpha,
                   help="ensemble sigmoid scaling")
    p.add_argument("--z-threshold", type=float, default=DEFAULT_Z_THRESHOLD)
    p.add_argument("--min-local", type=int, default=run.min_local)


def _settings_from_args(args) -> RunSettings:
    if args.seed < 0:
        raise _fail(f"--seed must be non-negative, got {args.seed}")
    if not 0 < args.svr_c < math.inf:
        raise _fail(f"--svr-c must be positive and finite, got {args.svr_c}")
    if not 0 <= args.svr_eps < math.inf:
        raise _fail(f"--svr-eps must be non-negative and finite, "
                    f"got {args.svr_eps}")
    if args.svr_gamma is not None and not 0 < args.svr_gamma < math.inf:
        raise _fail(f"--svr-gamma must be positive and finite, "
                    f"got {args.svr_gamma}")
    if not 0 < args.alpha < math.inf:
        raise _fail(f"--alpha must be positive and finite, got {args.alpha}")
    if not args.z_threshold > 0:
        raise _fail(f"--z-threshold must be positive, got {args.z_threshold}")
    if args.min_local < 1:
        raise _fail(f"--min-local must be at least 1, got {args.min_local}")
    if args.cart_min_leaf < 1 or args.cart_min_split < 2 or args.cart_max_depth < 0:
        raise _fail("invalid CART limits")
    return RunSettings(
        seed=args.seed,
        min_local=args.min_local,
        ensemble_alpha=args.alpha,
        base_params=BaseModelParams(
            svr_c=args.svr_c,
            svr_epsilon=args.svr_eps,
            svr_gamma=args.svr_gamma,
            cart_min_split=args.cart_min_split,
            cart_min_leaf=args.cart_min_leaf,
            cart_max_depth=args.cart_max_depth,
        ),
    )


def _load(path: str) -> Dataset:
    try:
        return load_dataset(path)
    except FileNotFoundError:
        raise _fail(f"cannot read {path}: no such file") from None
    except DatasetError as exc:
        raise _fail(str(exc)) from None


def cmd_validate(args) -> int:
    dataset = _load(args.data)
    print(f"OK: {len(dataset)} projects, ids unique, all invariants hold")
    return EXIT_OK


def cmd_stats(args) -> int:
    dataset = _load(args.data)
    ext = args.format
    files = {
        f"moments.{ext}": moments_table(dataset, ext),
        f"spearman.{ext}": spearman_table(dataset, ext),
        "pdr_histogram.svg": svg_histogram(
            dataset.column("pdr"), bins=10,
            title=f"PDR histogram ({dataset.name})", x_label="PDR"),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    print(f"wrote {', '.join(files)} to {out}")
    return EXIT_OK


def cmd_rq1(args) -> int:
    dataset = _load(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(1, 9):
        summaries = interval_plot_data(dataset, i)
        (out / f"interval_e{i}.svg").write_text(
            svg_interval_plot(summaries, title=f"PDR vs E{i} levels"))
        (out / f"intervals_e{i}.csv").write_text(intervals_to_csv(summaries))
        counts = level_counts(dataset, i)
        (out / f"levels_e{i}.svg").write_text(
            svg_bar_chart(counts, title=f"Projects per E{i} level"))
    print(f"wrote 8 interval plots, 8 level charts and 8 CSV tables to {out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    schemes = None if args.scheme == "all" else [args.scheme]
    models = None if args.model == "all" else [args.model]
    if not grid_cells(schemes, models):
        raise _fail(f"--scheme {args.scheme} --model {args.model} selects no "
                    f"cell: the baselines run only with --scheme none")
    dataset = _load(args.data)
    settings = _settings_from_args(args)
    report = zscore_outliers(dataset, threshold=args.z_threshold)
    cleaned = remove_outliers(dataset, report)
    reports = benchmark_all(cleaned, settings, schemes=schemes, models=models)

    out = Path(args.out)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    (out / "outliers.csv").write_text(
        csv_text(("id", "flagged", "max_abs_z"), report.to_csv_rows()))
    for rel, text in benchmark_files(reports, args.format).items():
        (out / rel).write_text(text)

    run_info = {
        "seed": settings.seed,
        "dataset": dataset.name,
        "projects": len(dataset),
        "outliers_removed": list(report.flagged_ids),
        "projects_used": len(cleaned),
        "settings": settings.to_dict(),
        "runs": [[r.scheme, r.model] for r in reports],
    }
    (out / "run.json").write_text(json_text(run_info))
    print(f"seed {settings.seed}: removed {len(report.flagged_ids)} outlier(s), "
          f"ran {len(reports)} evaluations, reports in {out}")
    return EXIT_OK


def _parse_env(text: str) -> tuple[int, ...]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 8:
        raise _fail(f"--env needs exactly 8 scores, got {len(parts)}")
    try:
        env = tuple(int(s) for s in parts)
    except ValueError:
        raise _fail(f"--env scores must be integers: {text!r}") from None
    if any(not 0 <= e <= 5 for e in env):
        raise _fail("--env scores must be within 0..5")
    return env


def _project_from_args(args) -> Project:
    try:
        return Project(id="new", source="industrial", uaw=args.uaw,
                       uucw=args.uucw, tcf=args.tcf, ef=args.ef,
                       env=_parse_env(args.env), effort=1.0)
    except ValueError as exc:
        raise _fail(str(exc)) from None


def _fit_local(args, project: Project) -> LocalModel:
    """Fit the requested model on the training data as a harness fold
    does (see `fit_local`)."""
    dataset = _load(args.data)
    settings = _settings_from_args(args)
    if not args.keep_outliers:
        dataset = remove_outliers(dataset, zscore_outliers(
            dataset, threshold=args.z_threshold))
    return fit_local(dataset, project, args.model, settings, args.scheme)


def cmd_predict(args) -> int:
    if (args.data is None) == (args.model_file is None):
        raise _fail("provide exactly one of --data or --model-file")
    if args.save_model and not args.data:
        raise _fail("--save-model needs --data: it saves the model fitted on it")
    project = _project_from_args(args)

    if args.model_file:
        try:
            artifact = json.loads(Path(args.model_file).read_text())
        except FileNotFoundError:
            raise _fail(f"cannot read {args.model_file}: no such file") from None
        except json.JSONDecodeError as exc:
            raise _fail(f"invalid model file: {exc}") from None
        local = LocalModel.from_dict(artifact)
    else:
        local = _fit_local(args, project)
        if args.save_model:
            Path(args.save_model).write_text(json_text(local.to_dict()))

    pdr = local.pdr(project)
    ucp = compute_ucp(args.uaw, args.uucw, args.tcf, args.ef)
    effort = pdr * ucp
    print(f"ucp: {ucp!r}")
    print(f"pdr: {pdr!r}")
    print(f"effort: {effort!r}")
    if local.fallback:
        print(f"partition: full dataset ({local.local_size} projects), "
              f"fell back because {local.fallback}")
    elif local.partition_label:
        print(f"partition: {local.partition_label} "
              f"({local.local_size} projects)")
    else:
        print("partition: none (full dataset)")
    base_pdrs = local.base_pdrs(project)
    if base_pdrs is not None:
        for name, base in base_pdrs.items():
            w = local.model.weights[name]
            print(f"weight {name}: w_mae={w.w_mae:.4f} w_mbre={w.w_mbre:.4f} "
                  f"w_mibre={w.w_mibre:.4f} w={w.combined:.4f} pdr={base:.4f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n < 10:
        raise _fail(f"--n must be at least 10, got {args.n}")
    if args.seed < 0:
        raise _fail(f"--seed must be non-negative, got {args.seed}")
    dataset = generate_synthetic(args.seed, args.n)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out)
    print(f"wrote {len(dataset)} synthetic projects (seed {args.seed}) to {out}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "stats": cmd_stats,
    "rq1": cmd_rq1,
    "benchmark": cmd_benchmark,
    "predict": cmd_predict,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
