"""Benchmark grid assembly and rendering.

The locality grid mirrors the 9-scheme x 4-model accuracy table; the
no-locality grid mirrors the 6-model table.  Best cells are flagged per
row (best model for a scheme, per metric) and per column (best scheme for
a model, per metric).

Every table is written by one of three helpers: `csv_text`, `md_text` and
`json_text`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .evaluation import (
    ALL_SCHEMES,
    EvaluationReport,
    LEARNER_MODELS,
    MetricTriple,
    SCHEME_NONE,
)
from .stats import moments, spearman

METRICS = ("mae", "mbre", "mibre")
NONE_TABLE_ORDER = ("karner", "sw", "ensemble", "svr", "stepwise", "cart")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def csv_text(header, rows) -> str:
    """Comma-joined header and rows, each cell as `str` writes it: floats
    keep their shortest round-trip repr."""
    return "".join([",".join([str(cell) for cell in line]) + "\n"
                    for line in (header, *rows)])


def _md_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def md_text(header, rows, preamble=()) -> str:
    """A Markdown table under the `preamble` lines; cells are text."""
    lines = [*preamble, _md_row(header), _md_row(["---"] * len(header))]
    return "\n".join(lines + [_md_row(row) for row in rows]) + "\n"


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class GridCell:
    metrics: MetricTriple
    best_in_row: tuple[str, ...] = ()     # metrics where this cell wins its row
    best_in_column: tuple[str, ...] = ()  # metrics where it wins its column


@dataclass(frozen=True)
class Grid:
    name: str
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    cells: dict[tuple[str, str], GridCell]
    seed: int

    def cell(self, row: str, column: str) -> GridCell:
        return self.cells[(row, column)]


def _grid(name: str, rows, cols, report_of, flag_rows: bool) -> Grid:
    """The rows x cols grid of `report_of(row, col)`.  Each metric's lowest
    cell is flagged per column and, with `flag_rows`, per row; a tie goes to
    the first label."""
    reports = {(r, c): report_of(r, c) for r in rows for c in cols}
    in_row = {key: [] for key in reports}
    in_col = {key: [] for key in reports}
    for metric in METRICS:
        def best(keys):
            return min(keys, key=lambda k: getattr(reports[k].metrics, metric))
        for r in rows if flag_rows else ():
            in_row[best([(r, c) for c in cols])].append(metric)
        for c in cols:
            in_col[best([(r, c) for r in rows])].append(metric)
    cells = {key: GridCell(rep.metrics, tuple(in_row[key]), tuple(in_col[key]))
             for key, rep in reports.items()}
    seed = next((rep.seed for rep in reports.values()), 0)
    return Grid(name, tuple(rows), tuple(cols), cells, seed)


def build_locality_grid(reports) -> Grid:
    by_key = {(r.scheme, r.model): r for r in reports}
    rows = [s for s in ALL_SCHEMES if any(k[0] == s for k in by_key)]
    cols = [m for m in LEARNER_MODELS if any((r, m) in by_key for r in rows)]
    return _grid("locality", rows, cols, lambda r, c: by_key[(r, c)],
                 flag_rows=True)


def build_none_grid(reports) -> Grid:
    by_model = {r.model: r for r in reports if r.scheme == SCHEME_NONE}
    rows = [m for m in NONE_TABLE_ORDER if m in by_model]
    # single-column table: only the across-models (column) winner matters
    return _grid("no_locality", rows, ["value"] if rows else [],
                 lambda m, _: by_model[m], flag_rows=False)


def benchmark_files(reports, fmt: str) -> dict[str, str]:
    """The tables and fold traces `ucp-locality benchmark` writes for
    `reports`, by path relative to its output directory: table4 and table5
    when they have cells, one trace per run under traces/ and, for an
    ensemble run, its weights next to it."""
    files = {}
    for name, grid in (("table4", build_locality_grid(reports)),
                       ("table5", build_none_grid(reports))):
        if grid.cells:
            files[f"{name}.{fmt}"] = render_grid(grid, fmt)
    for rep in reports:
        stem = f"traces/{rep.scheme}_{rep.model}"
        files[f"{stem}.csv"] = traces_to_csv(rep)
        if rep.model == "ensemble":
            files[f"{stem}_weights.csv"] = weights_to_csv(rep)
    return files


def _md_value(cell: GridCell, metric: str) -> str:
    text = f"{getattr(cell.metrics, metric):.2f}"
    if metric in cell.best_in_row:
        text = f"*{text}*"
    if metric in cell.best_in_column:
        text = f"**{text}**"
    return text


def render_grid(grid: Grid, fmt: str) -> str:
    """`grid` as csv, json or md.  The no-locality table has one unnamed
    column, so its header names the metrics alone."""
    none = grid.name == "no_locality"
    cols = grid.column_labels

    def cells(row):
        return [(grid.cell(row, col), m) for col in cols for m in METRICS]

    if fmt == "csv":
        header = ["model" if none else "scheme"]
        header += [m if none else f"{col}_{m}" for col in cols for m in METRICS]
        return csv_text(header, ([row] + [getattr(c.metrics, m) for c, m in cells(row)]
                                 for row in grid.row_labels))
    if fmt == "md":
        header = ["Model" if none else "Scheme"]
        header += [m.upper() if none else f"{col} {m.upper()}"
                   for col in cols for m in METRICS]
        return md_text(header, ([row] + [_md_value(c, m) for c, m in cells(row)]
                                for row in grid.row_labels),
                       preamble=(f"seed: {grid.seed}", ""))
    if fmt == "json":
        rows = [{"label": row, "cells": {col: {
            **{m: getattr(grid.cell(row, col).metrics, m) for m in METRICS},
            "best_in_row": list(grid.cell(row, col).best_in_row),
            "best_in_column": list(grid.cell(row, col).best_in_column),
        } for col in cols}} for row in grid.row_labels]
        return json_text({"table": grid.name, "seed": grid.seed, "rows": rows})
    raise ValueError(f"unknown format {fmt!r}")


MOMENT_VARIABLES = ("pdr", "effort", "ucp", "uaw", "uucw", "tcf", "ef")
CORRELATION_VARIABLES = ("uaw", "uucw", "tcf", "ef")


def _variable_table(rows, fields, titles, digits: int, fmt: str) -> str:
    """One line per (variable, result) pair in `rows`, with the result's
    `fields`; Markdown shows them under `titles`, rounded to `digits`, and
    JSON writes a nan as null."""
    values = [(name, [getattr(res, f) for f in fields]) for name, res in rows]
    if fmt == "csv":
        return csv_text(["variable", *fields], ([n, *v] for n, v in values))
    if fmt == "json":
        return json_text({n: {f: None if math.isnan(x) else x
                              for f, x in zip(fields, v)} for n, v in values})
    if fmt == "md":
        return md_text(["Variable", *titles],
                       ([n, *(f"{x:.{digits}f}" for x in v)] for n, v in values))
    raise ValueError(f"unknown format {fmt!r}")


def moments_table(dataset, fmt: str = "csv") -> str:
    """Descriptive statistics per variable (mean, stdev, skewness, kurtosis)."""
    rows = [(name, moments(dataset.column(name))) for name in MOMENT_VARIABLES]
    return _variable_table(rows, ("mean", "stdev", "skewness", "kurtosis"),
                           ("Mean", "StDev", "Skewness", "Kurtosis"), 2, fmt)


def spearman_table(dataset, fmt: str = "csv") -> str:
    """Rank correlation of each size variable against PDR."""
    pdr = dataset.column("pdr")
    rows = []
    for name in CORRELATION_VARIABLES:
        try:
            rows.append((name, spearman(dataset.column(name), pdr)))
        except ValueError as exc:
            raise ValueError(f"column {name!r}: {exc}") from None
    return _variable_table(rows, ("r", "p_value"), ("r", "p-value"), 3, fmt)


def intervals_to_csv(summaries) -> str:
    """IntervalSummary rows for one factor."""
    return csv_text(("level", "count", "mean", "ci_low", "ci_high", "ci_defined"),
                    ((s.level, s.count, s.mean, s.ci_low, s.ci_high,
                      _flag(s.ci_defined)) for s in summaries))


def traces_to_csv(report: EvaluationReport) -> str:
    """Per-fold trace export for one (scheme, model) run."""
    return csv_text(
        ("fold", "test_id", "partition", "fallback", "local_size", "pdr_pred",
         "effort_pred", "effort_actual", "ucp"),
        ((i, f.test_id, f.partition_label or "", _flag(f.fallback), f.local_size,
          f.pdr_pred, f.effort_pred, f.effort_actual, f.ucp)
         for i, f in enumerate(report.folds)))


def weights_to_csv(report: EvaluationReport) -> str:
    """Per-fold ensemble weight breakdown (`model,w_mae,w_mbre,w_mibre,w`)."""
    return csv_text(
        ("fold", "test_id", "model", "w_mae", "w_mbre", "w_mibre", "w"),
        ((i, f.test_id, model, w.w_mae, w.w_mbre, w.w_mibre, w.combined)
         for i, f in enumerate(report.folds)
         for model, w in (f.weights or {}).items()))
