"""Benchmark grid assembly and rendering.

The locality grid mirrors the 9-scheme x 4-model accuracy table; the
no-locality grid mirrors the 6-model table.  Best cells are flagged per
row (best model for a scheme, per metric) and per column (best scheme for
a model, per metric).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .evaluation import (
    ALL_SCHEMES,
    EvaluationReport,
    LEARNER_MODELS,
    MetricTriple,
    SCHEME_NONE,
)

METRICS = ("mae", "mbre", "mibre")
NONE_TABLE_ORDER = ("karner", "sw", "ensemble", "svr", "stepwise", "cart")


@dataclass(frozen=True)
class GridCell:
    scheme: str
    model: str
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

    def cell(self, scheme: str, model: str) -> GridCell:
        return self.cells[(scheme, model)]


def _index_reports(reports) -> dict[tuple[str, str], EvaluationReport]:
    return {(r.scheme, r.model): r for r in reports}


def _mark_best(cells: dict, row_labels, column_labels) -> dict:
    marked = {}
    row_best: dict[tuple[str, str], set] = {}
    col_best: dict[tuple[str, str], set] = {}
    for metric in METRICS:
        for row in row_labels:
            present = [m for m in column_labels if (row, m) in cells]
            if not present:
                continue
            best = min(present, key=lambda m: getattr(cells[(row, m)].metrics, metric))
            row_best.setdefault((row, best), set()).add(metric)
        for col in column_labels:
            present = [r for r in row_labels if (r, col) in cells]
            if not present:
                continue
            best = min(present, key=lambda r: getattr(cells[(r, col)].metrics, metric))
            col_best.setdefault((best, col), set()).add(metric)
    for key, cell in cells.items():
        marked[key] = GridCell(
            scheme=cell.scheme,
            model=cell.model,
            metrics=cell.metrics,
            best_in_row=tuple(sorted(row_best.get(key, ()))),
            best_in_column=tuple(sorted(col_best.get(key, ()))),
        )
    return marked


def build_locality_grid(reports) -> Grid:
    by_key = _index_reports(reports)
    rows = tuple(s for s in ALL_SCHEMES
                 if any(k[0] == s for k in by_key))
    cols = tuple(m for m in LEARNER_MODELS
                 if any(k == (r, m) for r in rows for k in by_key))
    cells = {}
    seed = 0
    for row in rows:
        for col in cols:
            report = by_key.get((row, col))
            if report is None:
                continue
            seed = report.seed
            cells[(row, col)] = GridCell(row, col, report.metrics)
    return Grid(name="locality", row_labels=rows, column_labels=cols,
                cells=_mark_best(cells, rows, cols), seed=seed)


def build_none_grid(reports) -> Grid:
    by_key = _index_reports(reports)
    rows = tuple(m for m in NONE_TABLE_ORDER if (SCHEME_NONE, m) in by_key)
    cells = {}
    seed = 0
    for model in rows:
        report = by_key[(SCHEME_NONE, model)]
        seed = report.seed
        cells[(model, "value")] = GridCell(SCHEME_NONE, model, report.metrics)
    marked = _mark_best(cells, rows, ("value",))
    # single-column table: only the across-models (column) winner matters
    marked = {key: GridCell(c.scheme, c.model, c.metrics,
                            best_in_column=c.best_in_column)
              for key, c in marked.items()}
    return Grid(name="no_locality", row_labels=rows, column_labels=("value",),
                cells=marked, seed=seed)


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


def grid_to_csv(grid: Grid) -> str:
    if grid.name == "no_locality":
        lines = ["model,mae,mbre,mibre"]
        for model in grid.row_labels:
            t = grid.cell(model, "value").metrics
            lines.append(f"{model},{t.mae!r},{t.mbre!r},{t.mibre!r}")
        return "\n".join(lines) + "\n"
    header = ["scheme"]
    for model in grid.column_labels:
        header += [f"{model}_{metric}" for metric in METRICS]
    lines = [",".join(header)]
    for scheme in grid.row_labels:
        row = [scheme]
        for model in grid.column_labels:
            t = grid.cell(scheme, model).metrics
            row += [repr(t.mae), repr(t.mbre), repr(t.mibre)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def grid_to_json(grid: Grid) -> str:
    rows = []
    for row in grid.row_labels:
        entry: dict = {"label": row, "cells": {}}
        for col in grid.column_labels:
            cell = grid.cells.get((row, col))
            if cell is None:
                continue
            entry["cells"][col] = {
                "mae": cell.metrics.mae,
                "mbre": cell.metrics.mbre,
                "mibre": cell.metrics.mibre,
                "best_in_row": list(cell.best_in_row),
                "best_in_column": list(cell.best_in_column),
            }
        rows.append(entry)
    doc = {"table": grid.name, "seed": grid.seed, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _md_value(value: float, metric: str, cell: GridCell) -> str:
    text = f"{value:.2f}"
    if metric in cell.best_in_row:
        text = f"*{text}*"
    if metric in cell.best_in_column:
        text = f"**{text}**"
    return text


def grid_to_markdown(grid: Grid) -> str:
    lines = [f"seed: {grid.seed}", ""]
    if grid.name == "no_locality":
        lines += ["| Model | MAE | MBRE | MIBRE |", "| --- | --- | --- | --- |"]
        for model in grid.row_labels:
            cell = grid.cell(model, "value")
            vals = [_md_value(getattr(cell.metrics, m), m, cell) for m in METRICS]
            lines.append(f"| {model} | " + " | ".join(vals) + " |")
        return "\n".join(lines) + "\n"
    header = "| Scheme |"
    divider = "| --- |"
    for model in grid.column_labels:
        header += f" {model} MAE | {model} MBRE | {model} MIBRE |"
        divider += " --- | --- | --- |"
    lines += [header, divider]
    for scheme in grid.row_labels:
        row = f"| {scheme} |"
        for model in grid.column_labels:
            cell = grid.cells.get((scheme, model))
            if cell is None:
                row += " | | |"
                continue
            vals = [_md_value(getattr(cell.metrics, m), m, cell) for m in METRICS]
            row += " " + " | ".join(vals) + " |"
        lines.append(row)
    return "\n".join(lines) + "\n"


RENDERERS = {"csv": grid_to_csv, "json": grid_to_json, "md": grid_to_markdown}


def render_grid(grid: Grid, fmt: str) -> str:
    try:
        return RENDERERS[fmt](grid)
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None


MOMENT_VARIABLES = ("pdr", "effort", "ucp", "uaw", "uucw", "tcf", "ef")
CORRELATION_VARIABLES = ("uaw", "uucw", "tcf", "ef")


def moments_table(dataset, fmt: str = "csv") -> str:
    """Descriptive statistics per variable (mean, stdev, skewness, kurtosis)."""
    from .stats import moments

    rows = [(name, moments(dataset.column(name))) for name in MOMENT_VARIABLES]
    if fmt == "csv":
        lines = ["variable,mean,stdev,skewness,kurtosis"]
        lines += [f"{n},{m.mean!r},{m.stdev!r},{m.skewness!r},{m.kurtosis!r}"
                  for n, m in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {n: {"mean": m.mean, "stdev": m.stdev, "skewness": m.skewness,
                   "kurtosis": m.kurtosis} for n, m in rows}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if fmt == "md":
        lines = ["| Variable | Mean | StDev | Skewness | Kurtosis |",
                 "| --- | --- | --- | --- | --- |"]
        lines += [f"| {n} | {m.mean:.2f} | {m.stdev:.2f} | {m.skewness:.2f} "
                  f"| {m.kurtosis:.2f} |" for n, m in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def spearman_table(dataset, fmt: str = "csv") -> str:
    """Rank correlation of each size variable against PDR."""
    from .stats import spearman

    pdr = dataset.column("pdr")
    rows = []
    for name in CORRELATION_VARIABLES:
        try:
            rows.append((name, spearman(dataset.column(name), pdr)))
        except ValueError as exc:
            raise ValueError(f"column {name!r}: {exc}") from None
    if fmt == "csv":
        lines = ["variable,r,p_value"]
        lines += [f"{n},{res.r!r},{res.p_value!r}" for n, res in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {n: {"r": res.r, "p_value": res.p_value} for n, res in rows}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "md":
        lines = ["| Variable | r | p-value |", "| --- | --- | --- |"]
        lines += [f"| {n} | {res.r:.3f} | {res.p_value:.3f} |" for n, res in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def intervals_to_csv(summaries) -> str:
    """IntervalSummary rows for one factor."""
    lines = ["level,count,mean,ci_low,ci_high,ci_defined"]
    for s in summaries:
        lines.append(f"{s.level},{s.count},{s.mean!r},{s.ci_low!r},"
                     f"{s.ci_high!r},{str(s.ci_defined).lower()}")
    return "\n".join(lines) + "\n"


def traces_to_csv(report: EvaluationReport) -> str:
    """Per-fold trace export for one (scheme, model) run."""
    lines = ["fold,test_id,partition,fallback,local_size,pdr_pred,"
             "effort_pred,effort_actual,ucp"]
    for i, f in enumerate(report.folds):
        label = f.partition_label if f.partition_label is not None else ""
        lines.append(
            f"{i},{f.test_id},{label},{str(f.fallback).lower()},{f.local_size},"
            f"{f.pdr_pred!r},{f.effort_pred!r},{f.effort_actual!r},{f.ucp!r}")
    return "\n".join(lines) + "\n"


def weights_to_csv(report: EvaluationReport) -> str:
    """Per-fold ensemble weight breakdown (`model,w_mae,w_mbre,w_mibre,w`)."""
    lines = ["fold,test_id,model,w_mae,w_mbre,w_mibre,w"]
    for i, f in enumerate(report.folds):
        if f.weights is None:
            continue
        for model, w in f.weights.items():
            lines.append(f"{i},{f.test_id},{model},{w.w_mae!r},{w.w_mbre!r},"
                         f"{w.w_mibre!r},{w.combined!r}")
    return "\n".join(lines) + "\n"
