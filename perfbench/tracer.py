"""Per-layer tracing installed from outside the package.

Each traced function is replaced by a wrapper at every module namespace
that holds it (the package imports with ``from .x import f``, so a name
can be bound in several modules).  A wrapper records a span (id, parent,
name, start, end), keeps self time (span time minus child spans) and reads
counters off the returned object.  Spans stay in memory until
``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import GRID_RUNS

PACKAGE = "ucp_locality"

# (defining module, function, span name).  Several functions may share a
# span name; their calls and self time add up.
TRACED = (
    ("cli", "main", "cli"),
    ("dataset", "load_dataset", "dataset.load"),
    ("preprocess", "zscore_outliers", "preprocess.outliers"),
    ("preprocess", "remove_outliers", "preprocess.outliers"),
    ("preprocess", "minmax_fit", "preprocess.minmax"),
    ("preprocess", "minmax_apply", "preprocess.minmax"),
    ("preprocess", "normality_check", "preprocess.normality"),
    ("locality", "partition_by_factor", "locality.partition"),
    ("locality", "partition_by_kmeans", "locality.partition"),
    ("locality", "select_k", "locality.select_k"),
    ("locality", "kmeans", "locality.kmeans"),
    ("locality", "dunn_index", "locality.dunn"),
    ("locality", "assign", "locality.assign"),
    ("regressors.svr", "svr_fit", "regressors.svr.fit"),
    ("regressors.svr", "svr_predict", "regressors.svr.predict"),
    ("regressors.cart", "cart_fit", "regressors.cart.fit"),
    ("regressors.cart", "cart_predict", "regressors.cart.predict"),
    ("regressors.stepwise", "stepwise_fit", "regressors.stepwise.fit"),
    ("regressors.stepwise", "stepwise_predict", "regressors.stepwise.predict"),
    ("regressors.base", "model_from_dict", "cli.model_load"),
    ("ensemble", "ensemble_fit", "ensemble.fit"),
    ("ensemble", "inner_error_profile", "ensemble.inner_loo"),
    ("ensemble", "predict_or_fallback", "ensemble.predict_or_fallback"),
    ("evaluation", "benchmark_all", "evaluation.grid"),
    ("evaluation", "loocv_run", "evaluation.cell"),
    ("report", "build_locality_grid", "report.render"),
    ("report", "build_none_grid", "report.render"),
    ("report", "render_grid", "report.render"),
    ("report", "traces_to_csv", "report.render"),
    ("report", "weights_to_csv", "report.render"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))

FIT_SPANS = ("regressors.svr.fit", "regressors.cart.fit",
             "regressors.stepwise.fit")
PREDICT_SPANS = ("regressors.svr.predict", "regressors.cart.predict",
                 "regressors.stepwise.predict")

# Span names that must record no call on a workload; every other span name
# must record at least one.  A refactor that routes around a wrapped
# binding then fails the traced run instead of reporting a silent zero.
MUST_BE_ZERO = {
    "grid-n40": {"cli.model_load"},
    "ensemble-loo": {"cli.model_load", "locality.partition",
                     "locality.select_k", "locality.kmeans", "locality.dunn",
                     "locality.assign"},
    "predict": {"evaluation.grid", "evaluation.cell", "report.render"},
}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _array_bytes(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _cart_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        if n.left is not None:
            stack.extend((n.left, n.right))
    return count


def _cell_key(scheme: str, model: str) -> str:
    """Per-cell time metric, grouped by scheme family."""
    family = scheme if scheme in ("kmeans", "none") else "factor"
    return f"evaluation.cell.{family}.{model}_s"


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.fit_keys: set[str] = set()
        self.partition_keys: set[str] = set()
        self._stack: list[list] = []   # [span id, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1
        self.predict_raises = 0
        self.missing: list[str] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every function in TRACED at each binding; names that cannot
        be found are kept in `missing`."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, func_name, span in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None) if home else None
            if original is None:
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0.0]
            raises_before = tracer.predict_raises
            tracer._stack.append(frame)
            tracer.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name in PREDICT_SPANS:
                    tracer.predict_raises += 1
                tracer.counts[name + ".raises"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append((span_id, parent, name, start, end))
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if after is not None:
                # bookkeeping time is charged to no span
                t0 = time.perf_counter()
                after(tracer, name, args, kwargs, result, duration,
                      raises_before)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t0
            return result

        return wrapper

    # -- results ------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        c, s, k = self.calls, self.self_s, self.counts
        fits = sum(c[n] for n in FIT_SPANS)
        metrics = {
            "locality.partition_calls": c["locality.partition"],
            "locality.partition_self_s": s["locality.partition"],
            "locality.select_k_calls": c["locality.select_k"],
            "locality.kmeans_runs": c["locality.kmeans"],
            "locality.kmeans_iters": k["kmeans_iters"],
            "locality.kmeans_self_s": s["locality.kmeans"],
            "locality.dunn_self_s": s["locality.dunn"],
            "locality.assign_self_s": s["locality.assign"],
            "locality.kmeans_kept_ratio": _ratio(c["locality.select_k"],
                                                 c["locality.kmeans"]),
            "locality.partition_unique_ratio": _ratio(
                len(self.partition_keys), c["locality.partition"]),
            "regressors.svr.fit_calls": c["regressors.svr.fit"],
            "regressors.svr.fit_self_s": s["regressors.svr.fit"],
            "regressors.svr.smo_iters": k["smo_iters"],
            "regressors.svr.nonconverged": k["svr_nonconverged"],
            "regressors.svr.predict_calls": c["regressors.svr.predict"],
            "regressors.svr.predict_self_s": s["regressors.svr.predict"],
            "regressors.cart.fit_calls": c["regressors.cart.fit"],
            "regressors.cart.fit_self_s": s["regressors.cart.fit"],
            "regressors.cart.nodes": k["cart_nodes"],
            "regressors.cart.predict_self_s": s["regressors.cart.predict"],
            "regressors.stepwise.fit_calls": c["regressors.stepwise.fit"],
            "regressors.stepwise.fit_self_s": s["regressors.stepwise.fit"],
            "regressors.stepwise.predict_self_s": s["regressors.stepwise.predict"],
            "regressors.stepwise.log_fits": k["stepwise_log_fits"],
            "regressors.stepwise.predict_raises":
                k["regressors.stepwise.predict.raises"],
            "regressors.fit_unique_ratio": _ratio(len(self.fit_keys), fits),
            "ensemble.fit_calls": c["ensemble.fit"],
            "ensemble.fit_self_s": s["ensemble.fit"],
            "ensemble.inner_loo_self_s": s["ensemble.inner_loo"],
            "ensemble.inner_fits": k["inner_fits"],
            "ensemble.predict_fallbacks": k["predict_fallbacks"],
            "evaluation.cells": c["evaluation.cell"],
            "evaluation.folds": k["folds"],
            "evaluation.fallback_folds": k["fallback_folds"],
            "evaluation.self_s": s["evaluation.cell"] + s["evaluation.grid"],
            "report.render_self_s": s["report.render"],
            "report.bytes_written": k["report_bytes"],
            "dataset.load_calls": c["dataset.load"],
            "dataset.load_self_s": s["dataset.load"],
            "preprocess.outliers_self_s": s["preprocess.outliers"],
            "preprocess.minmax_self_s": s["preprocess.minmax"],
            "preprocess.normality_calls": c["preprocess.normality"],
            "preprocess.normality_self_s": s["preprocess.normality"],
            "cli.self_s": s["cli"],
            "cli.model_load_self_s": s["cli.model_load"],
        }
        for key in dict.fromkeys(_cell_key(*run) for run in GRID_RUNS):
            metrics[key] = k.get(key, 0.0)
        return metrics

    def coverage_failures(self, workload: str) -> list[str]:
        zero = MUST_BE_ZERO[workload]
        failures = [f"{name} not found" for name in self.missing]
        for name in SPAN_NAMES:
            if name in zero and self.calls[name]:
                failures.append(f"{name}: {self.calls[name]} call(s), expected none")
            elif name not in zero and not self.calls[name]:
                failures.append(f"{name}: no calls recorded")
        return failures

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id (0 = root), name, start
        and end in seconds of the process's performance counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- counters read off returned objects ---------------------------------
# Each hook gets (tracer, span name, args, kwargs, result, span seconds,
# predict raises seen before the span started).

def _after_fit(tracer, name, args, kwargs, result, *_):
    X, y = args[0], args[1]
    tracer.fit_keys.add(_digest(name, _array_bytes(X), _array_bytes(y),
                                sorted(kwargs.items())))
    if tracer.active["ensemble.inner_loo"]:
        tracer.counts["inner_fits"] += 1


def _after_svr_fit(tracer, name, args, kwargs, result, *rest):
    _after_fit(tracer, name, args, kwargs, result, *rest)
    tracer.counts["smo_iters"] += result.n_iter
    tracer.counts["svr_nonconverged"] += not result.converged


def _after_cart_fit(tracer, name, args, kwargs, result, *rest):
    _after_fit(tracer, name, args, kwargs, result, *rest)
    tracer.counts["cart_nodes"] += _cart_nodes(result.root)


def _after_stepwise_fit(tracer, name, args, kwargs, result, *rest):
    _after_fit(tracer, name, args, kwargs, result, *rest)
    tracer.counts["stepwise_log_fits"] += any(result.log_flags)


def _after_kmeans(tracer, name, args, kwargs, result, *_):
    tracer.counts["kmeans_iters"] += result.n_iter


def _after_partition(tracer, name, args, kwargs, result, *_):
    dataset, rest = args[0], args[1:]
    tracer.partition_keys.add(_digest(result.scheme, dataset.ids(), rest,
                                      sorted(kwargs.items())))


def _after_predict_or_fallback(tracer, name, args, kwargs, result, duration,
                               raises_before):
    # a nested predict raised, so the fallback value was returned
    if tracer.predict_raises > raises_before:
        tracer.counts["predict_fallbacks"] += 1


def _after_cell(tracer, name, args, kwargs, result, duration, _):
    tracer.counts["folds"] += result.n
    tracer.counts["fallback_folds"] += sum(f.fallback for f in result.folds)
    tracer.counts[_cell_key(result.scheme, result.model)] += duration


def _after_render(tracer, name, args, kwargs, result, *_):
    if isinstance(result, str):
        tracer.counts["report_bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "svr_fit": _after_svr_fit,
    "cart_fit": _after_cart_fit,
    "stepwise_fit": _after_stepwise_fit,
    "kmeans": _after_kmeans,
    "partition_by_factor": _after_partition,
    "partition_by_kmeans": _after_partition,
    "predict_or_fallback": _after_predict_or_fallback,
    "loocv_run": _after_cell,
    "render_grid": _after_render,
    "traces_to_csv": _after_render,
    "weights_to_csv": _after_render,
}
