"""Epsilon-insensitive support vector regression with an RBF kernel,
trained by sequential minimal optimization.

The dual is solved over 2n box-bounded variables (alpha, alpha*) with the
single equality constraint sum(alpha - alpha*) = 0.  Pairs are picked by
maximal violation with second-order selection of the partner, and the
solver stops when the worst KKT violation drops to `tol`.

`svr_fit_loo` fits every leave-one-out fold of one training set at once:
the folds run `svr_fit`'s iterations in lockstep over stacked arrays and
return the same models, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import loo_train_rows

DEFAULT_C = 1.0
DEFAULT_EPSILON = 0.1
DEFAULT_TOL = 0.001
DEFAULT_MAX_ITER = 100_000

_TAU = 1e-12       # curvature floor for coincident points
_BOUND_SNAP = 1e-12


def _sq_distances(X: np.ndarray) -> np.ndarray:
    """Pairwise squared distances clipped at 0.  Each row is computed on
    its own from |a|^2 + |b|^2 - 2 a.b, one matrix-vector product per row,
    so the entries of a subset of rows and columns equal those computed
    from that subset alone."""
    sq = np.sum(X * X, axis=1)
    n = X.shape[0]
    d2 = np.empty((n, n))
    for i in range(n):
        d2[i] = sq + sq[i] - 2.0 * (X @ X[i])
    return np.maximum(d2, 0.0)


def _kernel_rows(X: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """RBF kernel rows, doubled (length 2n) to match the stacked
    (alpha, alpha*) variable layout, and the matching pair curvatures
    max(2*(1 - K), tau)."""
    single = np.exp(-gamma * _sq_distances(X))
    rows = np.concatenate([single, single], axis=1)
    return rows, np.maximum(2.0 * (1.0 - rows), _TAU)


@dataclass(frozen=True)
class SvrModel:
    support_vectors: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)   # alpha_i - alpha_i* per SV
    bias: float
    gamma: float
    c: float
    epsilon: float
    tol: float
    n_train: int
    n_iter: int
    converged: bool

    def predict(self, x) -> float:
        return svr_predict(self, x)

    def to_dict(self) -> dict:
        return {
            "kind": "svr",
            "params": {
                "support_vectors": self.support_vectors.tolist(),
                "coefficients": self.coefficients.tolist(),
                "bias": self.bias,
                "gamma": self.gamma,
            },
            "metadata": {
                "c": self.c,
                "epsilon": self.epsilon,
                "tol": self.tol,
                "n_train": self.n_train,
                "n_iter": self.n_iter,
                "converged": self.converged,
                "n_features": int(self.support_vectors.shape[1]),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SvrModel":
        params, meta = data["params"], data["metadata"]
        return cls(
            support_vectors=np.array(params["support_vectors"], dtype=float).reshape(
                len(params["coefficients"]), meta["n_features"]),
            coefficients=np.array(params["coefficients"], dtype=float),
            bias=params["bias"],
            gamma=params["gamma"],
            c=meta["c"],
            epsilon=meta["epsilon"],
            tol=meta["tol"],
            n_train=meta["n_train"],
            n_iter=meta["n_iter"],
            converged=meta["converged"],
        )


def resolve_gamma(X: np.ndarray, gamma: float | None) -> float:
    """Explicit gamma, or 1 / (n_features * mean per-feature variance)."""
    if gamma is not None:
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return float(gamma)
    mean_var = float(X.var(axis=0).mean())
    if mean_var <= 0:
        raise ValueError("gamma=auto undefined for constant inputs")
    return 1.0 / (X.shape[1] * mean_var)


def _checked(X, y, c: float, epsilon: float,
             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Training inputs as float arrays, after the checks every fit makes."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, f) with one target per row")
    n = y.size
    if n < 2:
        raise ValueError(f"SVR needs at least 2 training projects, got {n}")
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return X, y


def _bias_only(X: np.ndarray, y: np.ndarray, gamma: float | None, c: float,
               epsilon: float, tol: float) -> SvrModel:
    """The model for identical input rows: the target mean."""
    return SvrModel(
        support_vectors=np.empty((0, X.shape[1])),
        coefficients=np.empty(0),
        bias=float(y.mean()),
        gamma=resolve_gamma(X, gamma) if gamma is not None else 1.0,
        c=c,
        epsilon=epsilon,
        tol=tol,
        n_train=y.size,
        n_iter=0,
        converged=True,
    )


def _dual_model(X: np.ndarray, y: np.ndarray, theta: np.ndarray,
                neg_zg: np.ndarray, gamma: float, c: float, epsilon: float,
                tol: float, n_iter: int, converged: bool) -> SvrModel:
    """The model for a final dual state: support vectors and coefficients
    from theta, the bias from the final violation bracket."""
    n = y.size
    pos = np.arange(2 * n) < n
    # masks recomputed from theta
    up = np.where(pos, theta < c, theta > 0.0)
    low = np.where(pos, theta > 0.0, theta < c)
    lo_bound = np.max(neg_zg[up]) if up.any() else None
    hi_bound = np.min(neg_zg[low]) if low.any() else None
    if lo_bound is not None and hi_bound is not None:
        bias = float(lo_bound + hi_bound) / 2.0
    elif lo_bound is not None:
        bias = float(lo_bound)
    elif hi_bound is not None:
        bias = float(hi_bound)
    else:
        bias = float(y.mean())

    beta = theta[:n] - theta[n:]
    sv_mask = beta != 0.0
    return SvrModel(
        support_vectors=X[sv_mask].copy(),
        coefficients=beta[sv_mask].copy(),
        bias=bias,
        gamma=gamma,
        c=c,
        epsilon=epsilon,
        tol=tol,
        n_train=n,
        n_iter=n_iter,
        converged=converged,
    )


def svr_fit(X, y, c: float = DEFAULT_C, epsilon: float = DEFAULT_EPSILON,
            gamma: float | None = None, tol: float = DEFAULT_TOL,
            max_iter: int = DEFAULT_MAX_ITER) -> SvrModel:
    X, y = _checked(X, y, c, epsilon, tol)
    if np.all(X == X[0]):
        return _bias_only(X, y, gamma, c, epsilon, tol)
    gamma_val = resolve_gamma(X, gamma)

    n = y.size
    kernel, curvature = _kernel_rows(X, gamma_val)
    pos = np.zeros(2 * n, dtype=bool)
    pos[:n] = True
    theta = np.zeros(2 * n)
    # track -z*grad directly: its pair update is -(Ki - Kj)*d since z^2 = 1
    neg_zg = np.concatenate([y - epsilon, y + epsilon])
    # with theta = 0, positive-z variables can move up, negative-z down
    up = pos.copy()
    low = ~pos

    def refresh_masks(idx: int) -> None:
        free_up = theta[idx] < c if pos[idx] else theta[idx] > 0.0
        free_low = theta[idx] > 0.0 if pos[idx] else theta[idx] < c
        up[idx] = free_up
        low[idx] = free_low

    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        up_vals = np.where(up, neg_zg, -np.inf)
        i = int(up_vals.argmax())
        m = up_vals[i]
        if m - np.where(low, neg_zg, np.inf).min() <= tol:
            converged = True
            break

        k2i, quad = kernel[i % n], curvature[i % n]
        diff = m - neg_zg
        gain = np.where(low & (diff > 0), diff * diff / quad, -np.inf)
        j = int(gain.argmax())

        d_star = diff[j] / quad[j]
        cap_i = (c - theta[i]) if pos[i] else theta[i]
        cap_j = theta[j] if pos[j] else (c - theta[j])
        d = min(d_star, cap_i, cap_j)
        if d <= 0:
            converged = True
            break

        theta[i] += d if pos[i] else -d
        theta[j] -= d if pos[j] else -d
        for idx in (i, j):
            if theta[idx] < _BOUND_SNAP:
                theta[idx] = 0.0
            elif theta[idx] > c - _BOUND_SNAP:
                theta[idx] = c
            refresh_masks(idx)

        neg_zg -= (k2i - kernel[j % n]) * d

    return _dual_model(X, y, theta, neg_zg, gamma_val, c, epsilon, tol,
                       n_iter, converged)


def svr_fit_loo(X, y, folds, c: float = DEFAULT_C,
                epsilon: float = DEFAULT_EPSILON, gamma: float | None = None,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> list[SvrModel]:
    """For each row index i in `folds`, the model that `svr_fit` returns on
    X and y without row i, with the same hyperparameters.

    The folds' SMO iterations run in lockstep over stacked arrays, with
    `svr_fit`'s pair selection, step, bound snap and mask updates, so each
    model equals its `svr_fit` counterpart bit for bit.  The kernel rows a
    step needs come from one squared-distance matrix of the whole set, so
    the extra memory is O(n^2) however many folds there are.
    """
    X, y = _checked(X, y, c, epsilon, tol)
    n = y.size
    folds = [int(i) for i in folds]
    if folds and n < 3:
        raise ValueError(f"SVR needs at least 2 training projects, got {n - 1}")
    if any(not 0 <= i < n for i in folds):
        raise ValueError(f"fold indices must be within 0..{n - 1}")

    keep = loo_train_rows(n, folds)
    models: list[SvrModel | None] = [None] * len(folds)
    solved, gammas = [], []
    for f, train in enumerate(keep):
        X_f = X[train]
        if np.all(X_f == X_f[0]):
            models[f] = _bias_only(X_f, y[train], gamma, c, epsilon, tol)
        else:
            solved.append(f)
            gammas.append(resolve_gamma(X_f, gamma))
    if solved:
        rows = keep[solved]
        theta, neg_zg, n_iter, converged = _smo_lockstep(
            _sq_distances(X), rows, y[rows], np.array(gammas), c, epsilon,
            tol, max_iter)
        for s, f in enumerate(solved):
            models[f] = _dual_model(
                X[rows[s]], y[rows[s]], theta[s], neg_zg[s], gammas[s], c,
                epsilon, tol, int(n_iter[s]), bool(converged[s]))
    return models


def _kernel_at(d2: np.ndarray, rows: np.ndarray, neg_gamma: np.ndarray,
               var: np.ndarray) -> np.ndarray:
    """Each problem's single kernel row for its variable `var`."""
    m = rows.shape[1]
    own = rows[np.arange(rows.shape[0]), var % m]
    return np.exp(neg_gamma * d2[own[:, None], rows])


def _snap_and_mark(theta: np.ndarray, up: np.ndarray, low: np.ndarray,
                   var: np.ndarray, value: np.ndarray, c: float) -> None:
    """Store each problem's new value of variable `var`, snapped to the
    box bounds, and refresh that variable's direction masks."""
    r = np.arange(theta.shape[0])
    value = np.where(value < _BOUND_SNAP, 0.0,
                     np.where(value > c - _BOUND_SNAP, c, value))
    theta[r, var] = value
    pos = var < theta.shape[1] // 2
    up[r, var] = np.where(pos, value < c, value > 0.0)
    low[r, var] = np.where(pos, value > 0.0, value < c)


def _smo_lockstep(d2: np.ndarray, rows: np.ndarray, y_rows: np.ndarray,
                  gammas: np.ndarray, c: float, epsilon: float, tol: float,
                  max_iter: int):
    """`svr_fit`'s SMO loop for several problems at once.  Problem p trains
    on rows[p] of the set whose clipped squared distances are d2, with
    targets y_rows[p] and width gammas[p].  A problem leaves the stack when
    it stops.  Returns each problem's final theta and -z*grad, its
    iteration count and whether it converged."""
    problems, m = rows.shape
    theta_out = np.empty((problems, 2 * m))
    zg_out = np.empty((problems, 2 * m))
    n_iter = np.full(problems, max(max_iter, 0))
    converged = np.zeros(problems, dtype=bool)

    ids = np.arange(problems)
    neg_gamma = -gammas[:, None]
    theta = np.zeros((problems, 2 * m))
    neg_zg = np.concatenate([y_rows - epsilon, y_rows + epsilon], axis=1)
    up = np.zeros((problems, 2 * m), dtype=bool)
    up[:, :m] = True
    low = ~up
    for it in range(1, max_iter + 1):
        r = np.arange(ids.size)
        up_vals = np.where(up, neg_zg, -np.inf)
        i = up_vals.argmax(axis=1)
        top = up_vals[r, i]
        done = top - np.where(low, neg_zg, np.inf).min(axis=1) <= tol

        k_i = _kernel_at(d2, rows, neg_gamma, i)
        quad = np.maximum(2.0 * (1.0 - k_i), _TAU)
        diff = top[:, None] - neg_zg
        ratio = ((diff * diff).reshape(-1, 2, m) / quad[:, None, :]).reshape(
            -1, 2 * m)
        j = np.where(low & (diff > 0), ratio, -np.inf).argmax(axis=1)

        d_star = diff[r, j] / quad[r, j % m]
        t_i, t_j = theta[r, i], theta[r, j]
        cap_i = np.where(i < m, c - t_i, t_i)
        cap_j = np.where(j < m, t_j, c - t_j)
        d = np.minimum(np.minimum(d_star, cap_i), cap_j)

        stop = done | (d <= 0)
        if stop.any():
            finished = ids[stop]
            n_iter[finished] = it
            converged[finished] = True
            theta_out[finished] = theta[stop]
            zg_out[finished] = neg_zg[stop]
            go = ~stop
            ids, rows, neg_gamma, theta, neg_zg, up, low, i, j, d, k_i = (
                a[go] for a in (ids, rows, neg_gamma, theta, neg_zg, up, low,
                                i, j, d, k_i))
            if not ids.size:
                break
            r = np.arange(ids.size)

        _snap_and_mark(theta, up, low, i,
                       theta[r, i] + np.where(i < m, d, -d), c)
        _snap_and_mark(theta, up, low, j,
                       theta[r, j] - np.where(j < m, d, -d), c)
        k_j = _kernel_at(d2, rows, neg_gamma, j)
        neg_zg -= np.tile((k_i - k_j) * d[:, None], 2)

    theta_out[ids] = theta
    zg_out[ids] = neg_zg
    return theta_out, zg_out, n_iter, converged


def svr_predict(model: SvrModel, x) -> float:
    x = np.asarray(x, dtype=float)
    if model.coefficients.size == 0:
        return model.bias
    d2 = np.sum((model.support_vectors - x) ** 2, axis=1)
    return float(model.coefficients @ np.exp(-model.gamma * d2) + model.bias)
