"""Epsilon-insensitive support vector regression with an RBF kernel,
trained by sequential minimal optimization.

The dual is solved over 2n box-bounded variables (alpha, alpha*) with the
single equality constraint sum(alpha - alpha*) = 0.  Pairs are picked by
maximal violation with second-order selection of the partner, and the
solver stops when the worst KKT violation drops to `TOL`.

`svr_fit_loo` fits leave-one-out folds of one or several training sets
in bounded stacks: a stack's folds run `svr_fit`'s iterations in lockstep
over stacked arrays and predict as the same models would, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import loo_folds, loo_train_rows, stacks, training_arrays

DEFAULT_C = 1.0
DEFAULT_EPSILON = 0.1
# the SMO stopping rule: the worst KKT violation at most TOL, or MAX_ITER
# pair steps (read at call time)
TOL = 0.001
MAX_ITER = 100_000

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
        if not 0 < gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        return float(gamma)
    mean_var = float(X.var(axis=0).mean())
    if mean_var <= 0:
        raise ValueError("gamma=auto undefined for constant inputs")
    return 1.0 / (X.shape[1] * mean_var)


def _check_settings(n: int, c: float, epsilon: float) -> None:
    """The checks every fit makes on its training size and settings."""
    if n < 2:
        raise ValueError(f"SVR needs at least 2 training projects, got {n}")
    if not 0 < c < np.inf:
        raise ValueError(f"C must be positive and finite, got {c}")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be non-negative and finite, "
                         f"got {epsilon}")


def _bias_only(X: np.ndarray, y: np.ndarray, gamma: float | None, c: float,
               epsilon: float) -> SvrModel:
    """The model for identical input rows: the target mean."""
    return SvrModel(
        support_vectors=np.empty((0, X.shape[1])),
        coefficients=np.empty(0),
        bias=float(y.mean()),
        gamma=resolve_gamma(X, gamma) if gamma is not None else 1.0,
        c=c,
        epsilon=epsilon,
        tol=TOL,
        n_train=y.size,
        n_iter=0,
        converged=True,
    )


def _dual_models(X: np.ndarray, theta: np.ndarray, neg_zg: np.ndarray,
                 gammas, c: float, epsilon: float, n_iter,
                 converged) -> list[SvrModel]:
    """The model of each problem's final dual state, for problems stacked
    as X (problems, n, f) and theta, neg_zg (problems, 2n): support vectors
    and coefficients from theta, the bias from the final violation
    bracket."""
    n = X.shape[1]
    pos = np.arange(2 * n) < n
    # masks recomputed from theta
    up = np.where(pos, theta < c, theta > 0.0)
    low = np.where(pos, theta > 0.0, theta < c)
    lo_bound = np.where(up, neg_zg, -np.inf).max(axis=1)
    hi_bound = np.where(low, neg_zg, np.inf).min(axis=1)
    # one side can be empty, not both: a positive variable is always free
    # to move up or down
    has_lo, has_hi = up.any(axis=1), low.any(axis=1)
    bias = np.where(has_lo & has_hi, (lo_bound + hi_bound) / 2.0,
                    np.where(has_lo, lo_bound, hi_bound))

    beta = theta[:, :n] - theta[:, n:]
    sv_mask = beta != 0.0
    return [SvrModel(support_vectors=X[p, sv_mask[p]],
                     coefficients=beta[p, sv_mask[p]], bias=b, gamma=gamma,
                     c=c, epsilon=epsilon, tol=TOL, n_train=n, n_iter=iters,
                     converged=done)
            for p, (b, gamma, iters, done) in enumerate(zip(
                bias.tolist(), np.asarray(gammas, dtype=float).tolist(),
                np.asarray(n_iter).tolist(), np.asarray(converged).tolist()))]


def svr_fit(X, y, c: float = DEFAULT_C, epsilon: float = DEFAULT_EPSILON,
            gamma: float | None = None) -> SvrModel:
    X, y = training_arrays(X, y)
    _check_settings(y.size, c, epsilon)
    if np.all(X == X[0]):
        return _bias_only(X, y, gamma, c, epsilon)
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
    for n_iter in range(1, MAX_ITER + 1):
        up_vals = np.where(up, neg_zg, -np.inf)
        i = int(up_vals.argmax())
        m = up_vals[i]
        if m - np.where(low, neg_zg, np.inf).min() <= TOL:
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

    return _dual_models(X[None], theta[None], neg_zg[None], [gamma_val], c,
                        epsilon, [n_iter], [converged])[0]


def svr_fit_loo(X, y, folds, sets=None, points=None, at=None,
                c: float = DEFAULT_C, epsilon: float = DEFAULT_EPSILON,
                gamma: float | None = None) -> np.ndarray:
    """For each row index i in `folds`, the prediction that `svr_fit` on X
    and y without row i, with the same hyperparameters, makes at X[i].
    With `sets`, X (sets, n, f) and y (sets, n) stack equal-size training
    sets, and fold k leaves row folds[k] out of set sets[k].  With
    `points`, the predictions are at points[j] instead, each by the model
    of fold at[j].

    The folds are fit in `stacks` (a stack's working set is about a dozen
    (folds, 2(n - 1)) float arrays), and each stack's models predict at
    their points before the next stack is fit.  A stack's SMO iterations
    run in lockstep, with `svr_fit`'s pair selection, step, bound snap and
    mask updates, so each model equals its `svr_fit` counterpart bit for
    bit.  The kernel rows a step needs come from one squared-distance
    matrix per set the stack trains on.  A stack's identical-rows checks
    and automatic gammas are computed together over its gathered (folds,
    n - 1, f) training sets, with `resolve_gamma`'s arithmetic per fold.
    """
    X, y, sets, folds, points, at = loo_folds(X, y, folds, sets, points, at)
    n = y.shape[1]
    _check_settings(n, c, epsilon)
    if folds.size and n < 3:
        raise ValueError(f"SVR needs at least 2 training projects, got {n - 1}")
    if gamma is not None:
        gamma = resolve_gamma(X, gamma)
    out = np.empty(at.size)
    for part in stacks(folds.size, 192 * n):
        models = _fit_stack(X, y, sets[part], folds[part], c, epsilon, gamma)
        ask = np.flatnonzero((at >= part.start) & (at < part.stop))
        out[ask] = [models[k - part.start].predict(points[j])
                    for j, k in zip(ask, at[ask])]
        # free this stack's models before the next stack is fit
        del models
    return out


def _fit_stack(X: np.ndarray, y: np.ndarray, sets: np.ndarray,
               folds: np.ndarray, c: float, epsilon: float,
               gamma: float | None) -> list[SvrModel]:
    """The models of one stack of `svr_fit_loo`'s folds."""
    n = y.shape[1]
    keep = loo_train_rows(n, folds)
    Xs = X[sets[:, None], keep]
    identical = np.all(Xs == Xs[:, :1], axis=(1, 2))
    solved = np.flatnonzero(~identical)
    if gamma is None:
        mean_var = Xs.var(axis=1).mean(axis=1)[solved]
        if np.any(mean_var <= 0):
            raise ValueError("gamma=auto undefined for constant inputs")
        gammas = 1.0 / (X.shape[2] * mean_var)
    else:
        gammas = np.full(solved.size, gamma)
    del Xs
    models: list[SvrModel | None] = [None] * folds.size
    for f in np.flatnonzero(identical):
        models[f] = _bias_only(X[sets[f], keep[f]], y[sets[f], keep[f]],
                               gamma, c, epsilon)
    if solved.size:
        rows, of = keep[solved], sets[solved, None]
        # the distance matrices of the sets the solved folds train on, one
        # above the other
        used, on = np.unique(sets[solved], return_inverse=True)
        d2 = np.concatenate([_sq_distances(X[s]) for s in used])
        theta, neg_zg, n_iter, converged = _smo_lockstep(
            d2, on * n, rows, y[of, rows], gammas, c, epsilon)
        for f, model in zip(solved, _dual_models(
                X[of, rows], theta, neg_zg, gammas, c, epsilon, n_iter,
                converged)):
            models[f] = model
    return models


def _kernel_at(d2: np.ndarray, offset: np.ndarray, rows: np.ndarray,
               neg_gamma: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Each problem's single kernel row for its variable `var`."""
    m = rows.shape[1]
    own = offset + rows[np.arange(rows.shape[0]), var % m]
    return np.exp(neg_gamma * d2.take(own[:, None] * d2.shape[1] + rows))


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


def _smo_lockstep(d2: np.ndarray, offset: np.ndarray, rows: np.ndarray,
                  y_rows: np.ndarray, gammas: np.ndarray, c: float,
                  epsilon: float):
    """`svr_fit`'s SMO loop for several problems at once.  d2 stacks the
    clipped squared distances of n-point sets one above the other, and
    problem p trains on rows[p] of the set whose matrix starts at row
    offset[p], with targets y_rows[p] and width gammas[p].  A problem
    leaves the stack when it stops.  Returns each problem's final theta and
    -z*grad, its iteration count and whether it converged."""
    problems, m = rows.shape
    theta_out = np.empty((problems, 2 * m))
    zg_out = np.empty((problems, 2 * m))
    n_iter = np.full(problems, MAX_ITER)
    converged = np.zeros(problems, dtype=bool)

    ids = np.arange(problems)
    neg_gamma = -gammas[:, None]
    theta = np.zeros((problems, 2 * m))
    neg_zg = np.concatenate([y_rows - epsilon, y_rows + epsilon], axis=1)
    up = np.zeros((problems, 2 * m), dtype=bool)
    up[:, :m] = True
    low = ~up
    for it in range(1, MAX_ITER + 1):
        r = np.arange(ids.size)
        up_vals = np.where(up, neg_zg, -np.inf)
        i = up_vals.argmax(axis=1)
        top = up_vals[r, i]
        low_vals = np.where(low, neg_zg, np.inf)
        done = top - low_vals.min(axis=1) <= TOL

        k_i = _kernel_at(d2, offset, rows, neg_gamma, i)
        quad = np.maximum(2.0 * (1.0 - k_i), _TAU)
        # each partner's gain (top - neg_zg)^2 / quad, signed so that one
        # that cannot move down with a positive step gets a gain <= 0;
        # until a problem is done some gain exceeds TOL^2 / 2, so j is the
        # partner `svr_fit` picks
        gain = np.subtract(top[:, None], low_vals, out=low_vals)
        gain *= np.abs(gain)
        gain.reshape(-1, 2, m)[:] /= quad[:, None, :]
        j = gain.argmax(axis=1)

        d_star = (top - neg_zg[r, j]) / quad[r, j % m]
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
            (ids, offset, rows, neg_gamma, theta, neg_zg, up, low, i, j, d,
             k_i) = (a[go] for a in (ids, offset, rows, neg_gamma, theta,
                                     neg_zg, up, low, i, j, d, k_i))
            if not ids.size:
                break
            r = np.arange(ids.size)

        _snap_and_mark(theta, up, low, i,
                       theta[r, i] + np.where(i < m, d, -d), c)
        _snap_and_mark(theta, up, low, j,
                       theta[r, j] - np.where(j < m, d, -d), c)
        step = (k_i - _kernel_at(d2, offset, rows, neg_gamma, j)) * d[:, None]
        neg_zg.reshape(-1, 2, m)[:] -= step[:, None, :]

    theta_out[ids] = theta
    zg_out[ids] = neg_zg
    return theta_out, zg_out, n_iter, converged


def svr_predict(model: SvrModel, x) -> float:
    x = np.asarray(x, dtype=float)
    if model.coefficients.size == 0:
        return model.bias
    d2 = np.sum((model.support_vectors - x) ** 2, axis=1)
    return float(model.coefficients @ np.exp(-model.gamma * d2) + model.bias)
