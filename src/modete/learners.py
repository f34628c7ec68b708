"""First-step learners for the cross-fitted route: the propensity score and
the smoothed-outcome regressions fitted jointly over an outcome grid.

The smoothed-outcome target for observation ``i`` at grid point ``y_j`` and
derivative order ``s`` is the scaled kernel ``K_h^(s)(y_j - y_i)``, fitted on
one treatment arm only.  Ridge solves all (grid point, order) targets against
a single factorization of the design; KNN averages targets over neighbors.

Learner hyperparameters are plain dicts.  Documented defaults:

* logistic -- ``l2`` penalty on slopes ``1e-4 * n``, gradient tolerance
  ``tol=1e-8``, ``max_iter=100``.
* knn -- ``k = ceil(n ** 0.6)`` neighbors (Euclidean distance on internally
  standardized covariates).
* kernel -- Nadaraya-Watson with ``spec`` defaulting to a Gaussian kernel and
  Scott-rule bandwidth ``n ** (-1 / (dim + 4))`` on standardized covariates.
* ridge -- ``l2`` penalty on slopes ``1e-4 * n`` (intercept unpenalized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .density import _DEN_FLOOR, Sample, _block_rows, _kernel_sums, _product_weights_block
from .errors import ConvergenceError, NoDataError, NoOverlapError
from .kernels import GAUSSIAN, KernelSpec, scaled_kernel

PROPENSITY_LEARNERS = ("logistic", "knn", "kernel")
OUTCOME_LEARNERS = ("ridge", "knn")


def clip_propensity(p, kappa):
    """Clamp propensity values into ``[kappa, 1 - kappa]``."""
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"clip kappa must be in (0, 0.5), got {kappa!r}")
    out = np.minimum(np.maximum(p, kappa), 1.0 - kappa)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PropensityFit:
    """A fitted treatment-probability model.

    ``predict`` maps an (k, dim) covariate matrix to raw probabilities in
    [0, 1]; estimators clamp them through :meth:`predict_clipped` at
    evaluation time.  ``clip_kappa = 0`` disables clamping (oracle and
    diagnostic use only).
    """

    predict: Callable
    learner_id: str
    clip_kappa: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.clip_kappa < 0.5:
            raise ValueError(f"clip kappa must be in [0, 0.5), got {self.clip_kappa!r}")

    def predict_clipped(self, x):
        p = self.predict(x)
        if self.clip_kappa == 0.0:
            return p
        return clip_propensity(p, self.clip_kappa)


def _design(x):
    """Design matrix ``[1, x]`` with an intercept column."""
    return np.column_stack([np.ones(x.shape[0]), x])


def _standardizer(x):
    """Location/scale pair from training covariates; zero-spread columns keep scale 1."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    sd = np.where(sd > 0, sd, 1.0)
    return mu, sd


def _sigmoid(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fit_logistic(x, d, hyper):
    n, dim = x.shape
    lam = hyper.get("l2", 1e-4 * n)
    tol = hyper.get("tol", 1e-8)
    max_iter = hyper.get("max_iter", 100)
    a = _design(x)
    pen = np.zeros(dim + 1)
    pen[1:] = lam
    beta = np.zeros(dim + 1)

    def objective(b):
        eta = a @ b
        # -loglik + 0.5 * lam * ||slopes||^2, numerically stable log(1 + e^eta)
        return float(np.sum(np.logaddexp(0.0, eta) - d * eta) + 0.5 * np.sum(pen * b * b))

    obj = objective(beta)
    for _ in range(max_iter):
        eta = a @ beta
        mu = _sigmoid(eta)
        grad = a.T @ (mu - d) + pen * beta
        if np.linalg.norm(grad) <= tol:
            break
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess = a.T @ (a * w[:, None]) + np.diag(pen)
        step = np.linalg.solve(hess, grad)
        # Damping: halve the Newton step until the objective stops rising
        # (with an ulp-level slack so convergence can finish the last steps).
        slack = 1e-10 * max(1.0, abs(obj))
        t = 1.0
        for _ in range(40):
            cand_obj = objective(beta - t * step)
            if cand_obj <= obj + slack:
                break
            t *= 0.5
        beta = beta - t * step
        obj = objective(beta)
    else:
        raise ConvergenceError("logistic propensity fit did not converge", max_iter)

    intercept = beta[0]
    slopes = beta[1:].copy()

    def predict(xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return _sigmoid(intercept + xq @ slopes)

    return predict


def _nearest(train, query, k):
    """Indices of the k nearest training rows for each query row, ascending.

    These are the first k rows of a stable sort by squared distance: every
    row closer than the k-th distance, then the lowest-index rows at exactly
    that distance.  Ascending indices make neighborhood averages reduce in a
    canonical order (a full neighborhood reproduces the plain arm average
    bit-for-bit).
    """
    d2 = np.sum((query[:, None, :] - train[None, :, :]) ** 2, axis=-1)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    keep = d2 < kth
    ties = d2 == kth
    room = k - keep.sum(axis=1)
    # Only rows with more ties at the k-th distance than places left need the
    # lowest-index ties picked out; elsewhere every tie is kept.
    over = np.flatnonzero(ties.sum(axis=1) > room)
    if over.size:
        t = ties[over]
        t &= np.cumsum(t, axis=1) <= room[over, None]
        ties[over] = t
    keep |= ties
    return np.nonzero(keep)[1].reshape(-1, k)


class _Neighbors:
    """Brute-force k-nearest-neighbor search on standardized covariates.

    Both the distance search and the neighborhood averages run in query-row
    blocks bounded by the shared block budget.  The neighbors of the last
    query set are kept: the cross-fitted route queries each fit repeatedly
    on the same fold rows (once per arm, once per derivative order).
    """

    def __init__(self, x, hyper):
        n = x.shape[0]
        k = int(hyper.get("k") or math.ceil(n ** 0.6))
        self.k = min(max(k, 1), n)
        self.mu, self.sd = _standardizer(x)
        self.train = (x - self.mu) / self.sd
        self._last = (None, None)  # (standardized query, its neighbor indices)

    def neighbors(self, xq):
        query = (np.atleast_2d(np.asarray(xq, dtype=float)) - self.mu) / self.sd
        last_query, last_nb = self._last
        # ``query`` is a fresh array, so a caller mutating ``xq`` later
        # cannot alter the remembered key.
        if last_query is not None and np.array_equal(query, last_query):
            return last_nb
        nb = np.empty((query.shape[0], self.k), dtype=np.intp)
        step = _block_rows(self.train.size)
        for s in range(0, query.shape[0], step):
            nb[s:s + step] = _nearest(self.train, query[s:s + step], self.k)
        self._last = (query, nb)
        return nb

    def average(self, targets, xq):
        """Mean of the training ``targets`` rows over each query's neighbors."""
        nb = self.neighbors(xq)
        out = np.empty((nb.shape[0],) + targets.shape[1:])
        step = _block_rows(self.k * targets[0].size)
        for s in range(0, nb.shape[0], step):
            out[s:s + step] = targets[nb[s:s + step]].mean(axis=1)
        return out


def _fit_knn_propensity(x, d, hyper):
    index = _Neighbors(x, hyper)
    labels = d.astype(float)

    def predict(xq):
        return index.average(labels, xq)

    return predict


def _fit_kernel_propensity(x, d, hyper):
    n, dim = x.shape
    spec = hyper.get("spec") or KernelSpec(GAUSSIAN, n ** (-1.0 / (dim + 4)))
    mu, sd = _standardizer(x)
    train = (x - mu) / sd
    labels = d.astype(float)
    fallback = float(labels.mean())
    step = _block_rows(n)

    def predict(xq):
        # Query rows are weighted in blocks within the shared budget; a
        # block's matrix-vector product may round differently from one over
        # all rows, by a few ulps.
        xq = (np.atleast_2d(np.asarray(xq, dtype=float)) - mu) / sd
        out = np.full(xq.shape[0], fallback)
        for s in range(0, xq.shape[0], step):
            w = _product_weights_block(xq[s:s + step], train, spec)
            den = w.sum(axis=1)
            num = w @ labels
            ok = den > _DEN_FLOOR
            out[s:s + step][ok] = num[ok] / den[ok]
        return out

    return predict


def fit_propensity(subset: Sample, learner="logistic", hyper=None, clip_kappa=0.01):
    """Fit a treatment-probability model on a (sub)sample.

    Requires both treatment values in the subset; raises
    :class:`NoOverlapError` otherwise.
    """
    hyper = dict(hyper or {})
    if subset.arm_count(1) == 0 or subset.arm_count(0) == 0:
        raise NoOverlapError("propensity fitting needs both treatment arms in the subset")
    d = subset.d.astype(float)
    if learner == "logistic":
        predict = _fit_logistic(subset.x, d, hyper)
    elif learner == "knn":
        predict = _fit_knn_propensity(subset.x, subset.d, hyper)
    elif learner == "kernel":
        predict = _fit_kernel_propensity(subset.x, subset.d, hyper)
    else:
        raise ValueError(f"unknown propensity learner {learner!r}")
    return PropensityFit(predict=predict, learner_id=learner, clip_kappa=clip_kappa)


@dataclass(frozen=True)
class SmoothedOutcomeFit:
    """Grid-indexed regressions of smoothed-outcome targets on covariates.

    ``predict(x, grid_index, order)`` returns one fitted value; call
    ``predict_grid(X, order, cols=None)`` for a (k, n_cols) block.  The fit is
    restricted to observations of a single arm.
    """

    grid: np.ndarray
    arm: int
    spec: KernelSpec
    learner_id: str
    predict: Callable
    predict_grid: Callable

    def weighted_grid_sum(self, xq, w, order=0):
        """``w @ predict_grid(xq, order)``: the ``w``-weighted sum of the
        query rows' predictions over the whole grid."""
        return w @ self.predict_grid(xq, order)


@dataclass(frozen=True)
class _LearnedOutcomeFit(SmoothedOutcomeFit):
    """A fit from :func:`fit_smoothed_outcome`, whose learner forms the
    weighted sum without the (queries, grid) prediction matrix."""

    grid_sum: Callable

    def weighted_grid_sum(self, xq, w, order=0):
        return self.grid_sum(np.atleast_2d(np.asarray(xq, dtype=float)), w, order)


def _targets(y, grid_cols, spec, order):
    """Target matrix ``K_h^(order)(grid_cols[j] - y_i)`` of shape (n, len(cols))."""
    return scaled_kernel(spec, grid_cols[None, :] - y[:, None], order)


def _ridge_stats(x, y, grid, spec):
    """Sufficient statistics ``(A^T A, A^T T)`` of a ridge fit on these rows,
    with design ``A = [1, x]`` and order-0 targets ``T = K_h(grid - y)``.

    Statistics of disjoint row sets add up to those of their union.
    """
    a = _design(x)
    return a.T @ a, _kernel_sums(spec, grid, y, a).T


def _fit_ridge_outcome(subset, grid, spec, hyper, stats):
    n, dim = subset.x.shape
    lam = hyper.get("l2", 1e-4 * n)
    a = _design(subset.x)
    y = subset.y
    gram, rhs0 = stats if stats is not None else _ridge_stats(subset.x, y, grid, spec)
    pen = np.zeros(dim + 1)
    pen[1:] = lam
    chol = cho_factor(gram + np.diag(pen), lower=True)
    # Order 0 is read over the whole grid; orders 1 and 2 mostly at a few
    # columns, so they are solved on demand for the requested columns.
    coef0 = cho_solve(chol, rhs0)

    def coef_for(order, cols):
        if order == 0:
            return coef0 if cols is None else coef0[:, cols]
        rhs = _kernel_sums(spec, grid if cols is None else grid[cols], y, a, order).T
        return cho_solve(chol, rhs)

    def predict_grid(xq, order, cols=None):
        return _design(np.atleast_2d(np.asarray(xq, dtype=float))) @ coef_for(order, cols)

    def grid_sum(xq, w, order):
        return (w @ _design(xq)) @ coef_for(order, None)

    return predict_grid, grid_sum


def _fit_knn_outcome(subset, grid, spec, hyper):
    index = _Neighbors(subset.x, hyper)
    y = subset.y

    def predict_grid(xq, order, cols=None):
        cols_grid = grid if cols is None else grid[cols]
        return index.average(_targets(y, cols_grid, spec, order), xq)

    def grid_sum(xq, w, order):
        # Each query row spreads w / k over its neighbors; the sum then reads
        # every training target once instead of k times per query row.
        nb = index.neighbors(xq)
        u = np.bincount(nb.ravel(), weights=np.repeat(w / index.k, index.k), minlength=y.size)
        return _kernel_sums(spec, grid, y, u, order)

    return predict_grid, grid_sum


def fit_smoothed_outcome(subset: Sample, arm, grid, spec: KernelSpec,
                         learner="ridge", hyper=None):
    """Fit the arm-restricted smoothed-outcome regressions over a grid.

    ``subset`` must already be restricted to the requested arm.  All grid
    points and derivative orders share one design factorization (ridge) or
    one neighbor structure (KNN); the targets differ, the design does not.
    """
    return _fit_outcome(subset, arm, grid, spec, learner, hyper)


def _fit_outcome(subset, arm, grid, spec, learner="ridge", hyper=None, stats=None):
    """:func:`fit_smoothed_outcome`, where a ridge fit may take its
    statistics (see :func:`_ridge_stats`) summed from parts of ``subset``."""
    hyper = dict(hyper or {})
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if subset.arm_count(arm) == 0:
        raise NoDataError(f"smoothed-outcome fit received no arm-{arm} observations")
    if not np.all(subset.d == arm):
        raise ValueError(f"subset must contain only arm-{arm} observations")
    if learner == "ridge":
        predict_grid, grid_sum = _fit_ridge_outcome(subset, grid, spec, hyper, stats)
    elif learner == "knn":
        predict_grid, grid_sum = _fit_knn_outcome(subset, grid, spec, hyper)
    else:
        raise ValueError(f"unknown smoothed-outcome learner {learner!r}")

    def predict(x, grid_index, order=0):
        block = predict_grid(np.atleast_2d(np.asarray(x, dtype=float)), order, cols=[grid_index])
        return float(block[0, 0])

    return _LearnedOutcomeFit(
        grid=grid, arm=arm, spec=spec, learner_id=learner,
        predict=predict, predict_grid=predict_grid, grid_sum=grid_sum,
    )
