"""First-step learners for the cross-fitted route: the propensity score and
the smoothed-outcome regressions, which hold no outcome grid.

The smoothed-outcome target for observation ``i`` at an outcome point ``y``
and derivative order ``s`` is the scaled kernel ``K_h^(s)(y - y_i)``, fitted
on one treatment arm only.  A fit is a function of ``y``: it is evaluated on
whatever points a query names.  Ridge solves every (outcome point, order)
target against one Cholesky factor of the design's Gram matrix; KNN averages
targets over neighbors.  Both are linear in the targets, so a weighted sum
of predictions is a weighted kernel sum over the fit's own rows
(:attr:`SmoothedOutcomeFit.row_weights`), which is how the cross-fitted
route reads them.

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

from .density import (
    Sample, _block_rows, _kernel_sums, _mass_floor, _product_weights_block, _scaled_columns,
)
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
            cand = beta - t * step
            cand_obj = objective(cand)
            if cand_obj <= obj + slack:
                break
            t *= 0.5
        beta, obj = cand, cand_obj
    else:
        raise ConvergenceError("logistic propensity fit did not converge", max_iter)

    intercept = beta[0]
    slopes = beta[1:].copy()

    def predict(xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return _sigmoid(intercept + xq @ slopes)

    return predict


def _nearest(train, query, k, scratch):
    """Indices of the k nearest training rows for each query row, ascending.

    These are the first k rows of a stable sort by squared distance: every
    row closer than the k-th distance, then the lowest-index rows at exactly
    that distance.  Ascending indices make neighborhood averages reduce in a
    canonical order (a full neighborhood reproduces the plain arm average
    bit-for-bit).  Every block array is computed into ``scratch``, made for
    at least as many query rows by the caller: room for the coordinate
    differences (later the partitioned distances), the squared distances and
    two masks.
    """
    m, n = query.shape[0], train.shape[0]
    flat, d2, keep, ties = scratch
    d2, keep, ties = d2[:m], keep[:m], ties[:m]
    diff = flat[:m * train.size].reshape(m, n, -1)
    np.subtract(query[:, None, :], train[None, :, :], out=diff)
    np.square(diff, out=diff)
    np.sum(diff, axis=-1, out=d2)
    # The differences are spent; their memory takes the partitioned copy.
    part = flat[:m * n].reshape(m, n)
    np.copyto(part, d2)
    part.partition(k - 1, axis=1)
    kth = part[:, k - 1:k]
    np.less(d2, kth, out=keep)
    np.equal(d2, kth, out=ties)
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
    blocks bounded by the shared block budget.
    """

    def __init__(self, x, hyper):
        n = x.shape[0]
        k = int(hyper.get("k") or math.ceil(n ** 0.6))
        self.k = min(max(k, 1), n)
        self.mu, self.sd = _standardizer(x)
        self.train = (x - self.mu) / self.sd

    def neighbors(self, xq):
        query = (np.atleast_2d(np.asarray(xq, dtype=float)) - self.mu) / self.sd
        nb = np.empty((query.shape[0], self.k), dtype=np.intp)
        step = _block_rows(self.train.size)
        rows, n = min(step, query.shape[0]), self.train.shape[0]
        scratch = (np.empty(rows * self.train.size), np.empty((rows, n)),
                   np.empty((rows, n), dtype=bool), np.empty((rows, n), dtype=bool))
        for s in range(0, query.shape[0], step):
            nb[s:s + step] = _nearest(self.train, query[s:s + step], self.k, scratch)
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

    def predict(xq):
        return index.average(d, xq)

    return predict


def _fit_kernel_propensity(x, d, hyper):
    n, dim = x.shape
    spec = hyper.get("spec") or KernelSpec(GAUSSIAN, n ** (-1.0 / (dim + 4)))
    mu, sd = _standardizer(x)
    train = _scaled_columns((x - mu) / sd, spec)
    floor = _mass_floor(spec, dim)
    fallback = float(d.mean())
    step = _block_rows(n)

    def predict(xq):
        # Query rows are weighted in blocks within the shared budget; a
        # block's matrix-vector product may round differently from one over
        # all rows, by a few ulps.  The kernel's constant cancels in the ratio.
        zq = _scaled_columns((np.atleast_2d(np.asarray(xq, dtype=float)) - mu) / sd, spec)
        out = np.full(zq.shape[1], fallback)
        for s in range(0, zq.shape[1], step):
            w = _product_weights_block(zq[:, s:s + step], train, spec.family)
            den = w.sum(axis=1)
            num = w @ d
            ok = den > floor
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
    fit = {"logistic": _fit_logistic, "knn": _fit_knn_propensity,
           "kernel": _fit_kernel_propensity}.get(learner)
    if fit is None:
        raise ValueError(f"unknown propensity learner {learner!r}")
    return PropensityFit(predict=fit(subset.x, subset.d.astype(float), hyper), learner_id=learner,
                         clip_kappa=clip_kappa)


@dataclass(frozen=True)
class SmoothedOutcomeFit:
    """Regressions of smoothed-outcome targets on covariates, at any outcome point.

    The fit is restricted to observations of a single arm.
    ``predict_grid(X, grid, order=0)`` returns the (k, grid.size) block of
    fitted conditional means of ``K_h^(order)(grid[j] - Y)`` at the rows of
    ``X``; :meth:`predict` one of them.  Both learners are linear smoothers
    of the kernel targets, so ``row_weights(X, w)`` gives weights ``u`` over
    the fit's training rows, in their order, with
    ``w @ predict_grid(X, grid, order)[:, j] == sum_t u_t K_h^(order)(grid[j] - y_t)``
    for every order and outcome point; ``w`` has shape (k,) or (k, c), and
    ``u`` then (rows,) or (rows, c).
    """

    arm: int
    spec: KernelSpec
    learner_id: str
    predict_grid: Callable
    row_weights: Callable

    def predict(self, x, y, order=0):
        """One fitted value, at covariate point ``x`` and outcome point ``y``."""
        block = self.predict_grid(np.atleast_2d(np.asarray(x, dtype=float)), np.array([y], float),
                                  order)
        return float(block[0, 0])


def _fit_ridge_outcome(x, y, spec, hyper):
    n, dim = x.shape
    lam = hyper.get("l2", 1e-4 * n)
    a = _design(x)
    pen = np.zeros(dim + 1)
    pen[1:] = lam
    chol = cho_factor(a.T @ a + np.diag(pen), lower=True)

    def predict_grid(xq, grid, order=0):
        rhs = _kernel_sums(spec, np.asarray(grid, dtype=float), y, a, order).T
        return _design(np.atleast_2d(np.asarray(xq, dtype=float))) @ cho_solve(chol, rhs)

    def row_weights(xq, w):
        return a @ cho_solve(chol, _design(np.atleast_2d(np.asarray(xq, dtype=float))).T @ w)

    return predict_grid, row_weights


def _fit_knn_outcome(x, y, spec, hyper):
    index = _Neighbors(x, hyper)

    def predict_grid(xq, grid, order=0):
        targets = scaled_kernel(spec, np.asarray(grid, dtype=float)[None, :] - y[:, None], order)
        return index.average(targets, xq)

    def row_weights(xq, w):
        # Each query row spreads w / k over its neighbors.
        nb = index.neighbors(xq).ravel()
        u = [np.bincount(nb, weights=np.repeat(col, index.k), minlength=y.size)
             for col in (w.reshape(w.shape[0], -1) / index.k).T]
        return np.column_stack(u).reshape((y.size,) + w.shape[1:])

    return predict_grid, row_weights


def fit_smoothed_outcome(subset: Sample, arm, spec: KernelSpec, learner="ridge", hyper=None):
    """Fit the arm-restricted smoothed-outcome regressions.

    ``subset`` must already be restricted to the requested arm.  All outcome
    points and derivative orders share one factorization of the design's
    Gram matrix (ridge) or one neighbor structure (KNN); the targets differ,
    the design does not.
    """
    hyper = dict(hyper or {})
    if subset.arm_count(arm) == 0:
        raise NoDataError(f"smoothed-outcome fit received no arm-{arm} observations")
    if not np.all(subset.d == arm):
        raise ValueError(f"subset must contain only arm-{arm} observations")
    fit = {"ridge": _fit_ridge_outcome, "knn": _fit_knn_outcome}.get(learner)
    if fit is None:
        raise ValueError(f"unknown smoothed-outcome learner {learner!r}")
    predict_grid, row_weights = fit(subset.x, subset.y, spec, hyper)
    return SmoothedOutcomeFit(arm=arm, spec=spec, learner_id=learner,
                              predict_grid=predict_grid, row_weights=row_weights)
