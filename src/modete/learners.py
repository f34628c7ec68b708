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
  standardized covariates; ties at the k-th distance go to the lowest row
  index).  The search is exact; with one covariate it compares a query only
  with the slab of sorted rows within an upper bound on its k-th distance
  (:class:`_Neighbors`), with more it compares every row.
* kernel -- Nadaraya-Watson with ``spec`` defaulting to a Gaussian kernel and
  Scott-rule bandwidth ``n ** (-1 / (dim + 4))`` on standardized covariates.
* ridge -- ``l2`` penalty on slopes ``1e-4 * n`` (intercept unpenalized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve

from .density import (
    Sample, _block_rows, _kernel_sums, _lift, _mass_floor, _product_weights_block, _scaled_columns,
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
    # exp(-|eta|) is exp(-eta) where eta >= 0 and exp(eta) below, so this is
    # 1 / (1 + exp(-eta)) and exp(eta) / (1 + exp(eta)) without an overflow.
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


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


def _sq_distances(train, cols, query, cand=None):
    """Squared distances ``np.sum(np.square(q - t), axis=-1)`` from each
    query row to every training row, or, with one coordinate, to the rows
    named in its row of ``cand``; ``cols`` holds the training columns, each
    contiguous.

    With one or two coordinates that sum makes at most one addition, so
    adding the coordinates' squares column by column gives its bits without
    numpy's slow reduction over a short last axis.  With more, the order in
    which numpy adds the squares is its own, so its reduction is kept.
    """
    if query.shape[1] > 2:
        diff = np.subtract(query[:, None, :], train)
        return np.sum(np.square(diff, out=diff), axis=-1)
    d2 = None
    for q, col in zip(query.T, cols):
        diff = q[:, None] - (col if cand is None else col[cand])
        np.square(diff, out=diff)
        d2 = diff if d2 is None else np.add(d2, diff, out=d2)
    return d2


def _nearest(train, cols, query, k, cand=None):
    """Indices of the k nearest training rows for each query row, ascending.

    These are the first k rows of a stable sort by squared distance: every
    row closer than the k-th distance, then the lowest-index rows at exactly
    that distance.  Ascending indices make neighborhood averages reduce in a
    canonical order (a full neighborhood reproduces the plain arm average
    bit-for-bit).  The candidates are every training row, or, where ``cand``
    is given, the ascending row indices in each query's row of ``cand``;
    those must include every row at or within the query's k-th distance,
    and then the selection among them is the one among all rows.
    """
    m, c = query.shape[0], train.shape[0] if cand is None else cand.shape[1]
    if c == k:  # k candidates holding the k nearest are the k nearest
        return np.broadcast_to(np.arange(k), (m, k)) if cand is None else cand
    d2 = _sq_distances(train, cols, query, cand)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    keep = d2 < kth
    ties = d2 == kth
    room = k - np.count_nonzero(keep, axis=1)
    # Only rows with more ties at the k-th distance than places left need the
    # lowest-index ties picked out; elsewhere every tie is kept.
    over = np.flatnonzero(np.count_nonzero(ties, axis=1) > room)
    if over.size:
        t = ties[over]
        t &= np.cumsum(t, axis=1) <= room[over, None]
        ties[over] = t
    keep |= ties
    # Each row keeps k entries, so the flat positions fall k to a row.
    flat = np.flatnonzero(keep)
    if cand is not None:
        return cand.reshape(-1)[flat].reshape(m, k)
    return flat.reshape(m, k) - np.arange(0, m * c, c)[:, None]


class _Neighbors:
    """Exact k-nearest-neighbor search on standardized covariates.

    The training rows are sorted once by their first coordinate.  With one
    covariate a query's squared distance to a row is ``(q0 - t0)**2``, so
    the k rows nearest it in sorted position bound its k-th distance from
    above by the largest of their distances, ``U``; every row with
    ``(q0 - t0)**2 > U`` is strictly farther than the k-th neighbor, so it
    can neither be one nor tie with one.  The other rows form one run of the
    sorted order, the slab, found by bisection and certified by testing the
    first row left out on each side; the selection runs on the slab's rows
    in index order and returns what it returns on all rows, bit for bit.  A
    query block whose widest slab holds more than half the rows compares
    every row instead, and so does every query with two or more covariates:
    a bound from the first coordinate alone hardly prunes evenly spread rows.

    Both the distance search and the neighborhood averages run in query-row
    blocks bounded by the shared block budget.
    """

    def __init__(self, x, hyper):
        n = x.shape[0]
        k = int(hyper.get("k") or math.ceil(n ** 0.6))
        self.k = min(max(k, 1), n)
        self.mu, self.sd = _standardizer(x)
        self.train = (x - self.mu) / self.sd
        self.cols = np.ascontiguousarray(self.train.T)
        self.order = np.argsort(self.cols[0], kind="stable")
        self.first = self.cols[0][self.order]

    def _slab(self, query):
        """Per query row, the run ``[lo, hi)`` of the sorted rows that holds its slab."""
        n, k = self.train.shape[0], self.k
        if 2 * k > n or query.shape[1] > 1:  # a slab holds at least k rows; see the class
            return np.zeros(query.shape[0], dtype=np.intp), np.full(query.shape[0], n)
        first, q0 = self.first, query[:, 0]
        # Bisect for the k rows nearest each query in the first coordinate.
        slot = np.searchsorted(first, q0)
        lo, hi = np.clip(slot - k, 0, n - k), np.minimum(slot, n - k)
        for _ in range(k.bit_length()):
            mid = (lo + hi) // 2
            right = q0 - first[mid] > first[np.minimum(mid + k, n - 1)] - q0
            lo, hi = np.where(right, np.minimum(mid + 1, hi), lo), np.where(right, hi, mid)
        # The distance is (q0 - t0)**2 itself, which falls and then rises
        # along the sorted rows, so the run's largest is at one of its ends.
        bound = np.maximum(np.square(q0 - first[lo]), np.square(q0 - first[lo + k - 1]))
        # A radius a little wider than sqrt(U) absorbs the rounding of
        # q0 -+ r and of the squares; the exact test below decides.
        r = np.sqrt(bound) * (1.0 + 2.0 ** -40) + np.abs(q0) * 2.0 ** -40
        lo = np.searchsorted(first, q0 - r, "left")
        hi = np.searchsorted(first, q0 + r, "right")
        # A side whose first row left out is not certified farther than U
        # (only where rounding defeats the margin) widens to the end.
        lo[(lo > 0) & ~(np.square(q0 - first[lo - 1]) > bound)] = 0
        hi[(hi < n) & ~(np.square(q0 - first[np.minimum(hi, n - 1)]) > bound)] = n
        return lo, hi

    def neighbors(self, xq):
        query = (np.atleast_2d(np.asarray(xq, dtype=float)) - self.mu) / self.sd
        (n, dim), k = self.train.shape, self.k
        nb = np.empty((query.shape[0], k), dtype=np.intp)
        # Queries go in order of their first coordinate, so that a block's
        # slabs are of like width.  A block is bounded in arrays of k columns,
        # then searched in sub-blocks sized by its widest slab, or by all rows
        # where that holds more than half of them.
        by_first = np.argsort(query[:, 0], kind="stable")
        step = _block_rows(k * dim)
        for s in range(0, query.shape[0], step):
            rows = by_first[s:s + step]
            lo, hi = self._slab(query[rows])
            widest = int((hi - lo).max())
            sub = _block_rows((n if 2 * widest > n else widest) * dim)
            for t in range(0, rows.size, sub):
                part = slice(t, t + sub)
                w = int((hi[part] - lo[part]).max())
                cand = None
                if 2 * w <= n:
                    # Rows of a window view copy as contiguous runs, many
                    # times faster than gathering through an index array.
                    cand = sliding_window_view(self.order, w)[np.minimum(lo[part], n - w)]
                    cand.sort(axis=1)
                nb[rows[part]] = _nearest(self.train, self.cols, query[rows[part]], k, cand)
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
        # A Gaussian block is lifted to a matrix product where the queries and
        # the training rows certify it (density._lift), which moves a ratio
        # by at most 2 * density._LIFT_TOL relative.
        zq = _scaled_columns((np.atleast_2d(np.asarray(xq, dtype=float)) - mu) / sd, spec)
        lift = _lift(zq, train) if spec.family == GAUSSIAN else None
        out = np.full(zq.shape[1], fallback)
        for s in range(0, zq.shape[1], step):
            if lift is None:
                w = _product_weights_block(zq[:, s:s + step], train, spec.family)
            else:
                w = lift[0][s:s + step] @ lift[1]
                np.exp(w, out=w)
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
