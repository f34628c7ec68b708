"""Conditional and marginal outcome-density estimation.

The conditional estimator is a locally weighted ratio: outcome kernels in the
numerator, covariate product kernels in both numerator and denominator,
restricted to one treatment arm.  The marginal estimator averages the
conditional one over the covariates of *all* observations (both arms), which
is what identifies the potential-outcome density under unconfoundedness.

Derivative orders 0-2 of the outcome kernel give the density, its slope and
its curvature on a common footing.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLocalityError
from .kernels import (
    _SQRT_2PI, GAUSSIAN, KernelSpec, eval_kernel, kernel_constants, product_kernel, scaled_kernel,
)

# Denominators at or below this are treated as exactly zero.
_DEN_FLOOR = 1e-300

# Bytes of one block matrix: a row block's covariate weights (both arms), or a
# grid chunk of curve kernels.  2 MiB keeps a block in a core's L2 cache, which
# made the weight pass about twice as fast as 64 MiB blocks at n = 8000.  The
# weight pass runs up to two row blocks at once, and the cross-fitted route up
# to two folds' kernel sums, one on each worker of the pool (see
# :func:`_in_order`), so they take two budgets; smaller blocks would change
# the bits of the weight pass's sums.
_BLOCK_BYTES = 2 * 2**20


def _reset_pool():
    """Make the pool of :func:`_in_order`: two worker threads, which it
    starts on the first submits.  A forked child makes its own, because its
    copies of the parent's worker threads do not run."""
    global _pool
    _pool = ThreadPoolExecutor(2, thread_name_prefix="modete-lane")


_reset_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed triples (outcome, binary treatment, covariates).

    Arrays are validated, cast to float/int, and frozen read-only so samples
    can be shared across threads and replications.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        d = np.ascontiguousarray(np.asarray(self.d))
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        if y.ndim != 1 or y.size < 1:
            raise ValueError("y must be a non-empty 1-d array")
        n = y.size
        if d.shape != (n,):
            raise ValueError(f"d must have shape ({n},), got {d.shape}")
        if x.ndim != 2 or x.shape[0] != n or x.shape[1] < 1:
            raise ValueError(f"x must have shape ({n}, dim) with dim >= 1, got {x.shape}")
        if not np.isfinite(y).all() or not np.isfinite(x).all():
            raise ValueError("y and x must be finite (no NaN or infinity)")
        if not np.isin(d, (0, 1)).all():
            raise ValueError("d must contain only 0 and 1")
        d = d.astype(np.int64)
        for arr in (y, d, x):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)

    @property
    def n(self):
        return self.y.size

    @property
    def dim(self):
        return self.x.shape[1]

    def arm_count(self, arm):
        return int(np.sum(self.d == arm))

    def arm_indices(self, arm):
        return np.flatnonzero(self.d == arm)

    def subset(self, indices):
        idx = np.asarray(indices)
        return Sample(self.y[idx], self.d[idx], self.x[idx])


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A density (or density derivative) evaluated on an outcome grid."""

    grid: np.ndarray
    values: np.ndarray
    arm: int
    order: int
    spec: KernelSpec

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be 1-d with at least 3 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid shape")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def default_grid(y, h, points=512):
    """Equally spaced outcome grid padded by one bandwidth on each side."""
    y = np.asarray(y, dtype=float)
    if points < 3:
        raise ValueError("grid needs at least 3 points")
    return np.linspace(y.min() - h, y.max() + h, points)


def cond_density_at(sample: Sample, arm, spec: KernelSpec, y, x, order=0):
    """Arm-restricted conditional density (or y-derivative) at one point.

    Raises :class:`DegenerateLocalityError` when the covariate point has no
    kernel mass in the requested arm.
    """
    ind = (sample.d == arm).astype(float)
    xw = product_kernel(spec, np.asarray(x, dtype=float) - sample.x)
    w = ind * xw
    den = float(np.sum(w))
    if den <= _DEN_FLOOR:
        raise DegenerateLocalityError(arm, x)
    num = float(np.sum(w * scaled_kernel(spec, y - sample.y, order)))
    return num / den


def _block_rows(n):
    """Rows per block, so that one block's weights against ``n`` points fit the budget."""
    return max(1, _BLOCK_BYTES // (8 * n))


# Items that may be queued beyond the next one to be yielded.  Their results
# wait until then, so this bounds the memory they hold; it also lets either
# worker carry on through a stall of the other of up to this many items.
_AHEAD = 8


def _threads(items):
    """Threads for a map over ``items`` items: the pool's two workers when
    there is more than one item and at least two cores are usable, otherwise
    the calling thread alone."""
    if items < 2:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if (cores or 1) > 1 else 1


def _in_order(fn, items, threads=None):
    """Yield ``fn(item)`` for each item, in order.

    ``threads`` defaults to :func:`_threads`.  On one thread, the calling
    thread runs the items.  On two, they are queued on the pool, whose
    workers each take the next one as they come free, with at most
    ``_AHEAD`` queued past the next one to be yielded; ``fn`` must write
    nothing that another item owns, and must not map on the pool itself: a
    worker waiting for items queued behind it could deadlock the pool.  An
    error surfaces in item order, after every earlier item's result; when the
    generator stops, unstarted items are cancelled and running ones waited
    for, so a failed map leaves the pool idle.
    """
    if threads is None:
        threads = _threads(len(items))
    if threads < 2:
        yield from map(fn, items)
        return
    pending = deque()
    try:
        for item in items:
            pending.append(_pool.submit(fn, item))
            if len(pending) > _AHEAD:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        wait([future for future in pending if not future.cancel()])


def _product_weights_block(x_block, x_all, spec, out=None, tmp=None):
    """Covariate product-kernel weights between a row block and all points.

    The Gaussian product is one ``exp`` of the summed squared coordinates,
    computed in ``out`` (with ``tmp`` as scratch when d > 1) if they are
    given; other families multiply one kernel factor per coordinate, in
    fresh arrays.
    """
    dim = x_all.shape[1]
    if spec.family == GAUSSIAN:
        w = np.subtract.outer(x_block[:, 0], x_all[:, 0], out=out)
        w /= spec.h
        w *= w
        u = (np.empty_like(w) if tmp is None else tmp) if dim > 1 else None
        for c in range(1, dim):
            np.subtract.outer(x_block[:, c], x_all[:, c], out=u)
            u /= spec.h
            u *= u
            w += u
        w *= -0.5
        np.exp(w, out=w)
        w *= (_SQRT_2PI * spec.h) ** (-dim)
        return w
    w = eval_kernel(spec.family, (x_block[:, 0, None] - x_all[None, :, 0]) / spec.h, 0)
    for c in range(1, dim):
        w *= eval_kernel(spec.family, (x_block[:, c, None] - x_all[None, :, c]) / spec.h, 0)
    w *= spec.h ** (-dim)
    return w


def _kernel_sums(spec, grid, y, w, order=0):
    """Weighted outcome-kernel sums ``K_h^(order)(grid[:, None] - y) @ w``.

    ``w`` is one weight per point of ``y``, or a few weight columns; the
    result has one row per grid point.  Kernels are evaluated one chunk of
    grid points at a time, each chunk within the block budget.  The order-0
    Gaussian chunk is filled in place with one ``exp``, with the same
    arithmetic as :func:`scaled_kernel`, so it gives the same bits.
    """
    out = np.empty((grid.size,) + w.shape[1:])
    step = _block_rows(max(y.size, 1))
    fused = order == 0 and spec.family == GAUSSIAN
    if fused:
        buf = np.empty((min(step, grid.size), y.size))
    for start in range(0, grid.size, step):
        g = grid[start:start + step]
        if fused:
            k = buf[:g.size]
            np.subtract.outer(g, y, out=k)
            k /= spec.h
            k *= k
            k *= -0.5
            np.exp(k, out=k)
            k /= _SQRT_2PI
            k *= spec.h ** -1
        else:
            k = scaled_kernel(spec, g[:, None] - y[None, :], order)
        out[start:start + step] = k @ w
    return out


@dataclass(frozen=True, eq=False)
class KernelArmFit:
    """One arm's kernel-route fit: curve weights over the arm's outcomes.

    A curve value at ``y`` is ``sum(c * K_h^(order)(y - y_arm)) / n``; with
    variance weights ``c_var`` (see :func:`_weight_pass`) the same sum at
    ``theta`` averages ``f_hat(theta | x_i) / p_i`` for the score variance.
    Only the estimator's pass computes ``c_var``; :func:`marginal_arm_fit`
    leaves it None, so such a fit has no :meth:`components`.
    """

    y: np.ndarray
    c: np.ndarray
    c_var: np.ndarray | None
    spec: KernelSpec
    n: int

    def curve(self, grid, order=0):
        """Curve values over a grid."""
        return _kernel_sums(self.spec, grid, self.y, self.c, order) / self.n

    def value(self, y, order=0):
        """Curve value at one outcome point."""
        return float(np.dot(scaled_kernel(self.spec, y - self.y, order), self.c)) / self.n

    def components(self, theta):
        """``(m_hat, v_hat)`` at ``theta``: the order-2 curve, and ``kappa0_1``
        times the ``c_var``-weighted order-0 curve."""
        kappa0_1 = kernel_constants(self.spec.family).kappa0_1
        v_sum = float(np.dot(scaled_kernel(self.spec, theta - self.y, 0), self.c_var)) / self.n
        return self.value(theta, 2), kappa0_1 * v_sum


def _weight_pass(sample: Sample, spec: KernelSpec, arms=(1, 0), share=None):
    """One blocked O(n^2) covariate-weight pass: ``{arm: KernelArmFit}``.

    With ``den[i]`` the arm's covariate-kernel mass at ``x_i`` (all ``i``),
    ``c[j] = sum_i w_ij / den[i]`` over the arm's observations ``j`` makes a
    curve value at any outcome ``y`` equal ``sum(c * K_h(y - y_j)) / n``.
    With ``share``, ``c_var[j] = sum_i w_ij / (den[i] * p[i])``, where
    ``p = share(arm, den_rows, rows)`` is the arm's clipped probability, so
    ``sum(c_var * K_h(theta - y_j)) / n`` averages ``f_hat(theta | x_i) / p[i]``
    and the variance needs no second pass; otherwise ``c_var`` is None.

    Columns are ordered by arm once, each arm's points gathered in sample
    order into one contiguous array that every row block is evaluated
    against: no block is copied by fancy indexing, and reductions see only
    the arm's own columns, so samples related by an arm swap (or arm
    duplication) give bit-identical results for the corresponding arm.

    Each row block writes its own rows of ``den`` and returns its
    contributions to ``c`` and ``c_var``; the blocks run on the calling
    thread or on the pool's two workers (:func:`_threads`,
    :func:`_in_order`), and the contributions are added strictly in block
    order, so the result is bit-identical on one core or two.  A point with
    no kernel mass raises :class:`DegenerateLocalityError` for the first such
    block, as a one-thread pass would.
    """
    n = sample.n
    idx = {arm: sample.arm_indices(arm) for arm in arms}
    x_arm = {arm: sample.x[i] for arm, i in idx.items()}
    den = {arm: np.empty(n) for arm in idx}
    acc = {arm: np.zeros(i.size) for arm, i in idx.items()}
    acc_var = {arm: np.zeros(i.size) for arm, i in idx.items()} if share is not None else {}
    step = _block_rows(n)
    starts = range(0, n, step)
    threads = _threads(len(starts))
    # Each thread of the pass reuses one scratch array, holding every arm's
    # weights and, for d > 1, one arm's worth of scratch.  The calling thread
    # makes them all: block-sized arrays made on a worker thread come from its
    # own malloc arena, which can hand their pages back after each block and
    # fault them in again (at n = 8000 that cost most of the second thread's
    # gain).  A thread takes its array on its first block; only that thread
    # reads or writes its key.
    width = max(i.size for i in idx.values()) if sample.dim > 1 else 0
    spare = [np.empty(step * (n + width)) for _ in range(threads)]
    scratch = {}

    def block(start):
        rows = slice(start, min(start + step, n))
        m = rows.stop - start
        me = threading.get_ident()
        if me not in scratch:
            scratch[me] = spare.pop()
        buf, used = scratch[me], 0
        w, c, c_var = {}, {}, {}
        for arm in idx:
            size = m * idx[arm].size
            w[arm] = _product_weights_block(
                sample.x[rows], x_arm[arm], spec, out=buf[used:used + size].reshape(m, -1),
                tmp=buf[step * n:step * n + size].reshape(m, -1) if width else None)
            used += size
            d_blk = w[arm].sum(axis=1)
            bad = np.flatnonzero(d_blk <= _DEN_FLOOR)
            if bad.size:
                i = start + int(bad[0])
                raise DegenerateLocalityError(arm, sample.x[i], index=i)
            den[arm][rows] = d_blk
            c[arm] = w[arm].T @ (1.0 / d_blk)
        if share is not None:
            for arm in idx:
                p = share(arm, {a: den[a][rows] for a in idx}, rows)
                c_var[arm] = w[arm].T @ (1.0 / (den[arm][rows] * p))
        return c, c_var

    for c, c_var in _in_order(block, starts, threads):
        for arm in acc:
            acc[arm] += c[arm]
        for arm in acc_var:
            acc_var[arm] += c_var[arm]
    return {arm: KernelArmFit(sample.y[idx[arm]], acc[arm], acc_var.get(arm), spec, n)
            for arm in idx}


def marginal_arm_fit(sample: Sample, arm, spec: KernelSpec) -> KernelArmFit:
    """One arm's marginal-curve fit (without variance weights).

    Raises :class:`DegenerateLocalityError` when the arm is empty or some
    covariate point has no kernel mass in it.
    """
    if sample.arm_count(arm) == 0:
        raise DegenerateLocalityError(arm, None)
    return _weight_pass(sample, spec, arms=(arm,))[arm]


def marginal_density_curve(sample: Sample, arm, spec: KernelSpec, grid, order=0):
    """Marginal potential-outcome density curve for one arm.

    Averages the arm-restricted conditional estimator over the covariates of
    every observation.  The covariate weight pass is computed once and shared
    across all grid points.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-d and strictly increasing")
    values = marginal_arm_fit(sample, arm, spec).curve(grid, order)
    return DensityCurve(grid=grid, values=values, arm=arm, order=order, spec=spec)
