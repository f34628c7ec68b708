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

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLocalityError
from .kernels import (
    _SQRT_2PI, GAUSSIAN, KernelSpec, _kernel_scale, kernel_constants, product_kernel, scaled_kernel,
)

# Denominators at or below this are treated as exactly zero.
_DEN_FLOOR = 1e-300

# Order-0 Gaussian outcome kernels with an exp argument below this are exactly
# 0 in :func:`_kernel_sums`: exp(-707) / sqrt(2 pi) = 3.6e-308 is still normal.
_EXP_FLOOR = -707.0

# Bytes of one block matrix: a row block's covariate weights (both arms), or a
# grid chunk of curve kernels.  2 MiB keeps a block in a core's L2 cache, which
# made the weight pass about twice as fast as 64 MiB blocks at n = 8000.  The
# weight pass runs up to two row blocks at once, and the cross-fitted route up
# to two folds' fits, one on each worker of the pool (see :func:`_in_order`),
# so they take two budgets; smaller blocks would change the bits of the weight
# pass's sums.  A lifted Gaussian block (:func:`_lift`) is made in its budget
# with no scratch array; the difference block needs one arm's worth of
# scratch for d > 1.
_BLOCK_BYTES = 2 * 2**20

# Unit roundoff of a double, for the rounding terms of the scan's bound and of
# the lifted Gaussian exponents.
_U = 2.0 ** -53

# Largest certified relative deviation of a covariate weight, from the
# rounding of its lifted exponent, at which :func:`_lift` lifts the Gaussian
# block to a matrix product.
_LIFT_TOL = 1e-12

# Lattice bins per grid step in :func:`_binned_sums`; its error bound falls as
# the square of the bin width.
_SCAN_BINS = 8

# :func:`_binned_sums` gives up on a lattice of more than this many times
# ``_SCAN_BINS`` bins per grid point (outcomes or kernel reach far past the
# grid), so its buffers stay O(grid size) whatever n and h.  The default grid
# needs at most 3.
_SCAN_SPAN = 4


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


# Set by the initializer of the Monte Carlo worker processes
# (:func:`simulation.run_monte_carlo`), which already run one replication per
# core: every map in them runs on the calling thread.
_inline = False


def _cores():
    """Cores in this process's affinity mask."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def _threads(items):
    """Threads for a map over ``items`` items: the pool's two workers when
    there is more than one item and at least two cores are usable, otherwise
    the calling thread alone.  In a Monte Carlo worker process (``_inline``)
    it is always the calling thread."""
    if items < 2 or _inline:
        return 1
    return 2 if _cores() > 1 else 1


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


def _scaled_columns(x, spec):
    """Covariates pre-scaled for :func:`_product_weights_block`, one contiguous
    row per coordinate: ``(d, n)``.  The Gaussian divides by ``h sqrt(2)``, so
    that ``(z_i - z_j)**2 = ((x_i - x_j) / h)**2 / 2``; Epanechnikov by ``h``."""
    scale = spec.h * math.sqrt(2.0) if spec.family == GAUSSIAN else spec.h
    with np.errstate(over="ignore"):
        return np.ascontiguousarray((x / scale).T)


def _mass_floor(spec, dim):
    """Row sums of :func:`_product_weights_block` at or below this count as
    no kernel mass: the sum times the kernel's constant (``(sqrt(2 pi) h)**-d``
    or ``(0.75 / h)**d``) is at or below ``_DEN_FLOOR``, or the sum itself is,
    which keeps its reciprocal finite.  The constant is never formed: it
    overflows a double for small ``h``."""
    scale = _SQRT_2PI * spec.h if spec.family == GAUSSIAN else spec.h / 0.75
    with np.errstate(over="ignore", under="ignore"):
        return max(_DEN_FLOOR, float(_DEN_FLOOR * np.float64(scale) ** dim))


def _product_weights_block(z_block, z_all, family, out=None, tmp=None):
    """Covariate product-kernel weights between a row block and all points,
    without the kernel's constant, which cancels wherever a weight is divided
    by its row's sum.

    ``z_block`` ``(d, m)`` and ``z_all`` ``(d, k)`` are covariates from
    :func:`_scaled_columns`; the result is ``(m, k)``, computed in ``out``
    (with ``tmp`` as scratch when d > 1) if they are given.  Each pair costs a
    subtraction and a square per coordinate, and then the Gaussian's
    ``exp(-sum_c (z_ic - z_jc)**2)`` or Epanechnikov's
    ``prod_c max(0, 1 - (z_ic - z_jc)**2)``: no division and no constant.  A
    squared distance too large for a double is infinite, and its weight 0; a
    scaled covariate too large for one gives nan weights, whose rows
    :func:`_weight_pass` reports as having no mass.

    This is the difference block.  Where :func:`_lift` certifies it, the
    callers make the Gaussian block instead as ``exp(a[rows] @ b)``, one
    rank-(d + 2) matrix product and one ``exp`` written straight into the
    block, with each weight within a relative ``_LIFT_TOL`` (1e-12) of this
    one's exact value; elsewhere, and for Epanechnikov, they call this.
    """
    gaussian = family == GAUSSIAN
    combine = np.add if gaussian else np.multiply

    def factor(c, dest):
        u = np.subtract.outer(z_block[c], z_all[c], out=dest)
        u *= u
        if not gaussian:
            np.subtract(1.0, u, out=u)
            np.maximum(u, 0.0, out=u)
        return u

    with np.errstate(over="ignore", invalid="ignore"):
        w = factor(0, out)
        if z_all.shape[0] > 1:
            u = np.empty_like(w) if tmp is None else tmp
            for c in range(1, z_all.shape[0]):
                combine(w, factor(c, u), out=w)
        if gaussian:
            np.negative(w, out=w)
            np.exp(w, out=w)
    return w


def _lift(z_rows, z_cols=None):
    """Lifted operands ``(a, b)`` of the Gaussian covariate block between the
    points of ``z_rows`` and of ``z_cols`` (``z_rows`` when None), both
    ``(d, .)`` from :func:`_scaled_columns`: ``exp(a[rows] @ b[:, cols])`` is
    the block of :func:`_product_weights_block` within a certified relative
    ``_LIFT_TOL`` per weight, or None where that is not certified.

    In exact arithmetic ``-|z_i - z_j|**2 = a_i . b_j`` with
    ``a_i = (2 z_i, -|z_i|**2, 1)`` and ``b_j = (z_j, 1, -|z_j|**2)``: each
    point is lifted once, in O(d) work, and a block of exponents is a
    rank-(d + 2) matrix product, in place of d subtractions, d squares, d - 1
    additions and a negation per pair.  The product cancels, so its rounding
    grows with ``R2 = max |z|**2`` over both point sets.  With
    ``u = 2**-53`` and ``g_k = k u / (1 - k u)`` (Higham 2002, sec. 3.1):

    * each computed ``|z|**2`` is within ``g_d |z|**2``, which moves
      ``a_i . b_j`` by at most ``2 g_d R2`` (``R2`` is bounded by the
      largest computed ``|z|**2`` over ``1 - g_d``);
    * the inner product of length d + 2, rounded in any order, is within
      ``g_{d+2} sum_k |a_ik b_kj|`` of its exact value, and that sum is at
      most ``2 R2 + 2 (1 + g_d) R2``.

    So each exponent is within ``dev = (g_{d+2} (4 + 2 g_d) + 2 g_d) R2``,
    about ``(6 d + 8) u R2``, of ``-|z_i - z_j|**2``, and each weight, before
    the ``exp``'s own rounding (which the difference block shares), within a
    relative ``expm1(dev)``.  The lift is taken where that is at most
    ``_LIFT_TOL``: ``R2`` up to about 450 at d = 2, that is every covariate
    point within 30 bandwidths of the origin.  A larger or non-finite
    ``R2``, as at a small bandwidth, gives None, and the caller runs the
    difference block.
    """
    d = z_rows.shape[0]
    g_d, g_k = (k * _U / (1.0 - k * _U) for k in (d, d + 2))
    with np.errstate(over="ignore"):
        q_rows = (z_rows * z_rows).sum(axis=0)
        q_cols = q_rows if z_cols is None else (z_cols * z_cols).sum(axis=0)
        r2 = float(max(q_rows.max(initial=0.0), q_cols.max(initial=0.0))) / (1.0 - g_d)
    if not (g_k * (4.0 + 2.0 * g_d) + 2.0 * g_d) * r2 <= math.log1p(_LIFT_TOL):
        return None
    if z_cols is None:
        z_cols = z_rows
    a = np.column_stack([2.0 * z_rows.T, -q_rows, np.ones(q_rows.size)])
    b = np.vstack([z_cols, np.ones(q_cols.size), -q_cols])
    return a, b


def _kernel_sums(spec, grid, y, w, order=0):
    """Weighted outcome-kernel sums ``K_h^(order)(grid[:, None] - y) @ w``.

    ``w`` is one weight per point of ``y``, or a few weight columns; the
    result has one row per grid point.  Kernels are evaluated one chunk of
    grid points at a time, each chunk within the block budget.  The order-0
    Gaussian chunk is filled in place with one ``exp``, with the same
    arithmetic as :func:`scaled_kernel`, so it gives the same bits, except in
    the underflow tail: a kernel whose ``exp`` argument lies below
    ``_EXP_FLOOR`` is exactly 0 (its argument is raised to the floor before
    the ``exp``, and its value zeroed after it).  Each such kernel was below
    ``3.6e-308 / h``, so a sum moves by at most that times ``sum(|w|)``; a
    kept kernel stays a normal double for ``h <= 1.6``, so the chunk holds no
    subnormal, on which numpy's ``exp`` is 4 to 90 times slower.  Covariate weights keep their
    tails (:func:`_product_weights_block`): a weight is divided by its
    point's kernel mass, which can be as small as the weight itself.  A
    square that overflows is infinite, and its kernel 0.
    """
    out = np.empty((grid.size,) + w.shape[1:])
    step = _block_rows(max(y.size, 1))
    fused = order == 0 and spec.family == GAUSSIAN
    if fused:
        scale = _kernel_scale(spec.h, 0)
        buf = np.empty((min(step, grid.size), y.size))
        kept = np.empty(buf.shape, dtype=bool)
    for start in range(0, grid.size, step):
        g = grid[start:start + step]
        if fused:
            k, keep = buf[:g.size], kept[:g.size]
            with np.errstate(over="ignore"):
                np.subtract.outer(g, y, out=k)
                k /= spec.h
                k *= k
            k *= -0.5
            # A clamp and a multiply by the mask cost far less than masked
            # assignment; the clamp also keeps an overflowed -inf from
            # turning into nan.
            np.greater_equal(k, _EXP_FLOOR, out=keep)
            np.maximum(k, _EXP_FLOOR, out=k)
            np.exp(k, out=k)
            k *= keep
            k /= _SQRT_2PI
            k *= scale
        else:
            k = scaled_kernel(spec, g[:, None] - y[None, :], order)
        out[start:start + step] = k @ w
    return out


def _sum_rounding(spec, y, w):
    """Bound on the rounding of one order-0 Gaussian sum of :func:`_kernel_sums`
    (kernel evaluation, any summation order over ``y.size`` terms, and a
    division by the fit size): ``(y.size + 32) * u * sum(|w|) / (sqrt(2 pi) h)``,
    with ``u = 2**-53`` (``_U``)."""
    return (y.size + 32) * _U * float(np.abs(w).sum()) / (_SQRT_2PI * spec.h)


def _binned_sums(spec, grid, y, w):
    """Order-0 Gaussian sums ``K_h(grid[:, None] - y) @ w`` from a binned scan
    in O(n + G log G), with a bound: ``(sums, eps)``, each sum within ``eps``
    of :func:`_kernel_sums`'s, or None where the scan does not apply (another
    family, ``w`` with columns, non-finite input, a grid that is not uniform,
    a lattice of more than ``_SCAN_SPAN`` times ``_SCAN_BINS * G`` bins, or a
    bound that is not finite, as at a bandwidth far below the bin width).

    The weights are binned linearly onto a lattice of ``_SCAN_BINS`` bins of
    width ``delta`` per grid step, on which the grid points lie, and convolved
    by FFT with the kernel sampled on the lattice.  The kernel table reaches
    the farthest outcome from the grid, but not past the ``_EXP_FLOOR``
    cut-off (37.6 h); outcomes beyond the cut-off from every grid point, whose
    kernels :func:`_kernel_sums` sets to 0, are left out.  With
    ``S = sum(|w|)``, ``K0 = 1 / (sqrt(2 pi) h)`` and ``u = 2**-53``, ``eps``
    is the sum of:

    * binning, ``S * delta**2 / (8 sqrt(2 pi) h**3)``: linear interpolation
      between two bins moves a kernel by at most ``delta**2 / 8`` times
      ``max|K_h''| = K0 / h**2``;
    * the lattice, ``S * max|K_h'|`` (``= S K0 exp(-1/2) / h``) times the
      grid's largest deviation from the lattice plus ``8 u`` times the
      lattice's extent from 0, which bounds the rounding of the bin positions;
    * FFT rounding, ``32 log2(L) u * S * sum(table)`` for transforms of
      length ``L``, a generous form of the bound for an FFT convolution
      (Higham 2002, sec. 24.1) that also covers the rounding of the table
      and of the bin weights;
    * the cut-off, ``2 S K0 exp(_EXP_FLOOR)``, for a kernel zeroed on one
      side of it and not on the other;
    * twice :func:`_sum_rounding`, the rounding of the sums compared with.
    """
    if (spec.family != GAUSSIAN or grid.ndim != 1 or grid.size < 3 or w.ndim != 1
            or y.size == 0 or not (np.isfinite(grid).all() and np.isfinite(y).all()
                                   and np.isfinite(w).all())):
        return None
    lo, hi, h = float(grid[0]), float(grid[-1]), spec.h
    step = (hi - lo) / (grid.size - 1)
    delta = step / _SCAN_BINS
    cells = _SCAN_BINS * (grid.size - 1)
    reach = min(max(hi - y.min(), y.max() - lo), math.sqrt(-2.0 * _EXP_FLOOR) * h)
    if not (delta > 0 and cells + 2 * reach / delta + 5 <= _SCAN_SPAN * _SCAN_BINS * grid.size):
        return None
    dev = float(np.abs(grid - (lo + np.arange(grid.size) * step)).max())
    if dev > 1e-6 * delta:
        return None
    # Imported on first use: it would add 1.5 ms to the package's import.
    from numpy.fft import irfft, rfft

    # Lattice bin q lies at lo + (q - half) * delta, so grid point i is bin
    # half + _SCAN_BINS * i; the table reaches half bins each way.
    half = int(reach / delta) + 2
    bins = cells + 2 * half + 1
    pos = (y - lo) / delta
    keep = (pos >= 1 - half) & (pos <= cells + half - 1)
    pos, wk = pos[keep], w[keep]
    low = np.floor(pos)
    at = low.astype(np.intp) + half
    upper = wk * (pos - low)
    binned = np.bincount(at, wk - upper, bins)
    binned[1:] += np.bincount(at, upper, bins - 1)
    # The convolution is circular; with a length of at least ``bins`` no lag
    # between a grid point and a bin wraps onto a lag the table covers.
    size = 1 << (bins - 1).bit_length()
    kern = _kernel_sums(spec, np.arange(half + 1) * delta, np.zeros(1), np.ones(1))
    table = np.zeros(size)
    table[:half + 1] = kern
    table[size - half:] = kern[:0:-1]
    sums = irfft(rfft(binned, size) * rfft(table), size)[half:half + cells + 1:_SCAN_BINS].copy()
    s, k0 = float(np.abs(w).sum()), 1.0 / (_SQRT_2PI * h)
    eps = s * (k0 * (delta / h) * (delta / h) / 8.0
               + k0 * math.exp(-0.5) / h * (dev + 8 * _U * (abs(lo) + abs(hi) + half * delta))
               + 32 * math.log2(size) * _U * float(table.sum())
               + 2 * k0 * math.exp(_EXP_FLOOR)) + 2 * _sum_rounding(spec, y, w)
    return (sums, eps) if math.isfinite(eps) else None


@dataclass(frozen=True, eq=False)
class KernelArmFit:
    """One arm's fit on either route: curve weights over the arm's outcomes.

    A curve value at ``y`` is ``sum(c * K_h^(order)(y - y_arm)) / n``; with
    variance weights ``c_var`` the same sum at ``theta`` is the mean of the
    score-variance row.  The kernel route (:func:`_weight_pass`) divides by
    the sample size; its ``c`` sums each point's covariate kernels divided by
    their row's sum, so the covariate kernel's constant and bandwidth scaling
    cancel out of it, and its ``c_var`` averages ``f_hat(theta | x_i) / p_i``;
    the cross-fitted route (``dml._arm_fits``) divides by the fold count, and
    its weights are the fold-averaged orthogonal score's.  With the Gaussian
    kernel the kernel route lifts its covariate blocks to a matrix product
    where :func:`_lift` certifies each weight to a relative ``_LIFT_TOL``
    (1e-12, from a bound of about ``(6 d + 8) u R2`` on the exponents'
    rounding): ``c`` and ``c_var`` then lie within ``4 * _LIFT_TOL``
    relative of the difference block's; elsewhere they are its, bit for bit.
    :func:`marginal_arm_fit` leaves ``c_var`` None, so such a fit has no
    :meth:`components`.

    :meth:`curve` sums exactly.  The mode search scans the order-0 curve on
    a uniform grid instead (:func:`_scan_curve`): its values lie within
    ``eps = sum(|c|) * delta**2 / (8 sqrt(2 pi) h**3) / n``, plus the rounding
    terms of :func:`_binned_sums`, of :meth:`curve`'s, with ``delta`` an
    eighth of the grid step, and its grid argmax is :meth:`curve`'s.
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


def _scan_curve(fit: KernelArmFit, grid):
    """``fit``'s order-0 curve on ``grid`` for the mode search: within
    ``eps / n`` of ``fit.curve(grid)`` (:func:`_binned_sums`), with the same
    first maximum, at the same grid point.

    Only a grid point whose scanned value is within ``2 eps`` of the scan's
    maximum (a candidate) can hold the maximum of ``fit.curve(grid)``, so the
    candidates' values are replaced by exact sums over their own rows.  Those
    can differ from ``fit.curve(grid)``'s, summed over whole chunks of grid
    points, in the last bits; when more than one candidate lies within
    ``4 rho`` (:func:`_sum_rounding`) of the largest, so that this could
    decide the maximum, their whole chunks are summed again, which gives
    ``fit.curve(grid)``'s bits.  Where the scan does not apply, this is
    ``fit.curve(grid)``.
    """
    scan = _binned_sums(fit.spec, grid, fit.y, fit.c)
    if scan is None:
        return fit.curve(grid)
    sums, eps = scan
    values = sums / fit.n
    cand = np.flatnonzero(values >= values.max() - 2 * eps / fit.n)
    exact = fit.curve(grid[cand])
    values[cand] = exact
    near = cand[exact >= exact.max() - 4 * _sum_rounding(fit.spec, fit.y, fit.c) / fit.n]
    if near.size > 1:
        step = _block_rows(fit.y.size)
        for start in np.unique(near // step) * step:
            values[start:start + step] = fit.curve(grid[start:start + step])
    return values


def _weight_pass(sample: Sample, spec: KernelSpec, arms=(1, 0), share=None):
    """One blocked O(n^2) covariate-weight pass: ``{arm: KernelArmFit}``.

    With ``e_ij`` the covariate kernel between ``x_i`` (all ``i``) and the
    arm's ``x_j`` without its constant (:func:`_product_weights_block`) and
    ``s[i] = sum_j e_ij`` the arm's mass at ``x_i`` up to the same constant,
    ``c[j] = sum_i e_ij / s[i]`` over the arm's observations ``j`` makes a
    curve value at any outcome ``y`` equal ``sum(c * K_h(y - y_j)) / n``: the
    constant cancels.  With ``share``,
    ``c_var[j] = sum_i e_ij / (s[i] * p[i])``, where
    ``p = share(arm, s_rows, rows)`` is the arm's clipped probability (the
    local share ``s_1 / (s_1 + s_0)`` needs no constant either), so
    ``sum(c_var * K_h(theta - y_j)) / n`` averages ``f_hat(theta | x_i) / p[i]``
    and the variance needs no second pass; otherwise ``c_var`` is None.  ``c``
    is computed the same way in both cases.

    The covariates are pre-scaled once (:func:`_scaled_columns`), and each
    arm's points gathered in sample order into one contiguous ``(d, n_arm)``
    array that every row block is evaluated against: no block is copied by
    fancy indexing, and reductions see only the arm's own columns, so samples
    related by an arm swap (or arm duplication) give bit-identical results for
    the corresponding arm.

    For the Gaussian kernel the points are lifted once (:func:`_lift`) where
    that certifies every weight to a relative ``_LIFT_TOL`` (the decision
    rests on all ``n`` points, whichever arms the pass fits); the arm's
    gathered columns are then lifted too, and each block is
    ``exp(a[rows] @ b_arm)``, written straight into the block's buffer.  A
    weight and a mass then move by at most ``_LIFT_TOL``, a weight over its
    mass by twice that and over its mass times a local share by four times,
    so ``c`` and ``c_var`` lie within ``4 * _LIFT_TOL`` relative of the
    difference block's, up to the rounding of their sums.  Otherwise, and
    for Epanechnikov, the blocks are :func:`_product_weights_block`'s, bit
    for bit.

    Each row block writes its own rows of ``s`` and returns its
    contributions to ``c`` and ``c_var``; the blocks run on the calling
    thread or on the pool's two workers (:func:`_threads`,
    :func:`_in_order`), and the contributions are added strictly in block
    order, so the result is bit-identical on one core or two.  A point with
    no kernel mass (:func:`_mass_floor`) raises
    :class:`DegenerateLocalityError` for the first such block, as a
    one-thread pass would.
    """
    n = sample.n
    idx = {arm: sample.arm_indices(arm) for arm in arms}
    z = _scaled_columns(sample.x, spec)
    lift = _lift(z) if spec.family == GAUSSIAN else None
    arm_cols = {arm: (z if lift is None else lift[1])[:, i] for arm, i in idx.items()}
    floor = _mass_floor(spec, sample.dim)
    mass = {arm: np.empty(n) for arm in idx}
    acc = {arm: np.zeros(i.size) for arm, i in idx.items()}
    acc_var = {arm: np.zeros(i.size) for arm, i in idx.items()} if share is not None else {}
    step = _block_rows(n)
    starts = range(0, n, step)
    threads = _threads(len(starts))
    # Each thread of the pass reuses one scratch array, holding every arm's
    # weights and, for the difference block with d > 1, one arm's worth of
    # scratch.  The calling thread makes them all: block-sized arrays made on
    # a worker thread come from its own malloc arena, which can hand their
    # pages back after each block and fault them in again (at n = 8000 that
    # cost most of the second thread's gain).  A thread takes its array on
    # its first block; only that thread reads or writes its key.
    width = max(i.size for i in idx.values()) if sample.dim > 1 and lift is None else 0
    spare = [np.empty(step * (n + width)) for _ in range(threads)]
    scratch = {}

    def block(start):
        rows = slice(start, min(start + step, n))
        m = rows.stop - start
        me = threading.get_ident()
        if me not in scratch:
            scratch[me] = spare.pop()
        buf, used = scratch[me], 0
        e, c, c_var = {}, {}, {}
        for arm in idx:
            size = m * idx[arm].size
            out = buf[used:used + size].reshape(m, -1)
            if lift is None:
                e[arm] = _product_weights_block(
                    z[:, rows], arm_cols[arm], spec.family, out=out,
                    tmp=buf[step * n:step * n + size].reshape(m, -1) if width else None)
            else:
                e[arm] = np.exp(np.matmul(lift[0][rows], arm_cols[arm], out=out), out=out)
            used += size
            s_blk = e[arm].sum(axis=1)
            bad = np.flatnonzero(~(s_blk > floor))
            if bad.size:
                i = start + int(bad[0])
                raise DegenerateLocalityError(arm, sample.x[i], index=i)
            mass[arm][rows] = s_blk
            c[arm] = e[arm].T @ (1.0 / s_blk)
        if share is not None:
            for arm in idx:
                p = share(arm, {a: mass[a][rows] for a in idx}, rows)
                c_var[arm] = e[arm].T @ (1.0 / (mass[arm][rows] * p))
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
