"""The cross-fitted route: K-fold partitioning, orthogonal-score evaluation,
score-based density curves, mode extraction, and the equivalent-form variance
components.

Each fold's scores are evaluated with nuisances fitted on the complementary
folds only.  The score for the treated arm at outcome point ``y`` and
derivative order ``s`` is

    d * K_h^(s)(y - y_obs) / pi  -  (d - pi) / pi * g

with ``pi`` the (clipped) treated probability at the observation's covariates
and ``g`` the fitted arm-1 conditional mean of the same kernel target.  The
untreated arm mirrors it with ``1 - d``, ``1 - pi`` and ``pi - d``.  The
correction term has conditional mean zero, which removes the first-order
sensitivity of the averaged score to nuisance estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import DensityCurve, Sample, _in_order, _kernel_sums
from .errors import ConfigurationError, NoDataError, StratificationError
from .kernels import DML_METHOD, GAUSSIAN, KernelSpec, kernel_constants, scaled_kernel
from .kernel_mte import _prepare
from .learners import (
    PropensityFit, SmoothedOutcomeFit, _fit_outcome, _ridge_stats, fit_propensity,
)
from .results import MTEResult, estimate_from_fits


@dataclass(frozen=True, eq=False)
class FoldPartition:
    """A seeded K-fold partition of observation indices."""

    assignments: np.ndarray
    K: int
    seed: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    @property
    def n(self):
        return self.assignments.size

    def indices(self, k):
        return np.flatnonzero(self.assignments == k)

    def complement(self, k):
        return np.flatnonzero(self.assignments != k)


def make_folds(N, K, seed) -> FoldPartition:
    """Seeded uniform shuffle of ``0..N-1`` cut into K near-equal blocks.

    When K does not divide N the first ``N mod K`` folds carry one extra
    element.
    """
    if K < 2 or K > N:
        raise ValueError(f"fold count must satisfy 2 <= K <= N, got K={K}, N={N}")
    perm = np.random.default_rng(seed).permutation(N)
    assignments = np.empty(N, dtype=np.int64)
    base, extra = divmod(N, K)
    start = 0
    for k in range(K):
        size = base + (1 if k < extra else 0)
        assignments[perm[start:start + size]] = k
        start += size
    return FoldPartition(assignments=assignments, K=K, seed=seed)


@dataclass(frozen=True)
class FoldNuisance:
    """Nuisances for one fold, fitted on that fold's auxiliary sample."""

    pi: PropensityFit
    g1: SmoothedOutcomeFit
    g0: SmoothedOutcomeFit


@dataclass(frozen=True, eq=False)
class NuisanceBundle:
    """Per-fold nuisance fits sharing one outcome grid and kernel."""

    folds: tuple
    grid: np.ndarray
    spec: KernelSpec


def fit_nuisances(sample: Sample, partition: FoldPartition, spec: KernelSpec, grid,
                  pi_learner="logistic", g_learner="ridge",
                  pi_hyper=None, g_hyper=None, kappa=0.01) -> NuisanceBundle:
    """Fit the propensity and both smoothed-outcome regressions per fold.

    Fold ``k``'s record is fitted using only observations outside fold ``k``.
    Ridge statistics are computed once per fold and arm; fold ``k``'s fit
    sums those of the other folds in canonical fold order.  Summing, rather
    than subtracting fold ``k`` from a total, keeps each fit free of fold
    ``k``'s data bit for bit, and the order keeps fold labels invisible.
    The statistics, then the folds' fits, are pool tasks
    (:func:`density._in_order`), returned in fold order.
    """
    grid = np.asarray(grid, dtype=float)
    fold_stats = {}
    if g_learner == "ridge":
        def arm_stats(key):
            arm, f = key
            idx = partition.indices(f)
            rows = idx[sample.d[idx] == arm]
            return _ridge_stats(sample.x[rows], sample.y[rows], grid, spec)

        keys = [(arm, f) for f in range(partition.K) for arm in (1, 0)]
        fold_stats = dict(zip(keys, _in_order(arm_stats, keys)))
    order = _canonical_fold_order(partition)

    def fold(k):
        aux = sample.subset(partition.complement(k))
        for arm in (1, 0):
            if aux.arm_count(arm) == 0:
                raise NoDataError(f"auxiliary sample of fold {k} has no arm-{arm} observations")
        pi = fit_propensity(aux, learner=pi_learner, hyper=pi_hyper, clip_kappa=kappa)
        g = {}
        for arm in (1, 0):
            stats = None
            if fold_stats:
                stats = tuple(map(sum, zip(*(fold_stats[arm, f] for f in order if f != k))))
            g[arm] = _fit_outcome(aux.subset(aux.arm_indices(arm)), arm, grid, spec,
                                  g_learner, g_hyper, stats)
        return FoldNuisance(pi=pi, g1=g[1], g0=g[0])

    return NuisanceBundle(folds=tuple(_in_order(fold, range(partition.K))), grid=grid, spec=spec)


def _arm_terms(d, pi, arm):
    """``(d_a, p_a, r_a)``: the arm's indicator, its probability and the
    residual of the correction term, so that one arm's score is
    ``d_a * K / p_a - r_a / p_a * g``."""
    if arm == 1:
        return d, pi, d - pi
    if arm == 0:
        return 1.0 - d, 1.0 - pi, pi - d
    raise ValueError(f"arm must be 0 or 1, got {arm!r}")


def _score(d_a, p_a, r_a, kv, g):
    """The orthogonal score from one arm's terms; arguments broadcast."""
    return d_a * kv / p_a - r_a / p_a * g


def orthogonal_score(z, y, eta, arm, spec: KernelSpec, order=0):
    """Orthogonal score for one observation ``z = (y_obs, d, x)``.

    ``eta = (pi_value, g_value)`` holds the treated probability at ``x`` and
    the fitted conditional mean of ``K_h^(order)(y - Y)`` given ``x`` in the
    requested arm.
    """
    y_obs, d, _x = z
    pi_value, g_value = eta
    d_a, p_a, r_a = _arm_terms(d, pi_value, arm)
    if not (0.0 <= pi_value <= 1.0 and p_a > 0.0):
        raise ValueError(f"propensity {pi_value!r} outside the usable range for arm {arm}")
    return _score(d_a, p_a, r_a, scaled_kernel(spec, y - y_obs, order), g_value)


def _canonical_fold_order(partition: FoldPartition):
    """Fold labels ordered by their smallest member index.

    Reductions over folds always run in this order, so relabeling folds
    (keeping the same index sets) cannot change any output bit.
    """
    mins = [partition.indices(k).min() for k in range(partition.K)]
    return np.argsort(np.asarray(mins), kind="stable")


@dataclass(frozen=True, eq=False)
class _FoldView:
    """One fold's slices for one arm, with the arm's score terms ``d_a``,
    ``p_a`` and ``r_a`` (see :func:`_arm_terms`) and its outcome fit."""

    y: np.ndarray
    x: np.ndarray
    d_a: np.ndarray
    p_a: np.ndarray
    r_a: np.ndarray
    g_fit: SmoothedOutcomeFit

    def g_at(self, order, j, t):
        """Predictions at an off-grid point, linear between columns ``j, j+1``."""
        cols = np.asarray(self.g_fit.predict_grid(self.x, order, cols=[j, j + 1]), dtype=float)
        return (1.0 - t) * cols[:, 0] + t * cols[:, 1]


def _dml_arm_fit(sample, partition, bundle, spec, arm):
    """One arm's :class:`_DMLArmFit`, with fold views in canonical fold order;
    each fold's propensities are predicted as a pool task."""
    def view(k):
        idx = partition.indices(k)
        rec = bundle.folds[k]
        x = sample.x[idx]
        g_fit = rec.g1 if arm == 1 else rec.g0
        pi = np.asarray(rec.pi.predict_clipped(x), dtype=float)
        d_a, p_a, r_a = _arm_terms(sample.d[idx].astype(float), pi, arm)
        return _FoldView(y=sample.y[idx], x=x, d_a=d_a, p_a=p_a, r_a=r_a, g_fit=g_fit)

    return _DMLArmFit(list(_in_order(view, _canonical_fold_order(partition))), spec, bundle.grid)


def _bracket(grid, yq):
    """Left column and interpolation weight for an off-grid outcome query."""
    j = int(np.searchsorted(grid, yq)) - 1
    j = min(max(j, 0), grid.size - 2)
    t = (yq - grid[j]) / (grid[j + 1] - grid[j])
    return j, min(max(t, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class _DMLArmFit:
    """One arm's cross-fitted score fit: fold means of the orthogonal score,
    averaged over the folds with equal weights."""

    views: list
    spec: KernelSpec
    grid: np.ndarray

    def curve(self, grid, order=0):
        """Curve values over the fits' grid.

        A fold's mean score is a kernel sum over the fold's rows in the arm,
        weighted ``1 / p_a``, minus the ``r_a / p_a``-weighted sum of the
        outcome fit's predictions; neither forms a (rows, grid) matrix.  The
        folds' means are pool tasks, added in view order.
        """
        def fold_mean(v):
            own = v.d_a == 1.0
            direct = _kernel_sums(self.spec, grid, v.y[own], 1.0 / v.p_a[own], order)
            return (direct - v.g_fit.weighted_grid_sum(v.x, v.r_a / v.p_a, order)) / v.y.size

        total = np.zeros(grid.size)
        for mean in _in_order(fold_mean, self.views):
            total += mean
        return total / len(self.views)

    def value(self, yq, order=0):
        """Curve value at an off-grid point: exact kernels, interpolated g.

        The smoothed-outcome fits are only defined on the grid, so off-grid
        queries interpolate the per-fold predictions linearly between the two
        bracketing grid columns while the kernel factor is evaluated exactly.
        """
        j, t = _bracket(self.grid, yq)
        total = 0.0
        for v in self.views:
            kv = scaled_kernel(self.spec, yq - v.y, order)
            total += float(_score(v.d_a, v.p_a, v.r_a, kv, v.g_at(order, j, t)).mean())
        return total / len(self.views)

    def components(self, theta):
        """Equivalent-form sandwich components ``(m_hat, v_hat)`` at ``theta``.

        The curvature is the order-2 score value; the variance row uses the
        order-0 kernel, the squared clipped probability and the factor -2
        correction, multiplied by the kernel constant so it estimates the same
        population quantity as the plug-in route.
        """
        j, t = _bracket(self.grid, theta)
        v_sum = 0.0
        for v in self.views:
            kv = scaled_kernel(self.spec, theta - v.y, 0)
            g = v.g_at(0, j, t)
            v_sum += float(np.mean(v.d_a * kv / v.p_a ** 2 - 2.0 * v.r_a / v.p_a ** 2 * g))
        kappa0_1 = kernel_constants(self.spec.family).kappa0_1
        return self.value(theta, 2), kappa0_1 * v_sum / len(self.views)


def _check_bundle(partition, bundle, spec):
    """Reject a kernel or fold partition other than the bundle was fitted with."""
    if spec != bundle.spec:
        raise ConfigurationError("kernel spec does not match the one the nuisances were fitted with")
    if len(bundle.folds) != partition.K:
        raise ConfigurationError("nuisance bundle does not match the fold partition")


def dml_density_curve(sample: Sample, partition: FoldPartition, bundle: NuisanceBundle,
                      spec: KernelSpec, grid, arm, order=0) -> DensityCurve:
    """Cross-fitted orthogonal-score density curve for one arm.

    Scores are averaged within each fold using that fold's nuisances, then
    across folds with equal weights.  Order-0 values may dip slightly
    negative (the orthogonal correction); they are recorded as-is.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.array_equal(grid, bundle.grid):
        raise ConfigurationError("query grid does not match the grid the nuisances were fitted on")
    _check_bundle(partition, bundle, spec)
    fit = _dml_arm_fit(sample, partition, bundle, spec, arm)
    return DensityCurve(grid=grid, values=fit.curve(grid, order), arm=arm, order=order, spec=spec)


def dml_variance_components(sample: Sample, partition: FoldPartition,
                            bundle: NuisanceBundle, spec: KernelSpec, theta1, theta0):
    """Cross-fitted sandwich components ``(m1_hat, m0_hat, v1_hat, v0_hat)``."""
    _check_bundle(partition, bundle, spec)
    fits = {arm: _dml_arm_fit(sample, partition, bundle, spec, arm) for arm in (1, 0)}
    (m1, v1), (m0, v0) = fits[1].components(theta1), fits[0].components(theta0)
    return m1, m0, v1, v0


@dataclass(frozen=True, eq=False)
class DMLConfig:
    """Configuration for the cross-fitted estimator."""

    folds: int = 5
    seed: int = 0
    pi_learner: str = "logistic"
    g_learner: str = "ridge"
    pi_hyper: dict | None = None
    g_hyper: dict | None = None
    family: str = GAUSSIAN
    bandwidth: float | None = None
    grid: np.ndarray | None = None
    grid_points: int = 512
    alpha: float = 0.05
    kappa: float = 0.01


_MAX_RESEEDS = 10

# Auto-bandwidth dispersion multiplier.  The n**(-1/5) exponent is fixed by
# the rate conditions; the constant is free, and 1.5x the robust dispersion
# keeps the score curve smooth enough that the argmax does not chase noise
# bumps while the reported standard errors track the realized spread
# (coverage calibrated on simulated designs).
_DML_SCALE_MULT = 1.5


def estimate_dml_mte(sample: Sample, config: DMLConfig | None = None) -> MTEResult:
    """End-to-end cross-fitted estimate of the mode treatment effect.

    Folds are re-seeded up to ten times when an auxiliary sample misses an
    arm; persistent violations raise :class:`StratificationError` (stratified
    folds would be the remedy, which this estimator does not implement).
    Standard errors use the same ``sqrt(n * h**3)`` scaling as the kernel
    route, with ``n`` the full sample size.
    """
    config = config or DMLConfig()
    if config.folds < 2:
        raise ValueError(f"cross-fitting needs at least 2 folds, got {config.folds}")
    std_sample, spec, grid = _prepare(sample, config.family, config.bandwidth, config.grid,
                                      config.grid_points, config.alpha, DML_METHOD,
                                      _DML_SCALE_MULT)
    n = std_sample.n

    # First attempt plus up to _MAX_RESEEDS re-seeds.
    for reseeds in range(_MAX_RESEEDS + 1):
        partition = make_folds(n, config.folds, config.seed + reseeds)
        if all(
            std_sample.d[partition.complement(k)].min() == 0
            and std_sample.d[partition.complement(k)].max() == 1
            for k in range(config.folds)
        ):
            break
    else:
        raise StratificationError(
            f"auxiliary samples kept missing a treatment arm after {_MAX_RESEEDS} fold seeds; "
            "stratified folds would be needed"
        )

    bundle = fit_nuisances(std_sample, partition, spec, grid,
                           pi_learner=config.pi_learner, g_learner=config.g_learner,
                           pi_hyper=config.pi_hyper, g_hyper=config.g_hyper,
                           kappa=config.kappa)
    fits = {arm: _dml_arm_fit(std_sample, partition, bundle, spec, arm) for arm in (1, 0)}
    return estimate_from_fits(fits, grid, spec, n=n, method=DML_METHOD, alpha=config.alpha,
                              folds=config.folds, fold_reseeds=reseeds)


@dataclass(frozen=True)
class OracleNuisance:
    """True nuisances for simulation checks.

    ``pi`` maps a covariate matrix to treated probabilities; ``g`` maps
    ``(covariate matrix, outcome point)`` to the conditional mean of the
    order-0 kernel target in the checked arm.
    """

    pi: Callable
    g: Callable


@dataclass(frozen=True)
class Perturbation:
    """A bounded direction in nuisance space, same call shapes as the oracle."""

    pi: Callable
    g: Callable


def orthogonality_check(sample: Sample, true_eta: OracleNuisance, direction: Perturbation,
                        epsilons, *, y, spec: KernelSpec, arm=1, score_kind="orthogonal"):
    """Mean-score shift under nuisance perturbations of increasing size.

    For each ``eps`` the sample mean of the score at ``eta0 + eps * direction``
    is compared with the mean at ``eta0``; the returned table of
    ``(eps, |shift|)`` supports log-log slope diagnostics.  The orthogonal
    score shows quadratic sensitivity, the naive plug-in
    (``d * K_h / pi`` alone, ``score_kind="plugin"``) linear.
    """
    x = sample.x
    d = sample.d.astype(float)
    kv = scaled_kernel(spec, y - sample.y, 0)
    pi0 = np.asarray(true_eta.pi(x), dtype=float)
    g0 = np.asarray(true_eta.g(x, y), dtype=float)
    dpi = np.asarray(direction.pi(x), dtype=float)
    dg = np.asarray(direction.g(x, y), dtype=float)

    def mean_score(pi, g):
        d_a, p_a, r_a = _arm_terms(d, pi, arm)
        if score_kind == "orthogonal":
            vals = _score(d_a, p_a, r_a, kv, g)
        elif score_kind == "plugin":
            vals = d_a * kv / p_a
        else:
            raise ValueError(f"unknown score kind {score_kind!r}")
        return float(vals.mean())

    base = mean_score(pi0, g0)
    rows = []
    for eps in epsilons:
        shifted = mean_score(pi0 + eps * dpi, g0 + eps * dg)
        rows.append((float(eps), abs(shifted - base)))
    return np.asarray(rows)
