"""The pure kernel route: per-arm marginal density curves, mode extraction,
plug-in sandwich variance components, and confidence intervals scaled by the
nonstandard ``sqrt(n * h**3)`` rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Sample, _weight_pass, default_grid
from .errors import ConstantCovariateError, NoOverlapError
from .kernels import GAUSSIAN, KERNEL_METHOD, KernelSpec, default_bandwidth
from .learners import clip_propensity
from .results import MTEResult, estimate_from_fits


@dataclass(frozen=True, eq=False)
class StandardizationRecord:
    """Per-column location/scale used to standardize the covariates."""

    location: np.ndarray
    scale: np.ndarray


def standardize_covariates(sample: Sample):
    """Center and scale each covariate column to unit sample (n-1) deviation.

    The outcome is left untouched.  Returns the transformed sample together
    with the per-column location/scale record for reporting.
    """
    x = sample.x
    location = x.mean(axis=0)
    scale = x.std(axis=0, ddof=1) if sample.n > 1 else np.zeros(sample.dim)
    for col in range(sample.dim):
        if not scale[col] > 0:
            raise ConstantCovariateError(col)
    xs = (x - location) / scale
    return Sample(sample.y, sample.d, xs), StandardizationRecord(location, scale)


def robust_scale(y):
    """Dispersion estimate ``min(sd, IQR / 1.349)`` with a fallback to sd."""
    y = np.asarray(y, dtype=float)
    sd = float(np.std(y, ddof=1))
    q75, q25 = np.percentile(y, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.349)
    if scale <= 0:
        scale = sd
    if scale <= 0:
        raise ValueError("outcome has zero dispersion; cannot choose a bandwidth")
    return scale


def _clipped_share(pi_hat, x, kappa):
    """Clipped arm probabilities ``share(arm, mass, rows)`` for the weight
    pass: the local shares ``mass_a / (mass_1 + mass_0)`` of the arms' kernel
    masses (known up to a common constant), or ``pi_hat(x)`` (arm 1) and
    ``1 - pi_hat(x)`` (arm 0), evaluated once and checked to be finite per row.
    """
    if pi_hat is not None:
        pi = np.asarray(pi_hat(x), dtype=float)
        if pi.shape != (x.shape[0],):
            raise ValueError("pi_hat must return one probability per observation")
        if not np.isfinite(pi).all():
            raise ValueError("pi_hat returned non-finite values")

    def share(arm, mass, rows):
        if pi_hat is None:
            p = mass[arm] / (mass[1] + mass[0])
        else:
            p = pi[rows] if arm == 1 else 1.0 - pi[rows]
        return clip_propensity(p, kappa)
    return share


def kernel_variance_components(sample: Sample, spec: KernelSpec, theta1, theta0,
                               pi_hat, kappa=0.01):
    """Plug-in sandwich components at fitted modes.

    ``m1_hat``/``m0_hat`` average the order-2 conditional densities at
    ``theta1``/``theta0`` over all observations' covariates.  The score
    variances divide by the clipped estimated treated share (arm 1) and
    untreated share (arm 0).  ``pi_hat`` maps a covariate matrix to treated
    probabilities; it is clipped to ``[kappa, 1 - kappa]`` before use.
    """
    fits = _weight_pass(sample, spec, (1, 0), _clipped_share(pi_hat, sample.x, kappa))
    (m1, v1), (m0, v0) = fits[1].components(theta1), fits[0].components(theta0)
    return m1, m0, v1, v0


def _prepare(sample: Sample, family, h, grid, grid_points, alpha, method, scale_mult=1.0):
    """Preamble shared by both routes: ``(standardized sample, spec, grid)``.

    Checks that both arms are present and ``alpha`` is in (0, 1).  Without
    ``h`` the bandwidth follows ``method``'s rule on ``scale_mult`` times a
    robust dispersion of the outcome; without ``grid`` the default grid is used.
    """
    if sample.arm_count(1) == 0 or sample.arm_count(0) == 0:
        raise NoOverlapError("mode treatment effect estimation needs both arms")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    std_sample, _ = standardize_covariates(sample)
    if h is None:
        h = default_bandwidth(sample.n, sample.dim, method, scale_mult * robust_scale(sample.y))
    spec = KernelSpec(family, h)
    if grid is None:
        grid = default_grid(sample.y, spec.h, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    return std_sample, spec, grid


def estimate_kernel_mte(sample: Sample, spec: KernelSpec | None = None, *,
                        family=GAUSSIAN, grid=None, grid_points=512,
                        alpha=0.05, kappa=0.01, pi_hat=None) -> MTEResult:
    """End-to-end kernel-route estimate of the mode treatment effect.

    Covariates are standardized internally so a single bandwidth is
    meaningful across coordinates.  When ``spec`` is None the bandwidth
    follows the default rule on a robust dispersion of the outcome.  The
    default propensity for the variance components is the Nadaraya-Watson
    regression of treatment on covariates with the same product kernel and
    bandwidth; pass ``pi_hat`` to inject a fitted learner instead.
    """
    family, h = (family, None) if spec is None else (spec.family, spec.h)
    std_sample, spec, grid = _prepare(sample, family, h, grid, grid_points, alpha, KERNEL_METHOD)
    fits = _weight_pass(std_sample, spec, (1, 0), _clipped_share(pi_hat, std_sample.x, kappa))
    return estimate_from_fits(fits, grid, spec, n=std_sample.n, method=KERNEL_METHOD, alpha=alpha)
