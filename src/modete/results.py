"""Result containers and inference helpers shared by both estimation routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .density import DensityCurve, _scan_curve, default_grid
from .kernels import _kernel_scale
from .modes import FLAT_CURVE, MODE_AT_GRID_EDGE, curve_shape_flags, mode_of_curve

SCHEMA_VERSION = "1"  # of the CLI record and the Monte Carlo report


@dataclass(frozen=True)
class Diagnostics:
    """Soft quality flags accumulated during an estimation run.

    ``mode_at_grid_edge`` is set when an arm's grid argmax is the first or
    last grid point: the grid may not cover the mode, and the sub-grid
    refinement then reaches past the grid.
    """

    flat_curve: bool = False
    mode_at_grid_edge: bool = False
    m_hat_sign: bool = False
    fold_reseeds: int = 0
    warnings: tuple = ()


@dataclass(frozen=True)
class MTEResult:
    """Mode treatment-effect estimates with sandwich inference.

    ``delta`` is always exactly ``theta1 - theta0``.  Standard errors follow
    the sandwich form ``sqrt(V / (M**2 * n * h**3))`` per arm and combine as a
    diagonal sum for ``delta``.  ``m1_hat``/``m0_hat`` are curvature averages
    and should be negative at a genuine interior mode; ``v1_hat``/``v0_hat``
    are the score-variance components.
    """

    theta1: float
    theta0: float
    delta: float
    m1_hat: float
    m0_hat: float
    v1_hat: float
    v0_hat: float
    se1: float
    se0: float
    se_delta: float
    ci1: tuple
    ci0: tuple
    ci_delta: tuple
    n: int
    h: float
    method: str
    family: str
    alpha: float
    folds: int | None = None
    diagnostics: Diagnostics = Diagnostics()
    curve1: DensityCurve | None = field(default=None, compare=False, repr=False)
    curve0: DensityCurve | None = field(default=None, compare=False, repr=False)


def _arm_se(m_hat, v_hat, n, h):
    denom = m_hat * m_hat * n * h ** 3
    if v_hat < 0 or denom <= 0 or not math.isfinite(denom):
        return math.inf
    return math.sqrt(v_hat / denom)


def build_result(theta1, theta0, m1_hat, m0_hat, v1_hat, v0_hat, n, h, method,
                 family, alpha, folds=None, diagnostics=None, curve1=None, curve0=None):
    """Assemble an :class:`MTEResult` from point estimates and components."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    se1 = _arm_se(m1_hat, v1_hat, n, h)
    se0 = _arm_se(m0_hat, v0_hat, n, h)
    se_delta = math.sqrt(se1 * se1 + se0 * se0)
    delta = theta1 - theta0
    extra = []
    if m1_hat >= 0 or m0_hat >= 0:
        extra.append("non-negative curvature component; interior-mode assumption suspect")
    if v1_hat < 0 or v0_hat < 0:
        extra.append("negative score-variance component; standard errors reported as infinite")
    diag = diagnostics or Diagnostics()
    diag = replace(diag, m_hat_sign=(m1_hat >= 0 or m0_hat >= 0),
                   warnings=tuple(diag.warnings) + tuple(extra))
    return MTEResult(
        theta1=theta1, theta0=theta0, delta=delta,
        m1_hat=m1_hat, m0_hat=m0_hat, v1_hat=v1_hat, v0_hat=v0_hat,
        se1=se1, se0=se0, se_delta=se_delta,
        ci1=(theta1 - z * se1, theta1 + z * se1),
        ci0=(theta0 - z * se0, theta0 + z * se0),
        ci_delta=(delta - z * se_delta, delta + z * se_delta),
        n=n, h=h, method=method, family=family, alpha=alpha, folds=folds,
        diagnostics=diag, curve1=curve1, curve0=curve0,
    )


def estimate_from_fits(fits, spec, *, n, method, alpha, grid=None, grid_points=512, folds=None,
                       fold_reseeds=0):
    """The part both routes share once each arm is fitted.

    ``fits`` maps each arm to a :class:`~modete.density.KernelArmFit`, which
    both routes build: the kernel route from its covariate-weight pass, the
    cross-fitted route from its folds' score weights.  The grid is chosen
    here alone: the caller's ``grid``, already checked by ``_prepare``, or
    else ``default_grid`` over both fits' outcomes, every row's on both routes.  Each arm's
    order-0 curve is searched for its mode (refined with the exact order-0
    value); the sandwich components are taken at the modes, and the curves'
    shape flags go into the diagnostics.

    On a uniform grid with the Gaussian kernel the curves come from the
    binned scan (:func:`~modete.density._scan_curve`): each stored value is
    within ``eps = sum(|c|) * delta**2 / (8 sqrt(2 pi) h**3) / n`` (plus
    rounding terms; ``delta`` is an eighth of the grid step) of
    ``fit.curve(grid)``, and the grid argmax is the exact curve's, so the
    modes, components and intervals are too; a flag read from the curves
    can differ only where a value lies within ``eps`` of its threshold.
    """
    # The sandwich components need h**-3; a bandwidth that overflows it fails
    # here, before a curve is built or a shape flag warned about.
    _kernel_scale(spec.h, 2)
    if grid is None:
        grid = default_grid(np.concatenate([fit.y for fit in fits.values()]), spec.h, grid_points)
    curves, theta = {}, {}
    for arm, fit in fits.items():
        curves[arm] = DensityCurve(grid=grid, values=_scan_curve(fit, grid), arm=arm, order=0,
                                   spec=spec)
        theta[arm] = mode_of_curve(curves[arm], fit.value).theta
    (m1, v1), (m0, v0) = fits[1].components(theta[1]), fits[0].components(theta[0])
    flags = curve_shape_flags(curves[1].values) + curve_shape_flags(curves[0].values)
    diag = Diagnostics(flat_curve=FLAT_CURVE in flags, mode_at_grid_edge=MODE_AT_GRID_EDGE in flags,
                       fold_reseeds=fold_reseeds, warnings=tuple(flags))
    return build_result(
        theta[1], theta[0], m1, m0, v1, v0, n=n, h=spec.h, method=method,
        family=spec.family, alpha=alpha, folds=folds, diagnostics=diag,
        curve1=curves[1], curve0=curves[0],
    )
