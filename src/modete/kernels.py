"""Kernel primitives: families, scaled and product forms, moment constants,
and the default bandwidth rules used by the two estimation routes.

Two families ship: the Gaussian kernel and the Epanechnikov kernel.  Both are
symmetric probability densities, so they integrate to one and have zero first
moment.  Derivatives up to order two are available; Epanechnikov derivatives
at the support boundary ``|u| = 1`` take the one-sided interior value, which
keeps evaluation total (the boundary has measure zero).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RateConditionWarning

GAUSSIAN = "gaussian"
EPANECHNIKOV = "epanechnikov"
FAMILIES = (GAUSSIAN, EPANECHNIKOV)

# Bandwidth-rule identifiers (also the CLI method names).
KERNEL_METHOD = "kernel"
DML_METHOD = "dml"

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def eval_kernel(family, u, order=0):
    """Evaluate the kernel or one of its first two derivatives at ``u``.

    Accepts scalars or arrays.  For the Epanechnikov family the result is
    exactly zero outside ``|u| <= 1``.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"kernel derivative order must be 0, 1 or 2, got {order!r}")
    u = np.asarray(u, dtype=float)
    if family == GAUSSIAN:
        if order:
            # Beyond |u| = 40 the density is 0 in double precision; clipping
            # there keeps a derivative 0 rather than inf * 0.
            u = np.clip(u, -40.0, 40.0)
        with np.errstate(over="ignore"):  # a square past a double is inf, and phi 0
            phi = np.exp(-0.5 * u * u) / _SQRT_2PI
        if order == 0:
            out = phi
        elif order == 1:
            out = -u * phi
        else:
            out = (u * u - 1.0) * phi
    elif family == EPANECHNIKOV:
        inside = np.abs(u) <= 1.0
        if order == 0:
            out = np.where(inside, 0.75 * (1.0 - u * u), 0.0)
        elif order == 1:
            out = np.where(inside, -1.5 * u, 0.0)
        else:
            out = np.where(inside, -1.5, 0.0)
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    return float(out) if out.ndim == 0 else out


def kernel_support(family):
    """Interval outside which the kernel is (numerically) zero."""
    if family == GAUSSIAN:
        return (-12.0, 12.0)
    if family == EPANECHNIKOV:
        return (-1.0, 1.0)
    raise ValueError(f"unknown kernel family {family!r}")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family paired with a bandwidth.

    ``h`` is in the units of the variable being smoothed; the same ``h`` is
    shared between the outcome kernel and every covariate coordinate, which
    is why estimators standardize covariates upstream.
    """

    family: str = GAUSSIAN
    h: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"bandwidth must be a positive finite real, got {self.h!r}")


@dataclass(frozen=True)
class KernelConstants:
    """Moment constants of a kernel family.

    ``kappa0_1`` is the integral of the squared first derivative and enters
    the asymptotic variance of the mode estimators; ``kappa2`` is the second
    moment and drives the smoothing bias.
    """

    kappa0_1: float
    kappa2: float

    def __post_init__(self):
        for name in ("kappa0_1", "kappa2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be strictly positive and finite, got {v!r}")


def _kernel_scale(h, order):
    """``h**-(1+order)``; a ValueError where it overflows a double."""
    try:
        return float(h) ** -(1 + order)
    except OverflowError:
        raise ValueError(f"bandwidth {h!r} is too small: h**-{1 + order} overflows") from None


def scaled_kernel(spec: KernelSpec, diff, order=0):
    """Bandwidth-scaled kernel ``h**-(1+order) * K_order(diff / h)``; a
    ``diff / h`` beyond a double is infinite, and its order-0 kernel 0."""
    scale = _kernel_scale(spec.h, order)
    with np.errstate(over="ignore"):
        return eval_kernel(spec.family, np.asarray(diff, dtype=float) / spec.h, order) * scale


def product_kernel(spec: KernelSpec, diff_vector):
    """Product kernel over covariate differences, ``h**-d * prod_j K(diff_j / h)``.

    ``diff_vector`` may be a length-``d`` vector or an array whose last axis
    holds the ``d`` coordinates.
    """
    diff = np.asarray(diff_vector, dtype=float)
    if diff.ndim == 0 or diff.shape[-1] == 0:
        raise ValueError("covariate difference vector must have at least one coordinate")
    d = diff.shape[-1]
    vals = np.prod(eval_kernel(spec.family, diff / spec.h, 0), axis=-1)
    out = vals * spec.h ** (-d)
    return float(out) if np.ndim(out) == 0 else out


# Closed-form constants. Gaussian: integral of (u*phi(u))**2 is 1/(4*sqrt(pi)),
# second moment 1. Epanechnikov: integral of (1.5*u)**2 over [-1, 1] is 1.5,
# second moment 1/5.
_CLOSED_FORM = {
    GAUSSIAN: (0.25 / math.sqrt(math.pi), 1.0),
    EPANECHNIKOV: (1.5, 0.2),
}


@lru_cache(maxsize=None)
def kernel_constants(family) -> KernelConstants:
    """Moment constants for a family, from their closed forms, cached."""
    if family not in _CLOSED_FORM:
        raise ValueError(f"unknown kernel family {family!r}")
    return KernelConstants(*_CLOSED_FORM[family])


def default_bandwidth(n, d, method, scale):
    """Rule-of-thumb bandwidth ``scale * n**-r``.

    The exponent depends on the estimation route: the cross-fitted route uses
    ``r = 1/5`` (keeps ``n*h**3`` growing while ``n*h**7`` vanishes); the pure
    kernel route with one covariate uses the midpoint ``13/84`` of the window
    ``(1/7, 1/6)`` admitted by its rate conditions.  With two or more
    covariates no exponent satisfies those conditions with a second-order
    kernel, so ``r = 1/7 + 0.01`` is returned together with a warning.
    """
    if n < 2:
        raise ValueError(f"need at least two observations, got n={n}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite real, got {scale!r}")
    if method == DML_METHOD:
        r = 0.2
    elif method == KERNEL_METHOD:
        if d <= 1:
            r = 13.0 / 84.0
        else:
            r = 1.0 / 7.0 + 0.01
            warnings.warn(
                f"kernel-route rate conditions cannot all hold with d={d} covariates; "
                "using exponent 1/7 + 0.01 (results may be bias-dominated)",
                RateConditionWarning,
                stacklevel=2,
            )
    else:
        raise ValueError(f"unknown bandwidth method {method!r}")
    return scale * n ** (-r)
