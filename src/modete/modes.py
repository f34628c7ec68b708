"""Locating and refining the peak of an estimated density curve."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import DensityCurve
from .errors import CurveShapeWarning, InvalidCurveError


@dataclass(frozen=True)
class ModeLocation:
    """A located density peak.

    ``foc_residual`` is the first-derivative curve evaluated at ``theta``
    (NaN when no derivative evaluator was supplied); near zero at a genuine
    interior mode, it serves as a first-order-condition diagnostic.
    """

    theta: float
    grid_index: int
    refined: bool
    foc_residual: float = math.nan


def curve_shape_flags(values):
    """Diagnostic messages for flat or multi-peaked curves, or for a peak at
    the first or last grid point (empty if clean).

    Only local maxima reaching a quarter of the global peak count as
    competing modes; smaller wiggles are ordinary sampling noise.  A peak at
    the edge may lie outside the grid, and the sub-grid refinement of
    :func:`mode_of_curve` then reaches past it.
    """
    v = np.asarray(values, dtype=float)
    flags = []
    if v.max() == v.min():
        flags.append("density curve is flat; the unimodality assumption looks violated")
    else:
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        peak_vals = v[1:-1][interior]
        peaks = int(np.count_nonzero(peak_vals >= 0.25 * v.max()))
        if peaks > 1:
            flags.append(
                f"density curve has {peaks} competing local maxima; "
                "the unimodality assumption looks violated"
            )
        if v.argmax() in (0, v.size - 1):
            flags.append("density curve peaks at the edge of the grid; "
                         "the grid may not cover the mode")
    return flags


def argmax_on_grid(curve: DensityCurve):
    """Index and value of the curve maximum, ties broken toward smaller y."""
    if curve.order != 0:
        raise ValueError("mode search requires an order-0 density curve")
    v = curve.values
    if not np.isfinite(v).all():
        raise InvalidCurveError("density curve contains non-finite values")
    for msg in curve_shape_flags(v):
        warnings.warn(msg, CurveShapeWarning, stacklevel=2)
    idx = int(np.argmax(v))  # first occurrence = smallest grid y
    return idx, float(v[idx])


def refine_mode(evaluate, y0, window):
    """Sub-grid refinement via a quadratic through three evaluations.

    Fits a parabola through ``(y0 - window, y0, y0 + window)`` and returns its
    vertex clamped to that bracket; falls back to ``y0`` when the fitted
    quadratic is not concave, so the call is total.
    """
    if not (window > 0 and math.isfinite(window)):
        raise ValueError(f"window must be a positive finite real, got {window!r}")
    fm = evaluate(y0 - window)
    f0 = evaluate(y0)
    fp = evaluate(y0 + window)
    denom = fm - 2.0 * f0 + fp
    if not (math.isfinite(denom) and denom < 0.0):
        return y0
    vertex = y0 + 0.5 * window * (fm - fp) / denom
    return min(max(vertex, y0 - window), y0 + window)


def mode_of_curve(curve: DensityCurve, evaluate=None, evaluate_deriv=None):
    """Grid argmax plus optional quadratic refinement and FOC diagnostic.

    ``evaluate`` must be the exact order-0 density evaluator (the refinement
    re-queries it inside one grid cell); ``evaluate_deriv`` the order-1
    evaluator used only to report the first-order-condition residual.
    """
    idx, _ = argmax_on_grid(curve)
    grid = curve.grid
    m = grid.size
    if evaluate is None:
        theta = float(grid[idx])
        refined = False
    else:
        left = grid[idx] - grid[idx - 1] if idx > 0 else grid[idx + 1] - grid[idx]
        right = grid[idx + 1] - grid[idx] if idx < m - 1 else grid[idx] - grid[idx - 1]
        window = min(left, right)
        theta = float(refine_mode(evaluate, float(grid[idx]), window))
        refined = True
    foc = float(evaluate_deriv(theta)) if evaluate_deriv is not None else math.nan
    return ModeLocation(theta=theta, grid_index=idx, refined=refined, foc_residual=foc)
