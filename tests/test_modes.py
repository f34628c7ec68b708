"""Grid argmax, quadratic refinement, and mode location."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modete as m

SPEC = m.KernelSpec(m.GAUSSIAN, 1.0)


def curve(values, grid=None, order=0):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = np.arange(values.size, dtype=float)
    return m.DensityCurve(np.asarray(grid, float), values, arm=1, order=order, spec=SPEC)


def test_argmax_examples():
    assert m.argmax_on_grid(curve([1, 3, 2])) == (1, 3.0)
    assert m.argmax_on_grid(curve([2, 5, 5])) == (1, 5.0)


def test_argmax_flat_curve_warns():
    with pytest.warns(m.CurveShapeWarning):
        idx, val = m.argmax_on_grid(curve([4, 4, 4]))
    assert (idx, val) == (0, 4.0)


def test_argmax_rejects_nonfinite_and_wrong_order():
    with pytest.raises(m.InvalidCurveError):
        m.argmax_on_grid(curve([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        m.argmax_on_grid(curve([1, 2, 1], order=1))


def test_multimodal_curve_warns():
    with pytest.warns(m.CurveShapeWarning):
        m.argmax_on_grid(curve([0, 5, 0, 4.9, 0]))


@pytest.mark.parametrize("values", [[5, 3, 1], [1, 3, 5]], ids=["first", "last"])
def test_peak_at_grid_edge_warns(values):
    with pytest.warns(m.CurveShapeWarning, match="edge of the grid"):
        m.argmax_on_grid(curve(values))


def test_refine_mode_recovers_quadratic_vertex():
    got = m.refine_mode(lambda y: -((y - 0.3) ** 2), y0=0.25, window=0.1)
    assert got == pytest.approx(0.3, abs=1e-9)


def test_refine_mode_constant_falls_back():
    assert m.refine_mode(lambda y: 1.0, y0=0.4, window=0.2) == 0.4


def test_refine_mode_clamps():
    got = m.refine_mode(lambda y: -((y - 1.0) ** 2), y0=0.0, window=0.1)
    assert got == pytest.approx(0.1, abs=1e-12)


def test_refine_mode_rejects_bad_window():
    with pytest.raises(ValueError):
        m.refine_mode(lambda y: 0.0, 0.0, 0.0)


@given(
    vertex=st.floats(-1.0, 1.0),
    curvature=st.floats(0.1, 5.0),
    offset=st.floats(-0.09, 0.09),
)
@settings(max_examples=150, deadline=None)
def test_refine_mode_quadratic_property(vertex, curvature, offset):
    f = lambda y: -curvature * (y - vertex) ** 2
    got = m.refine_mode(f, y0=vertex + offset, window=0.1)
    assert abs(got - vertex) <= 1e-9


def test_refined_theta_stays_in_cell():
    rng = np.random.default_rng(4)
    grid = np.linspace(-2, 2, 41)
    values = np.exp(-0.5 * grid ** 2) + 0.01 * rng.random(grid.size)
    c = curve(values, grid)
    loc = m.mode_of_curve(c, evaluate=lambda y: math.exp(-0.5 * y * y))
    step = grid[1] - grid[0]
    assert abs(loc.theta - grid[loc.grid_index]) <= step
    assert loc.refined


def test_mode_scaling_invariance():
    grid = np.linspace(0, 5, 64)
    values = np.exp(-((grid - 2.2) ** 2))
    base = m.mode_of_curve(curve(values, grid))
    for lam in (0.5, 3.0, 100.0):
        scaled = m.mode_of_curve(curve(lam * values, grid))
        assert scaled.grid_index == base.grid_index
        assert scaled.theta == base.theta


def test_mode_of_curve_symmetric_triangle():
    loc = m.mode_of_curve(curve([0, 1, 2, 1, 0]))
    assert loc.theta == 2.0
    assert not loc.refined
    assert math.isnan(loc.foc_residual)


def test_mode_of_curve_foc_residual():
    grid = np.linspace(-1, 1, 21)
    values = -(grid ** 2) + 1.0
    loc = m.mode_of_curve(
        curve(values, grid),
        evaluate=lambda y: 1.0 - y * y,
        evaluate_deriv=lambda y: -2.0 * y,
    )
    assert loc.theta == pytest.approx(0.0, abs=1e-9)
    assert loc.foc_residual == pytest.approx(0.0, abs=1e-8)


def test_mode_recovery_on_lognormal_curve():
    # Lognormal(0, 0.5) arm of size 2000; analytic mode exp(-0.25).  A
    # 20-seed pilot put the median absolute error at 0.044, well inside 0.1.
    rng = np.random.default_rng(1)
    y = np.exp(0.5 * rng.standard_normal(2000))
    s = m.Sample(y, np.ones(2000, int), rng.random((2000, 1)))
    spec = m.KernelSpec(m.GAUSSIAN, m.default_bandwidth(s.n, 1, "kernel", m.robust_scale(s.y)))
    grid = m.default_grid(s.y, spec.h)
    loc = m.mode_of_curve(m.marginal_density_curve(s, 1, spec, grid))
    assert abs(loc.theta - math.exp(-0.25)) <= 0.1


def test_shifted_sample_shifts_theta_exactly():
    rng = np.random.default_rng(17)
    y = rng.normal(size=120)
    s = m.Sample(y, np.r_[np.ones(60, int), np.zeros(60, int)], rng.random((120, 1)))
    spec = m.KernelSpec(m.GAUSSIAN, 0.5)
    grid = np.linspace(-3, 3, 101)
    c = 5.0
    shifted = m.Sample(s.y + c, s.d, s.x)
    base = m.mode_of_curve(m.marginal_density_curve(s, 1, spec, grid))
    moved = m.mode_of_curve(m.marginal_density_curve(shifted, 1, spec, grid + c))
    assert moved.theta == base.theta + c
