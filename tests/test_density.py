"""Conditional and marginal density estimators."""

import math
import tracemalloc

import numpy as np
import pytest

import modete as m

from conftest import gaussian_arm_weights, small_sample

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
PHI1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)


def single_point_sample(y=0.0, x=0.0, arm=1):
    # A second far-away observation of the opposite arm keeps Sample two-armed
    # without influencing Gaussian-kernel tests materially; single-arm cases
    # construct Sample directly.
    return m.Sample([y], [arm], [[x]])


def test_sample_validation():
    with pytest.raises(ValueError):
        m.Sample([1.0, np.nan], [0, 1], [[0.0], [0.0]])
    with pytest.raises(ValueError):
        m.Sample([1.0, 2.0], [0, 2], [[0.0], [0.0]])
    with pytest.raises(ValueError):
        m.Sample([1.0, 2.0], [0], [[0.0], [0.0]])
    with pytest.raises(ValueError):
        m.Sample([1.0, 2.0], [0, 1], [[0.0], [np.inf]])
    with pytest.raises(ValueError):
        m.Sample([], [], np.empty((0, 1)))


def test_sample_is_read_only():
    s = small_sample()
    with pytest.raises(ValueError):
        s.y[0] = 1.0


def test_subset_indexes_a_validated_sample():
    """A subset holds each array indexed by the rows, contiguous and
    read-only, with ``d`` kept int64; an empty subset raises, and a sample
    built from raw arrays is still validated in full."""
    rng = np.random.default_rng(5)
    n = 40
    s = m.Sample(rng.normal(size=n), rng.integers(0, 2, n).astype(np.int32), rng.normal(size=(n, 3)))
    for idx in ([5], np.array([3, 0, 7, 7, 39]), np.flatnonzero(s.d == 1), np.arange(n) % 3 == 0):
        for sub in (s.subset(idx), s.subset(np.arange(n)).subset(idx)):
            for got, arr in ((sub.y, s.y), (sub.d, s.d), (sub.x, s.x)):
                want = arr[np.asarray(idx)]
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert got.flags.c_contiguous and not got.flags.writeable
            assert sub.d.dtype == np.int64
            with pytest.raises(ValueError):
                sub.x[0, 0] = 1.0
    for empty in (np.array([], dtype=np.intp), np.zeros(n, dtype=bool)):
        with pytest.raises(ValueError, match="non-empty"):
            s.subset(empty)
    with pytest.raises(ValueError, match="finite"):
        m.Sample(s.y, s.d, np.where(np.arange(n)[:, None] == 4, np.nan, s.x))
    with pytest.raises(ValueError, match="only 0 and 1"):
        m.Sample(s.y, np.where(np.arange(n) == 4, 2, s.d), s.x)


def test_cond_density_single_point():
    s = single_point_sample()
    spec = m.KernelSpec(m.GAUSSIAN, 1.0)
    got = m.cond_density_at(s, 1, spec, y=0.0, x=[0.0], order=0)
    assert got == pytest.approx(PHI0, abs=1e-7)
    assert m.cond_density_at(s, 1, spec, 0.0, [0.0], order=1) == 0.0


def test_cond_density_symmetric_pair_cancels():
    a = 0.7
    s = m.Sample([a, -a], [1, 1], [[0.0], [0.0]])
    spec = m.KernelSpec(m.GAUSSIAN, 1.0)
    assert m.cond_density_at(s, 1, spec, 0.0, [0.0], order=1) == pytest.approx(0.0, abs=1e-15)


def test_cond_density_degenerate_locality():
    s = m.Sample([0.0, 1.0], [1, 0], [[0.0], [0.5]])
    spec = m.KernelSpec(m.EPANECHNIKOV, 0.1)
    with pytest.raises(m.DegenerateLocalityError) as exc:
        m.cond_density_at(s, 1, spec, 0.0, [5.0])
    assert exc.value.arm == 1
    assert np.allclose(exc.value.x, [5.0])


def test_marginal_duplicated_arms_symmetric():
    rng = np.random.default_rng(3)
    y = rng.normal(size=60)
    x = rng.random((60, 1))
    s = m.Sample(np.concatenate([y, y]), np.r_[np.ones(60, int), np.zeros(60, int)],
                 np.vstack([x, x]))
    spec = m.KernelSpec(m.GAUSSIAN, 0.4)
    grid = np.linspace(-3, 3, 101)
    c1 = m.marginal_density_curve(s, 1, spec, grid)
    c0 = m.marginal_density_curve(s, 0, spec, grid)
    assert np.max(np.abs(c1.values - c0.values)) <= 1e-12


def test_marginal_single_treated_point():
    s = single_point_sample()
    spec = m.KernelSpec(m.GAUSSIAN, 1.0)
    curve = m.marginal_density_curve(s, 1, spec, np.array([-1.0, 0.0, 1.0]))
    assert curve.values == pytest.approx([PHI1, PHI0, PHI1], abs=1e-7)


def test_marginal_matches_bruteforce_average():
    """Independent oracle: loop over the pointwise conditional estimator."""
    s = small_sample(n=25, seed=5)
    spec = m.KernelSpec(m.GAUSSIAN, 0.7)
    grid = np.linspace(-2.0, 2.0, 9)
    for arm in (0, 1):
        for order in (0, 1, 2):
            curve = m.marginal_density_curve(s, arm, spec, grid, order)
            brute = np.array([
                np.mean([m.cond_density_at(s, arm, spec, g, s.x[i], order) for i in range(s.n)])
                for g in grid
            ])
            assert np.max(np.abs(curve.values - brute)) <= 1e-12


def test_marginal_integrates_to_one(lognormal_plain):
    sample = m.generate(lognormal_plain, 500, seed=11)
    res = m.estimate_kernel_mte(sample)
    total = np.trapezoid(res.curve1.values, res.curve1.grid)
    assert 0.97 <= total <= 1.03
    total0 = np.trapezoid(res.curve0.values, res.curve0.grid)
    assert 0.97 <= total0 <= 1.03


def test_shift_equivariance():
    s = small_sample(n=50, seed=9)
    spec = m.KernelSpec(m.GAUSSIAN, 0.5)
    grid = np.linspace(-2.5, 2.5, 64)
    c = 10.0
    shifted = m.Sample(s.y + c, s.d, s.x)
    base = m.marginal_density_curve(s, 1, spec, grid)
    moved = m.marginal_density_curve(shifted, 1, spec, grid + c)
    assert np.max(np.abs(base.values - moved.values)) <= 1e-12


@pytest.mark.parametrize("orders", [(0, 1), (1, 2)])
def test_derivative_consistency(orders, lognormal_plain):
    low, high = orders
    sample = m.generate(lognormal_plain, 300, seed=2)
    spec = m.KernelSpec(m.GAUSSIAN, 0.4)
    step = spec.h / 50.0
    grid = np.arange(0.2, 2.2, step)
    lo_curve = m.marginal_density_curve(sample, 1, spec, grid, order=low)
    hi_curve = m.marginal_density_curve(sample, 1, spec, grid, order=high)
    fd = (lo_curve.values[2:] - lo_curve.values[:-2]) / (2.0 * step)
    scale = np.max(np.abs(hi_curve.values))
    assert np.max(np.abs(fd - hi_curve.values[1:-1])) <= 1e-3 * scale


def test_arm_swap_symmetry_exact():
    s = small_sample(n=40, seed=13)
    flipped = m.Sample(s.y, 1 - s.d, s.x)
    spec = m.KernelSpec(m.GAUSSIAN, 0.6)
    grid = np.linspace(-2, 2, 33)
    for arm in (0, 1):
        a = m.marginal_density_curve(s, arm, spec, grid)
        b = m.marginal_density_curve(flipped, 1 - arm, spec, grid)
        assert np.array_equal(a.values, b.values)


def test_order_zero_curves_nonnegative():
    s = small_sample(n=80, seed=21)
    spec = m.KernelSpec(m.EPANECHNIKOV, 0.8)
    grid = np.linspace(-4, 4, 200)
    for arm in (0, 1):
        curve = m.marginal_density_curve(s, arm, spec, grid)
        assert np.all(curve.values >= 0.0)


def test_marginal_propagates_index():
    # Control cluster far from a treated point with a compact kernel: the
    # treated observation's covariate has no arm-0 mass.
    s = m.Sample([0.0, 1.0, 1.1], [1, 0, 0], [[0.0], [5.0], [5.1]])
    spec = m.KernelSpec(m.EPANECHNIKOV, 0.5)
    with pytest.raises(m.DegenerateLocalityError) as exc:
        m.marginal_density_curve(s, 0, spec, np.linspace(-1, 2, 16))
    assert exc.value.index == 0


def test_density_curve_validation():
    spec = m.KernelSpec(m.GAUSSIAN, 1.0)
    with pytest.raises(ValueError):
        m.DensityCurve(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1, 0, spec)
    with pytest.raises(ValueError):
        m.DensityCurve(np.array([0.0, 1.0, 0.5]), np.zeros(3), 1, 0, spec)


def test_default_grid_padding():
    y = np.array([0.0, 2.0])
    grid = m.default_grid(y, h=0.5, points=512)
    assert grid.size == 512
    assert grid[0] == -0.5
    assert grid[-1] == 2.5


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fused_gaussian_weights_match_coordinate_product(dim):
    """The fused block leaves out the constant ``(sqrt(2 pi) h)**-d``."""
    from modete.density import _product_weights_block, _scaled_columns

    rng = np.random.default_rng(dim)
    xa = rng.normal(size=(30, dim))
    xb = rng.normal(size=(17, dim))
    spec = m.KernelSpec(m.GAUSSIAN, 0.7)
    fused = _product_weights_block(_scaled_columns(xb, spec), _scaled_columns(xa, spec),
                                   spec.family)
    factors = m.eval_kernel(m.GAUSSIAN, (xb[:, None, :] - xa[None, :, :]) / spec.h, 0)
    want = np.prod(factors, axis=-1) * math.sqrt(2.0 * math.pi) ** dim
    assert np.max(np.abs(fused / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lift_holds_its_bound_and_tolerance(dim):
    """The Gaussian block is lifted up to ``R2 = log1p(_LIFT_TOL) / ((6 d + 8) u)``
    (to first order in ``u = 2**-53``) and declined past it, or where
    ``|z|**2`` overflows.  Where it is lifted, every exponent ``a_i . b_j``
    lies within ``(6 d + 8) u R2`` of ``-|z_i - z_j|**2``, computed exactly in
    rational arithmetic from the stored doubles."""
    from fractions import Fraction

    from modete.density import _LIFT_TOL, _lift

    u = 2.0 ** -53
    r2_max = math.log1p(_LIFT_TOL) / ((6 * dim + 8) * u)
    rng = np.random.default_rng(dim)
    z = rng.normal(size=(dim, 24))
    z *= math.sqrt(0.999 * r2_max) / np.sqrt((z * z).sum(axis=0)).max()
    far = z * math.sqrt(1.002 / 0.999)
    assert _lift(far) is None and _lift(z, far) is None and _lift(far, z) is None
    assert _lift(z * 1e160) is None
    a, b = _lift(z)
    got = a @ b
    pts = [[Fraction(float(v)) for v in col] for col in z.T]
    r2 = max(sum(v * v for v in p) for p in pts)
    bound = Fraction((6 * dim + 8) * u * (1.0 + 1e-9)) * r2
    worst = max(abs(Fraction(float(got[i, j])) + sum((p - q) ** 2 for p, q in zip(pi, pj)))
                for i, pi in enumerate(pts) for j, pj in enumerate(pts))
    assert 0 < worst <= bound <= math.log1p(_LIFT_TOL)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lifted_curve_weights_match_difference_formula(dim):
    """With the lift taken, each arm's curve weights lie within
    ``4 * _LIFT_TOL`` relative of the difference formula's."""
    from modete.density import _LIFT_TOL, _lift, _scaled_columns

    s, _ = m.standardize_covariates(small_sample(n=400, seed=dim, dim=dim))
    spec = m.KernelSpec(m.GAUSSIAN, 0.12)
    assert _lift(_scaled_columns(s.x, spec)) is not None
    for arm in (0, 1):
        want, _ = gaussian_arm_weights(s.x, s.d, spec.h, arm)
        got = m.marginal_arm_fit(s, arm, spec).c
        assert np.max(np.abs(got / want - 1.0)) <= 4 * _LIFT_TOL


@pytest.mark.parametrize("dim", [1, 2])
def test_declined_lift_keeps_the_difference_block_bits(dim):
    """At a bandwidth too small for the lift's bound the pass runs the
    difference block: over one row block, its curve weights have the bytes
    of that block's ``e.T @ (1 / e.sum(axis=1))``."""
    from modete.density import _block_rows, _lift, _product_weights_block, _scaled_columns

    s = small_sample(n=300, seed=5, dim=dim)
    spec = m.KernelSpec(m.GAUSSIAN, 0.01)
    z = _scaled_columns(s.x, spec)
    assert _lift(z) is None and _block_rows(s.n) >= s.n
    for arm in (0, 1):
        e = _product_weights_block(z, z[:, s.d == arm], spec.family)
        want = e.T @ (1.0 / e.sum(axis=1))
        assert m.marginal_arm_fit(s, arm, spec).c.tobytes() == want.tobytes()


def test_curve_matches_scaled_kernel_sum_bitwise():
    """The in-place order-0 Gaussian block gives the bits of ``scaled_kernel``."""
    s = small_sample(n=60, seed=9)
    spec = m.KernelSpec(m.GAUSSIAN, 0.45)
    grid = np.linspace(-3.0, 3.0, 41)
    for arm in (0, 1):
        fit = m.marginal_arm_fit(s, arm, spec)
        want = m.scaled_kernel(spec, grid[:, None] - fit.y[None, :], 0) @ fit.c / fit.n
        assert np.array_equal(fit.curve(grid), want)


@pytest.mark.parametrize("h", [0.02, 0.2, 1.0])
def test_kernel_sums_zero_the_underflow_tail(h):
    """Order-0 Gaussian sums never compute a subnormal kernel: a kernel whose
    exp argument is below the floor is exactly 0, every other one keeps the
    bits of ``scaled_kernel``."""
    from modete.density import _EXP_FLOOR, _kernel_sums

    rng = np.random.default_rng(17)
    y = np.exp(rng.normal(0.0, 0.8, 400))
    grid = np.linspace(y.min() - 40 * h, y.max() + 40 * h, 97)
    spec = m.KernelSpec(m.GAUSSIAN, h)
    w = np.column_stack([np.ones(y.size), 1.0 + rng.random(y.size)])
    diff = grid[:, None] - y[None, :]
    u = diff / h
    arg = -0.5 * u * u
    with np.errstate(under="ignore"):
        ref = m.scaled_kernel(spec, diff, 0)
    assert np.any((ref > 0) & (ref < np.finfo(float).tiny))  # the tail has subnormals
    ref[arg < _EXP_FLOOR] = 0.0
    with np.errstate(under="raise"):
        got = _kernel_sums(spec, grid, y, w)
    assert np.array_equal(got, ref @ w)


def test_kernel_sums_of_a_far_outcome_are_zero():
    """An outcome so far from the grid that ``((g - y) / h) ** 2`` overflows
    contributes 0, as ``scaled_kernel`` gives it, not nan."""
    from modete.density import _kernel_sums

    spec = m.KernelSpec(m.GAUSSIAN, 0.5)
    y = np.array([0.0, 1e200])
    grid = np.linspace(-1.0, 1.0, 5)
    with np.errstate(over="ignore", under="ignore"):
        want = m.scaled_kernel(spec, grid[:, None] - y[None, :], 0) @ np.ones(2)
    got = _kernel_sums(spec, grid, y, np.ones(2))
    assert np.array_equal(got, want)


def test_covariate_weights_keep_the_subnormal_tail():
    """The covariate kernel is not cut: a pair 37.7 bandwidths apart still
    gets a nonzero, subnormal weight."""
    from modete.density import _product_weights_block, _scaled_columns

    spec = m.KernelSpec(m.GAUSSIAN, 0.3)
    with np.errstate(under="ignore"):
        w = _product_weights_block(_scaled_columns(np.array([[0.0]]), spec),
                                   _scaled_columns(np.array([[37.7 * spec.h]]), spec),
                                   spec.family)
    assert 0.0 < w[0, 0] < np.finfo(float).tiny


def test_curve_memory_is_bounded(lognormal_selection):
    """One kernel chunk at a time: the curve's peak allocation stays within
    two block budgets plus a few grid-sized arrays."""
    from modete.density import _BLOCK_BYTES

    sample, _ = m.standardize_covariates(m.generate(lognormal_selection, 12_000, seed=3))
    spec = m.KernelSpec(m.GAUSSIAN, 0.3)
    grid = m.default_grid(sample.y, spec.h)
    fit = m.marginal_arm_fit(sample, 1, spec)
    assert fit.y.size > 4_000
    tracemalloc.start()
    try:
        fit.curve(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _BLOCK_BYTES + 64 * grid.size


@pytest.mark.parametrize("empty", [[], np.array([], dtype=int), "mask"])
def test_empty_subset_raises_value_error(empty):
    """An empty Python list, an empty integer array and an all-False mask all
    raise the empty-subset error (``np.asarray([])`` is a float array, which
    cannot index)."""
    s = small_sample()
    with pytest.raises(ValueError, match="non-empty"):
        s.subset(np.zeros(s.n, dtype=bool) if isinstance(empty, str) else empty)


BAD_GRIDS = {
    "nan-point": [0.0, np.nan, 1.0, 2.0],
    "inf-point": [0.0, 1.0, 2.0, np.inf],
    "2-d": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
    "decreasing": [2.0, 1.0, 0.0],
    "2-points": [0.0, 1.0],
    "empty": [],
}


class TestOutcomeGridContract:
    """Every entry point that takes an outcome grid rejects one that is not
    1-d, of at least 3 points, finite and strictly increasing, with a
    ``ValueError`` raised before any weight pass or fold fit."""

    @pytest.fixture(scope="class")
    def fitted(self):
        sample, _ = m.standardize_covariates(small_sample(n=60, seed=3))
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        partition = m.make_folds(sample.n, 3, seed=0)
        return sample, spec, partition, m.fit_nuisances(sample, partition, spec)

    @pytest.fixture
    def no_work(self, monkeypatch):
        import modete.density as density
        import modete.dml as dml
        import modete.kernel_mte as kernel_mte

        def forbidden(*args, **kwargs):
            raise AssertionError("a fit ran before the grid was checked")

        monkeypatch.setattr(kernel_mte, "_weight_pass", forbidden)
        monkeypatch.setattr(density, "marginal_arm_fit", forbidden)
        monkeypatch.setattr(dml, "fit_nuisances", forbidden)
        monkeypatch.setattr(dml, "_arm_fits", forbidden)

    @pytest.mark.parametrize("entry", ["kernel", "dml", "marginal", "dml-curve", "curve"])
    @pytest.mark.parametrize("bad", list(BAD_GRIDS), ids=list(BAD_GRIDS))
    def test_invalid_grid_raises_before_any_fit(self, fitted, no_work, entry, bad):
        sample, spec, partition, bundle = fitted
        grid = BAD_GRIDS[bad]
        calls = {
            "kernel": lambda: m.estimate_kernel_mte(sample, spec, grid=grid),
            "dml": lambda: m.estimate_dml_mte(sample, m.DMLConfig(grid=grid)),
            "marginal": lambda: m.marginal_density_curve(sample, 1, spec, grid),
            "dml-curve": lambda: m.dml_density_curve(sample, partition, bundle, spec, grid, 1),
            "curve": lambda: m.DensityCurve(grid=grid, values=np.zeros(np.shape(grid)), arm=1,
                                            order=0, spec=spec),
        }
        with pytest.raises(ValueError, match="grid"):
            calls[entry]()

    def test_nan_grid_fails_before_a_degenerate_weight_pass(self):
        """One covariate point far from every other: at a small h the weight
        pass finds no kernel mass there, but a NaN grid is rejected first."""
        s = small_sample(n=40, seed=2)
        x = s.x.copy()
        x[0] = 50.0
        s = m.Sample(s.y, s.d, x)
        spec = m.KernelSpec(m.GAUSSIAN, 0.05)
        with pytest.raises(m.DegenerateLocalityError):
            m.estimate_kernel_mte(s, spec)
        with pytest.raises(ValueError, match="grid"):
            m.estimate_kernel_mte(s, spec, grid=BAD_GRIDS["nan-point"])

    def test_nan_grid_fails_before_fold_stratification(self):
        """A single treated row leaves some auxiliary sample without treated
        rows at every fold seed, but a NaN grid is rejected first."""
        d = np.zeros(8, int)
        d[3] = 1
        s = m.Sample(np.arange(8.0), d, np.linspace(0, 1, 8)[:, None])
        with pytest.raises(m.StratificationError):
            m.estimate_dml_mte(s, m.DMLConfig(folds=2))
        with pytest.raises(ValueError, match="grid"):
            m.estimate_dml_mte(s, m.DMLConfig(folds=2, grid=BAD_GRIDS["nan-point"]))
