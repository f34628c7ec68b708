"""The kernel-route estimator: standardization, estimates, variance, CIs."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import modete as m

from conftest import cli_estimate, gaussian_arm_weights, small_sample, usable_cpus, write_csv

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def duplicated_arms_sample(n=120, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 0.5, n)
    x = rng.random((n, 1))
    return m.Sample(np.concatenate([y, y]),
                    np.r_[np.ones(n, int), np.zeros(n, int)],
                    np.vstack([x, x]))


class TestStandardize:
    def test_two_point_column_bruteforce(self):
        s = m.Sample([1.0, 2.0], [1, 0], [[0.0], [2.0]])
        out, rec = m.standardize_covariates(s)
        # Brute-force recomputation with the sample (n-1) convention.
        col = np.array([0.0, 2.0])
        mu = col.mean()
        sd = col.std(ddof=1)
        assert rec.location[0] == mu == 1.0
        assert rec.scale[0] == sd == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert np.allclose(out.x.ravel(), (col - mu) / sd, atol=1e-15)

    def test_constant_column_errors(self):
        s = m.Sample([1.0, 2.0, 3.0], [1, 0, 1], [[3.0], [3.0], [3.0]])
        with pytest.raises(m.ConstantCovariateError) as exc:
            m.standardize_covariates(s)
        assert exc.value.column == 0

    def test_idempotent_on_standardized_input(self):
        s = small_sample(n=60, seed=1)
        once, _ = m.standardize_covariates(s)
        twice, rec = m.standardize_covariates(once)
        assert np.max(np.abs(twice.x - once.x)) <= 1e-12
        assert np.allclose(rec.location, 0.0, atol=1e-12)
        assert np.allclose(rec.scale, 1.0, atol=1e-12)

    def test_outcome_untouched(self):
        s = small_sample(n=30, seed=2)
        out, _ = m.standardize_covariates(s)
        assert np.array_equal(out.y, s.y)


class TestEstimateKernelMTE:
    def test_duplicated_arms_delta_zero_exactly(self):
        res = m.estimate_kernel_mte(duplicated_arms_sample())
        assert res.delta == 0.0
        assert res.se1 == res.se0
        assert res.v1_hat == res.v0_hat

    def test_lognormal_dgp_point_estimates(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 5000, seed=0)
        res = m.estimate_kernel_mte(sample)
        assert abs(res.theta1 - math.exp(0.5 - 0.36)) <= 0.15
        assert abs(res.theta0 - math.exp(-0.36)) <= 0.12
        assert res.delta == res.theta1 - res.theta0
        assert res.method == "kernel"

    def test_ci_width_matches_normal_quantile(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 800, seed=4)
        results = {alpha: m.estimate_kernel_mte(sample, alpha=alpha)
                   for alpha in (0.001, 0.01, 0.05, 0.1, 0.5)}
        for alpha, r in results.items():
            for ci, se in ((r.ci1, r.se1), (r.ci0, r.se0), (r.ci_delta, r.se_delta)):
                assert (ci[1] - ci[0]) / se == pytest.approx(2.0 * ndtri(1.0 - alpha / 2.0),
                                                             rel=1e-12)
        res = results[0.05]
        for ci, se in ((res.ci1, res.se1), (res.ci0, res.se0), (res.ci_delta, res.se_delta)):
            assert (ci[1] - ci[0]) / se == pytest.approx(2.0 * 1.959964, abs=1e-6)
        assert res.ci1[0] < res.theta1 < res.ci1[1]
        assert res.ci0[0] < res.theta0 < res.ci0[1]
        assert res.ci_delta[0] < res.delta < res.ci_delta[1]

    def test_se_delta_is_diagonal_sum(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 600, seed=6)
        res = m.estimate_kernel_mte(sample)
        assert res.se_delta ** 2 == pytest.approx(res.se1 ** 2 + res.se0 ** 2, abs=1e-12)

    def test_arm_swap_exact(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 500, seed=7)
        flipped = m.Sample(sample.y, 1 - sample.d, sample.x)
        a = m.estimate_kernel_mte(sample)
        b = m.estimate_kernel_mte(flipped)
        assert (a.theta1, a.se1, a.ci1) == (b.theta0, b.se0, b.ci0)
        assert (a.theta0, a.se0, a.ci0) == (b.theta1, b.se1, b.ci1)
        assert a.delta == -b.delta

    def test_shift_equivariance(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 500, seed=9)
        res = m.estimate_kernel_mte(sample)
        c = 7.0
        moved = m.estimate_kernel_mte(m.Sample(sample.y + c, sample.d, sample.x))
        assert moved.theta1 == pytest.approx(res.theta1 + c, abs=1e-9)
        assert moved.theta0 == pytest.approx(res.theta0 + c, abs=1e-9)
        assert moved.delta == pytest.approx(res.delta, abs=1e-9)
        assert moved.se1 == pytest.approx(res.se1, abs=1e-9)
        assert moved.se0 == pytest.approx(res.se0, abs=1e-9)
        for got, want in ((moved.m1_hat, res.m1_hat), (moved.v1_hat, res.v1_hat)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_single_arm_sample_rejected(self):
        s = m.Sample([1.0, 2.0], [1, 1], [[0.1], [0.5]])
        with pytest.raises(m.NoOverlapError):
            m.estimate_kernel_mte(s)

    def test_alpha_outside_unit_interval_rejected(self, lognormal_plain):
        """Both routes share the preamble that rejects a CI level outside (0, 1)."""
        sample = m.generate(lognormal_plain, 60, seed=1)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                m.estimate_kernel_mte(sample, alpha=alpha)
            with pytest.raises(ValueError):
                m.estimate_dml_mte(sample, m.DMLConfig(alpha=alpha))

    @pytest.mark.parametrize("kappa", [0.0, 0.5, -0.1, math.nan])
    def test_kappa_outside_open_half_interval_rejected(self, kappa, lognormal_plain):
        """Both routes reject a clipping level outside (0, 0.5) in the shared
        preamble, before any fit: the kernel route never calls ``pi_hat``, and
        the cross-fitted route with KNN propensities leaks no division by zero."""
        sample = m.generate(lognormal_plain, 60, seed=1)
        calls = []

        def pi_hat(x):
            calls.append(x)
            return np.full(x.shape[0], 0.5)

        with pytest.raises(ValueError, match="clip kappa must be in"):
            m.estimate_kernel_mte(sample, kappa=kappa, pi_hat=pi_hat)
        assert not calls
        with pytest.raises(ValueError, match="clip kappa must be in"):
            m.estimate_dml_mte(sample, m.DMLConfig(kappa=kappa, pi_learner="knn",
                                                   pi_hyper={"k": 3}))

    def test_curvature_flag_on_healthy_fit(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 2000, seed=3)
        res = m.estimate_kernel_mte(sample)
        assert res.m1_hat < 0 and res.m0_hat < 0
        assert not res.diagnostics.m_hat_sign


class TestVarianceComponents:
    def test_single_point_per_arm_hand_value(self):
        s = m.Sample([0.0, 0.0], [1, 0], [[0.0], [0.0]])
        spec = m.KernelSpec(m.GAUSSIAN, 1.0)
        m1, m0, v1, v0 = m.kernel_variance_components(
            s, spec, theta1=0.0, theta0=0.0, pi_hat=lambda x: np.full(len(x), 0.5)
        )
        # Curvature of the conditional fit collapses to K''(0) = -phi(0).
        assert m1 == pytest.approx(-PHI0, abs=1e-7)
        assert m1 == pytest.approx(-0.3989423, abs=1e-6)
        assert m0 == pytest.approx(-PHI0, abs=1e-7)

    def test_duplicated_arms_with_flat_propensity(self):
        s = duplicated_arms_sample(n=80, seed=5)
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        m1, m0, v1, v0 = m.kernel_variance_components(
            s, spec, theta1=1.0, theta0=1.0, pi_hat=lambda x: np.full(len(x), 0.5)
        )
        assert abs(v1 - v0) <= 1e-12
        assert abs(m1 - m0) <= 1e-12

    def test_variance_components_positive(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 400, seed=10)
        res = m.estimate_kernel_mte(sample)
        assert res.v1_hat > 0
        assert res.v0_hat > 0

    def test_rejects_bad_pi_hat(self):
        s = small_sample(n=20, seed=3)
        spec = m.KernelSpec(m.GAUSSIAN, 0.8)
        with pytest.raises(ValueError):
            m.kernel_variance_components(s, spec, 0.0, 0.0, pi_hat=lambda x: np.ones(3))
        with pytest.raises(ValueError):
            m.kernel_variance_components(
                s, spec, 0.0, 0.0, pi_hat=lambda x: np.full(len(x), np.nan)
            )


class TestOnePassVariance:
    """The variance components folded into the weight pass equal their
    per-observation definitions built from the pointwise estimator."""

    @staticmethod
    def per_observation(sample, spec, theta1, theta0, kappa, pi_hat):
        std, _ = m.standardize_covariates(sample)
        den = {arm: np.array([np.sum(m.product_kernel(spec, xi - std.x[std.d == arm]))
                              for xi in std.x]) for arm in (1, 0)}
        if pi_hat is None:
            share = {arm: den[arm] / (den[1] + den[0]) for arm in (1, 0)}
        else:
            share = {1: pi_hat(std.x), 0: 1.0 - pi_hat(std.x)}
        kappa0_1 = m.kernel_constants(spec.family).kappa0_1
        out = {}
        for arm, theta in ((1, theta1), (0, theta0)):
            f = [m.cond_density_at(std, arm, spec, theta, xi, 0) for xi in std.x]
            f2 = [m.cond_density_at(std, arm, spec, theta, xi, 2) for xi in std.x]
            p = m.clip_propensity(share[arm], kappa)
            out[arm] = (np.mean(f2), kappa0_1 * np.mean(np.asarray(f) / p))
        return out[1][0], out[0][0], out[1][1], out[0][1]

    @pytest.mark.parametrize("family", [m.GAUSSIAN, m.EPANECHNIKOV])
    @pytest.mark.parametrize("user_pi", [False, True])
    def test_components_match_definitions(self, family, user_pi, lognormal_selection):
        sample = m.generate(lognormal_selection, 150, seed=4)
        spec = m.KernelSpec(family, 0.9)
        pi_hat = (lambda x: 1.0 / (1.0 + np.exp(-1.5 * x[:, 0]))) if user_pi else None
        res = m.estimate_kernel_mte(sample, spec, kappa=0.05, pi_hat=pi_hat)
        want = self.per_observation(sample, spec, res.theta1, res.theta0, 0.05, pi_hat)
        got = (res.m1_hat, res.m0_hat, res.v1_hat, res.v0_hat)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", [m.GAUSSIAN, m.EPANECHNIKOV])
    @pytest.mark.parametrize("user_pi", [False, True])
    @pytest.mark.parametrize("design", ["skew-mixture", "three-covariates"])
    def test_components_match_definitions_with_more_covariates(self, design, family, user_pi,
                                                               dgps):
        if design == "skew-mixture":
            sample = m.generate(dgps["skew-mixture"], 150, seed=4)
        else:
            sample = small_sample(n=150, seed=4, dim=3)
        # At h = 0.9 some point of the three-covariate sample has no
        # Epanechnikov mass in one arm.
        spec = m.KernelSpec(family, 0.9 if sample.dim == 2 else 1.2)
        pi_hat = (lambda x: 1.0 / (1.0 + np.exp(-1.5 * x[:, 0]))) if user_pi else None
        res = m.estimate_kernel_mte(sample, spec, kappa=0.05, pi_hat=pi_hat)
        want = self.per_observation(sample, spec, res.theta1, res.theta0, 0.05, pi_hat)
        got = (res.m1_hat, res.m0_hat, res.v1_hat, res.v0_hat)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", [m.GAUSSIAN, m.EPANECHNIKOV])
    @pytest.mark.parametrize("design", ["lognormal-selection", "skew-mixture"])
    def test_curve_weights_do_not_depend_on_variance_weights(self, monkeypatch, design, family,
                                                             dgps):
        """The estimate's pass, which also makes the variance weights, gives
        each arm the curve weights of :func:`marginal_arm_fit`, bit for bit."""
        import modete.kernel_mte as kernel_mte

        seen = {}
        real = kernel_mte.estimate_from_fits

        def spy(fits, *args, **kwargs):
            seen.update(fits)
            return real(fits, *args, **kwargs)

        monkeypatch.setattr(kernel_mte, "estimate_from_fits", spy)
        sample = m.generate(dgps[design], 1500, seed=6)
        spec = m.KernelSpec(family, 0.4)
        m.estimate_kernel_mte(sample, spec)
        std, _ = m.standardize_covariates(sample)
        for arm in (1, 0):
            assert seen[arm].c_var is not None
            assert m.marginal_arm_fit(std, arm, spec).c.tobytes() == seen[arm].c.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lifted_weights_match_difference_formula(self, monkeypatch, dim):
        """With the lift taken, the estimate's pass gives each arm curve and
        variance weights within ``4 * _LIFT_TOL`` relative of the difference
        formula's, under the clipped local shares."""
        from modete.density import _LIFT_TOL, _lift, _scaled_columns

        sample = small_sample(n=400, seed=dim, dim=dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", m.CurveShapeWarning)
            _, seen = _estimate_with_fits(monkeypatch, "kernel", sample, h=0.12)
        std, _ = m.standardize_covariates(sample)
        assert _lift(_scaled_columns(std.x, seen[0][0].spec)) is not None
        for (fit, _), arm in zip(seen, (1, 0)):
            for got, want in zip((fit.c, fit.c_var),
                                 gaussian_arm_weights(std.x, std.d, 0.12, arm, kappa=0.01)):
                assert np.max(np.abs(got / want - 1.0)) <= 4 * _LIFT_TOL

    @pytest.mark.parametrize("family", [m.GAUSSIAN, m.EPANECHNIKOV])
    @pytest.mark.parametrize("h", [1e-320, 1e-200, 1e-100, 1e-5])
    def test_extreme_bandwidth_raises_only_a_typed_error(self, h, family, dgps):
        """At a bandwidth so small that no point has kernel mass in the other
        arm, the estimate raises :class:`DegenerateLocalityError`, with no
        overflow of the kernel's constant or of the squared distances, and no
        numpy warning."""
        sample = m.generate(dgps["skew-mixture"], 400, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(m.DegenerateLocalityError):
                m.estimate_kernel_mte(sample, m.KernelSpec(family, h))

    @pytest.mark.parametrize("bad", [lambda x: np.ones(1), lambda x: np.full(len(x), np.nan)],
                             ids=["length-1", "nan"])
    def test_estimate_rejects_bad_pi_hat(self, bad):
        with pytest.raises(ValueError):
            m.estimate_kernel_mte(small_sample(n=30, seed=8), pi_hat=bad)

    def test_block_memory_is_bounded(self, lognormal_selection):
        """Peak allocation stays under six block budgets plus 256 bytes per
        observation; the O(n^2) weight matrix would need about 1 GB here."""
        from modete.density import _BLOCK_BYTES

        n = 12_000
        sample = m.generate(lognormal_selection, n, seed=2)
        assert sample.dim == 1
        tracemalloc.start()
        try:
            m.estimate_kernel_mte(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * _BLOCK_BYTES + 256 * n


def _cli_kernel_estimate(csv_path, curves_path, cpu=None):
    """``modete estimate --method kernel`` on a two-covariate CSV, optionally
    confined to one ``cpu``; returns the JSON record without its timing, and
    the curves file."""
    doc = cli_estimate(csv_path, ["x0", "x1"],
                       ["--method", "kernel", "--emit-curves", str(curves_path)], cpu)
    return doc, Path(curves_path).read_bytes()


def _kernel_estimate_in_child(sample):
    """The estimate, and how many of the package's worker threads are alive."""
    res = m.estimate_kernel_mte(sample)
    workers = sum(t.name.startswith("modete-lane") for t in threading.enumerate())
    return (res.theta1, res.theta0, res.se_delta), workers


class TestTwoLanePass:
    """The weight pass runs its row blocks on a pool of two worker threads
    when two cores are usable, and on the calling thread otherwise; the
    result must not depend on it."""

    @pytest.mark.skipif(len(usable_cpus()) < 2, reason="needs at least two usable CPUs")
    def test_cli_output_identical_on_one_core(self, tmp_path, dgps):
        sample = m.generate(dgps["skew-mixture"], 3000, seed=3)
        assert sample.dim == 2
        path = tmp_path / "data.csv"
        write_csv(path, sample)
        one = _cli_kernel_estimate(path, tmp_path / "one.csv", min(usable_cpus()))
        two = _cli_kernel_estimate(path, tmp_path / "two.csv")
        assert one == two

    @pytest.mark.parametrize("blocks", [(0, 1), (1, 2), (1, 3), (2, 9)],
                             ids=lambda b: f"blocks-{b[0]}-{b[1]}")
    def test_first_point_without_mass_is_reported(self, blocks, lognormal_selection):
        """Two isolated points in different row blocks, which either thread
        may run and finish in either order: the error names the earlier one.
        The failed pass leaves the pool usable: a clean estimate after it
        equals one made before it."""
        from modete.density import _block_rows

        clean = m.generate(lognormal_selection, 3000, seed=4)
        before = m.estimate_kernel_mte(clean)
        n = 3000
        rng = np.random.default_rng(9)
        x = rng.random((n, 2))
        d = (rng.random(n) < 0.5).astype(int)
        step = _block_rows(n)
        first, later = (b * step + 5 for b in blocks)
        x[first], x[later] = (40.0, 0.0), (-40.0, 0.0)
        d[first] = d[later] = 1
        sample = m.Sample(rng.normal(size=n), d, x)
        with pytest.raises(m.DegenerateLocalityError) as exc:
            m.estimate_kernel_mte(sample, m.KernelSpec(m.EPANECHNIKOV, 0.5))
        assert (exc.value.index, exc.value.arm) == (first, 0)
        after = m.estimate_kernel_mte(clean)
        assert (after.theta1, after.theta0, after.se1, after.se0) == (
            before.theta1, before.theta0, before.se1, before.se0)
        assert after.curve1.values.tobytes() == before.curve1.values.tobytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_estimates_after_parent(self, lognormal_selection):
        """A child forked after the parent's worker threads have run starts
        workers of its own: its estimate finishes, on as many threads as the
        parent's, and equals the parent's."""
        sample = m.generate(lognormal_selection, 3000, seed=4)
        want = _kernel_estimate_in_child(sample)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_kernel_estimate_in_child, (sample,)).get(timeout=120)
        assert got == want

    def test_concurrent_callers_share_the_worker(self, dgps):
        """Four threads estimating at once, with rapid thread switching, all
        get the estimates a lone call gives (they queue their blocks on the
        same two worker threads)."""
        samples = [m.generate(dgps["lognormal-selection"], 1500, seed=s) for s in range(4)]
        want = [m.estimate_kernel_mte(s) for s in samples]
        got = [None] * len(samples)

        def run(i):
            got[i] = m.estimate_kernel_mte(samples[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(samples))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert (g.theta1, g.theta0, g.se1, g.se0) == (w.theta1, w.theta0, w.se1, w.se0)


def _kernel_estimate_bytes(blas_threads):
    """A two-covariate kernel-route estimate at n = 2000 (its modes, standard
    errors, components and both curves) and the kernel propensity learner's
    predictions, computed in a fresh interpreter with ``blas_threads`` BLAS
    threads, as hex."""
    src = str(Path(m.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import numpy as np, modete as m; "
            "s = m.generate(m.builtin_dgps()['skew-mixture'], 2000, seed=5); "
            "r = m.estimate_kernel_mte(s); "
            "p = m.fit_propensity(s, learner='kernel').predict(s.x); "
            "print(*(a.tobytes().hex() for a in (np.array([r.theta1, r.theta0, r.se1, r.se0, "
            "r.m1_hat, r.m0_hat, r.v1_hat, r.v0_hat]), r.curve1.values, r.curve0.values, p)))")
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    return proc.stdout


def test_same_bits_for_any_blas_thread_count():
    """The lifted blocks' matrix products give the same bits whether the BLAS
    runs them on one thread or splits them over two."""
    assert _kernel_estimate_bytes(1) == _kernel_estimate_bytes(2)


def test_nonnegative_curvature_sets_diagnostics_flag():
    from modete.results import build_result

    res = build_result(theta1=1.0, theta0=0.5, m1_hat=0.2, m0_hat=-1.0,
                       v1_hat=0.1, v0_hat=0.1, n=100, h=0.3,
                       method="kernel", family="gaussian", alpha=0.05)
    assert res.diagnostics.m_hat_sign
    assert any("curvature" in w for w in res.diagnostics.warnings)


@pytest.mark.parametrize("route", ["kernel", "dml"])
def test_grid_without_kernel_mass_sets_flat_curve(route, lognormal_plain):
    """A user grid far from every outcome gives all-zero curves, which the
    diagnostics flag as flat; the default grid does not."""
    sample = m.generate(lognormal_plain, 300, seed=5)
    far = np.linspace(200.0, 201.0, 16)

    def estimate(grid):
        if route == "kernel":
            return m.estimate_kernel_mte(sample, grid=grid)
        return m.estimate_dml_mte(sample, m.DMLConfig(grid=grid))

    with pytest.warns(m.CurveShapeWarning):
        res = estimate(far)
    assert not res.curve1.values.any() and not res.curve0.values.any()
    assert res.diagnostics.flat_curve
    assert not res.diagnostics.mode_at_grid_edge
    assert not estimate(None).diagnostics.flat_curve


@pytest.mark.parametrize("edge", ["first", "last"])
@pytest.mark.parametrize("route", ["kernel", "dml"])
def test_mode_at_grid_edge_is_flagged(route, edge, lognormal_plain):
    """A user grid that stops short of both modes puts each arm's argmax at
    its first or last point: the diagnostics flag it, with a warning, and
    each mode is that grid point, unrefined; the default grid does not."""
    sample = m.generate(lognormal_plain, 300, seed=5)

    def estimate(grid):
        if route == "kernel":
            return m.estimate_kernel_mte(sample, grid=grid)
        return m.estimate_dml_mte(sample, m.DMLConfig(grid=grid))

    default = estimate(None)
    assert not default.diagnostics.mode_at_grid_edge
    modes = sorted((default.theta0, default.theta1))
    if edge == "first":
        grid, index = np.linspace(modes[1] + 0.5, sample.y.max(), 64), 0
    else:
        grid, index = np.linspace(sample.y.min(), modes[0] - 0.3, 64), 63
    with pytest.warns(m.CurveShapeWarning, match="edge of the grid"):
        res = estimate(grid)
    assert np.argmax(res.curve1.values) == np.argmax(res.curve0.values) == index
    assert res.theta1 == res.theta0 == grid[index]
    assert res.diagnostics.mode_at_grid_edge
    assert sum("edge of the grid" in w for w in res.diagnostics.warnings) == 2


def test_robust_scale_uses_min_of_sd_and_iqr():
    rng = np.random.default_rng(0)
    y = rng.normal(size=4000)
    sd = np.std(y, ddof=1)
    q75, q25 = np.percentile(y, [75, 25])
    assert m.robust_scale(y) == min(sd, (q75 - q25) / 1.349)
    with pytest.raises(ValueError):
        m.robust_scale(np.full(10, 3.0))


def _estimate_with_fits(monkeypatch, route, sample, h=None, grid=None):
    """The estimate of ``route``, and the ``(fit, grid)`` of each arm whose
    order-0 curve the shared driver scanned, arm 1 first."""
    from modete import results

    seen, scan = [], results._scan_curve

    def record(fit, grid):
        seen.append((fit, grid))
        return scan(fit, grid)

    monkeypatch.setattr(results, "_scan_curve", record)
    if route == "kernel":
        spec = None if h is None else m.KernelSpec(m.GAUSSIAN, h)
        res = m.estimate_kernel_mte(sample, spec, grid=grid)
    else:
        res = m.estimate_dml_mte(sample, m.DMLConfig(bandwidth=h, grid=grid))
    return res, seen


def _exact_mode(fit, grid):
    """The mode search on the exact curve, as ``test_acceptance.kernel_theta1``
    runs it."""
    curve = m.DensityCurve(grid, fit.curve(grid), 1, 0, fit.spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", m.CurveShapeWarning)
        return m.mode_of_curve(curve, evaluate=fit.value)


class TestCertifiedScan:
    """The driver scans each arm's order-0 curve on a uniform grid by binning
    (``density._binned_sums``); the scan stays within its bound ``eps`` of
    the exact curve, and the mode search still sees the exact grid argmax."""

    @pytest.mark.parametrize("h", [None, 0.1, 2.0])
    @pytest.mark.parametrize("n", [300, 2000, 16_000])
    @pytest.mark.parametrize("route", ["kernel", "dml"])
    def test_scan_is_within_its_bound(self, monkeypatch, route, n, h, lognormal_selection):
        from modete.density import _binned_sums

        sample = m.generate(lognormal_selection, n, seed=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", m.CurveShapeWarning)
            res, seen = _estimate_with_fits(monkeypatch, route, sample, h=h)
        assert len(seen) == 2
        for (fit, grid), curve, theta in zip(seen, (res.curve1, res.curve0),
                                             (res.theta1, res.theta0)):
            exact = fit.curve(grid)
            sums, eps = _binned_sums(fit.spec, grid, fit.y, fit.c)
            assert np.abs(sums / fit.n - exact).max() <= eps / fit.n
            assert sums[np.argmax(exact)] >= sums.max() - 2 * eps  # a candidate
            assert np.abs(curve.values - exact).max() <= eps / fit.n
            loc = _exact_mode(fit, grid)
            assert np.argmax(curve.values) == loc.grid_index
            assert theta == loc.theta

    @pytest.mark.parametrize("stretch", [1.0, 1.0 + 1e-9])
    def test_near_tie_keeps_the_exact_argmax(self, stretch):
        """Both arms are mirrored about 0, covariates included, and arm 1 has
        two peaks, equal but for rounding, or with one side stretched by
        1e-9, which moves its peak by about 1e-10 of its height: more than
        rounding, far less than ``eps``.  Both peaks are
        candidates, and the estimate's grid argmax and mode are the exact
        curve's.  Summed over its own row, a candidate can differ from the
        exact curve in the last bits, which would break the mirrored tie the
        wrong way for about half of these seeds."""
        from modete.density import _binned_sums

        for seed in range(4):
            rng = np.random.default_rng(seed)
            half, other = rng.normal(1.5, 0.4, 300), rng.normal(0.0, 1.0, 20)
            x, x_other = rng.random((300, 1)), rng.random((20, 1))
            sample = m.Sample(np.concatenate([other, -other, half * stretch, -half]),
                              np.r_[np.zeros(40, int), np.ones(600, int)],
                              np.vstack([x_other, x_other, x, x]))
            std, _ = m.standardize_covariates(sample)
            spec = m.KernelSpec(m.GAUSSIAN, m.default_bandwidth(
                sample.n, 1, "kernel", m.robust_scale(sample.y)))
            grid = m.default_grid(std.y, spec.h)
            fit = m.marginal_arm_fit(std, 1, spec)
            exact = fit.curve(grid)
            sums, eps = _binned_sums(spec, grid, fit.y, fit.c)
            top = int(np.argmax(exact))
            peaks = [top, grid.size - 1 - top]
            assert np.all(sums[peaks] >= sums.max() - 2 * eps)
            gap = exact[top] - exact[peaks[1]]
            if stretch == 1.0:
                assert gap <= 1e-14 * exact[top]
            else:
                assert 1e-12 * exact[top] < gap < eps / fit.n
            with pytest.warns(m.CurveShapeWarning, match="competing"):
                res = m.estimate_kernel_mte(sample)
            loc = _exact_mode(fit, grid)
            assert np.argmax(res.curve1.values) == loc.grid_index
            assert res.theta1 == loc.theta

    @pytest.mark.parametrize("route", ["kernel", "dml"])
    def test_lattice_beyond_its_limit_takes_the_exact_sums(self, monkeypatch, route,
                                                           lognormal_plain):
        """A grid step of 2e-6 against outcomes spread over several units and
        h = 100 would take a lattice of some 10^8 bins; the scan declines it,
        so the estimate stays within a few MiB and equals the exact path's."""
        sample = m.generate(lognormal_plain, 400, seed=8)
        grid = np.linspace(0.0, 1e-3, 512)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", m.CurveShapeWarning)
                res, seen = _estimate_with_fits(monkeypatch, route, sample, h=100.0, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        for (fit, g), curve, theta in zip(seen, (res.curve1, res.curve0),
                                          (res.theta1, res.theta0)):
            assert np.array_equal(curve.values, fit.curve(g))
            assert theta == _exact_mode(fit, g).theta
