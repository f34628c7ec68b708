"""Cross-fitting, orthogonal scores, DML curves, variance, orthogonality."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import modete as m
from modete.dml import FoldNuisance, NuisanceBundle

from conftest import cli_estimate, usable_cpus, write_csv

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def constant_propensity_fit(value, kappa=0.0):
    return m.PropensityFit(predict=lambda x, v=value: np.full(len(np.atleast_2d(x)), v),
                           learner_id="oracle", clip_kappa=kappa)


def nw_outcome_fit(aux, arm, grid, spec):
    """Locally weighted (ratio) smoothed-outcome fit, for cross-route checks."""
    sub = aux.subset(aux.arm_indices(arm))

    def predict_grid(xq, order, cols=None):
        xq = np.atleast_2d(np.asarray(xq, float))
        cols_grid = grid if cols is None else grid[cols]
        w = m.product_kernel(spec, xq[:, None, :] - sub.x[None, :, :])
        t = m.scaled_kernel(spec, cols_grid[None, :] - sub.y[:, None], order)
        return (w @ t) / w.sum(axis=1, keepdims=True)

    def predict(x, j, order=0):
        return float(predict_grid(np.atleast_2d(x), order, cols=[j])[0, 0])

    return m.SmoothedOutcomeFit(grid=grid, arm=arm, spec=spec, learner_id="nw",
                                predict=predict, predict_grid=predict_grid)


def duplicated_arms_sample(n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 0.5, n)
    x = rng.random((n, 1))
    return m.Sample(np.concatenate([y, y]),
                    np.r_[np.ones(n, int), np.zeros(n, int)],
                    np.vstack([x, x]))


def mirrored_partition(n_pairs, K):
    """Pairs (i, i + n_pairs) always share a fold."""
    base = m.make_folds(n_pairs, K, seed=3).assignments
    return m.FoldPartition(assignments=np.concatenate([base, base]), K=K, seed=3)


class TestMakeFolds:
    def test_even_split(self):
        part = m.make_folds(10, 5, seed=1)
        sizes = [part.indices(k).size for k in range(5)]
        assert sizes == [2, 2, 2, 2, 2]
        all_idx = np.sort(np.concatenate([part.indices(k) for k in range(5)]))
        assert np.array_equal(all_idx, np.arange(10))

    def test_remainder_rule(self):
        part = m.make_folds(11, 5, seed=2)
        sizes = [part.indices(k).size for k in range(5)]
        assert sizes == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        a = m.make_folds(10, 5, seed=7)
        b = m.make_folds(10, 5, seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            m.make_folds(10, 1, seed=0)
        with pytest.raises(ValueError):
            m.make_folds(3, 4, seed=0)


class TestOrthogonalScore:
    SPEC = m.KernelSpec(m.GAUSSIAN, 1.0)

    def test_degenerate_always_treated(self):
        z = (0.3, 1, [0.0])
        got = m.orthogonal_score(z, y=0.5, eta=(1.0, 123.456), arm=1, spec=self.SPEC)
        assert got == m.scaled_kernel(self.SPEC, 0.5 - 0.3, 0)

    def test_half_propensity_expansion(self):
        z = (0.2, 1, [0.0])
        g = 0.37
        got = m.orthogonal_score(z, y=0.9, eta=(0.5, g), arm=1, spec=self.SPEC)
        want = 2.0 * m.scaled_kernel(self.SPEC, 0.9 - 0.2, 0) - g
        assert got == pytest.approx(want, abs=1e-15)

    def test_untreated_observation_in_treated_score(self):
        z = (0.2, 0, [0.0])
        got = m.orthogonal_score(z, y=5.0, eta=(0.5, 0.3), arm=1, spec=self.SPEC)
        # -( (0 - 0.5) / 0.5 ) * 0.3 = 0.3 plus a negligible kernel tail.
        assert got == pytest.approx(0.3, abs=1e-5)

    def test_out_of_range_propensity(self):
        with pytest.raises(ValueError):
            m.orthogonal_score((0.0, 1, [0.0]), 0.0, (0.0, 0.1), 1, self.SPEC)
        with pytest.raises(ValueError):
            m.orthogonal_score((0.0, 0, [0.0]), 0.0, (1.0, 0.1), 0, self.SPEC)


def small_bundle(sample, partition, spec, grid, **kw):
    return m.fit_nuisances(sample, partition, spec, grid, **kw)


class TestDmlDensityCurve:
    def test_all_treated_with_unit_propensity_is_plain_average(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=40)
        s = m.Sample(y, np.ones(40, int), rng.random((40, 1)))
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-3, 3, 61)
        part = m.make_folds(40, 4, seed=0)
        g1 = m.fit_smoothed_outcome(s, 1, grid, spec, learner="ridge")
        folds = tuple(
            FoldNuisance(pi=constant_propensity_fit(1.0), g1=g1, g0=g1) for _ in range(4)
        )
        bundle = NuisanceBundle(folds=folds, grid=grid, spec=spec)
        curve = m.dml_density_curve(s, part, bundle, spec, grid, arm=1)
        plain = np.mean(m.scaled_kernel(spec, grid[:, None] - y[None, :], 0), axis=1)
        assert np.max(np.abs(curve.values - plain)) <= 1e-12

    def test_oracle_nuisances_duplicated_arms_symmetric(self):
        s = duplicated_arms_sample(n=40, seed=4)
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        grid = np.linspace(0.1, 4.0, 101)
        part = mirrored_partition(40, 4)
        folds = []
        for k in range(4):
            aux = s.subset(part.complement(k))
            g1 = m.fit_smoothed_outcome(aux.subset(aux.arm_indices(1)), 1, grid, spec,
                                        learner="knn", hyper={"k": 10 ** 9})
            g0 = m.fit_smoothed_outcome(aux.subset(aux.arm_indices(0)), 0, grid, spec,
                                        learner="knn", hyper={"k": 10 ** 9})
            folds.append(FoldNuisance(pi=constant_propensity_fit(0.5), g1=g1, g0=g0))
        bundle = NuisanceBundle(folds=tuple(folds), grid=grid, spec=spec)
        c1 = m.dml_density_curve(s, part, bundle, spec, grid, arm=1)
        c0 = m.dml_density_curve(s, part, bundle, spec, grid, arm=0)
        assert np.max(np.abs(c1.values - c0.values)) <= 1e-10
        # Same bundle drives the variance components.
        m1, m0, v1, v0 = m.dml_variance_components(s, part, bundle, spec, 1.0, 1.0)
        assert abs(v1 - v0) <= 1e-10
        assert abs(m1 - m0) <= 1e-10

    def test_grid_and_spec_mismatch_rejected(self):
        s = duplicated_arms_sample(n=30, seed=5)
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        grid = np.linspace(0.1, 4.0, 33)
        part = m.make_folds(s.n, 3, seed=1)
        bundle = small_bundle(s, part, spec, grid)
        with pytest.raises(m.ConfigurationError):
            m.dml_density_curve(s, part, bundle, spec, grid + 0.1, arm=1)
        with pytest.raises(m.ConfigurationError):
            m.dml_density_curve(s, part, bundle, m.KernelSpec(m.GAUSSIAN, 0.5), grid, arm=1)
        with pytest.raises(m.ConfigurationError):
            short = m.FoldPartition(assignments=part.assignments % 2, K=2, seed=1)
            m.dml_density_curve(s, short, bundle, spec, grid, arm=1)

    def test_variance_components_reject_foreign_spec(self, lognormal_plain):
        """Nuisances fitted at h = 0.4 cannot be read with a kernel at h = 2."""
        sample, _ = m.standardize_covariates(m.generate(lognormal_plain, 400, seed=0))
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        part = m.make_folds(sample.n, 5, seed=0)
        bundle = m.fit_nuisances(sample, part, spec, m.default_grid(sample.y, spec.h))
        assert all(map(math.isfinite, m.dml_variance_components(sample, part, bundle, spec,
                                                                1.0, 1.0)))
        with pytest.raises(m.ConfigurationError):
            m.dml_variance_components(sample, part, bundle, m.KernelSpec(m.GAUSSIAN, 2.0),
                                      1.0, 1.0)
        with pytest.raises(m.ConfigurationError):
            short = m.FoldPartition(assignments=part.assignments % 2, K=2, seed=0)
            m.dml_variance_components(sample, short, bundle, spec, 1.0, 1.0)

    def test_integral_close_to_one(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 2000, seed=6)
        res = m.estimate_dml_mte(sample, m.DMLConfig(seed=6))
        total = np.trapezoid(res.curve1.values, res.curve1.grid)
        assert 0.95 <= total <= 1.05

    def test_order1_matches_finite_difference(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 500, seed=7)
        std, _ = m.standardize_covariates(sample)
        h = 0.25
        spec = m.KernelSpec(m.GAUSSIAN, h)
        step = h / 50.0
        grid = np.arange(0.3, 2.3, step)
        part = m.make_folds(std.n, 5, seed=2)
        bundle = small_bundle(std, part, spec, grid)
        c0 = m.dml_density_curve(std, part, bundle, spec, grid, arm=1, order=0)
        c1 = m.dml_density_curve(std, part, bundle, spec, grid, arm=1, order=1)
        fd = (c0.values[2:] - c0.values[:-2]) / (2.0 * step)
        scale = np.max(np.abs(c1.values))
        assert np.max(np.abs(fd - c1.values[1:-1])) <= 5e-3 * scale


class TestEstimateDmlMTE:
    def test_duplicated_arms_mirrored_folds_delta_zero(self):
        s = duplicated_arms_sample(n=50, seed=8)
        spec = m.KernelSpec(m.GAUSSIAN, 0.35)
        grid = np.linspace(0.05, 4.5, 121)
        part = mirrored_partition(50, 5)
        bundle = small_bundle(s, part, spec, grid)
        c1 = m.dml_density_curve(s, part, bundle, spec, grid, arm=1)
        c0 = m.dml_density_curve(s, part, bundle, spec, grid, arm=0)
        t1 = m.mode_of_curve(c1)
        t0 = m.mode_of_curve(c0)
        assert abs((t1.theta - t0.theta)) <= 1e-10

    def test_deterministic_given_seed(self, lognormal_selection):
        sample = m.generate(lognormal_selection, 600, seed=9)
        cfg = m.DMLConfig(seed=5)
        a = m.estimate_dml_mte(sample, cfg)
        b = m.estimate_dml_mte(sample, cfg)
        assert a == b
        assert np.array_equal(a.curve1.values, b.curve1.values)
        assert np.array_equal(a.curve0.values, b.curve0.values)

    def test_fold_relabeling_is_invisible(self):
        """Bit-equal under relabeling; at K = 5 each auxiliary fit sums four
        folds' statistics, so the order of that sum is exercised too."""
        s = duplicated_arms_sample(n=45, seed=10)
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        grid = np.linspace(0.05, 4.5, 65)
        for perm in ([2, 0, 1], [3, 0, 4, 2, 1]):
            K = len(perm)
            part = m.make_folds(s.n, K, seed=4)
            relabeled = m.FoldPartition(assignments=np.array(perm)[part.assignments], K=K,
                                        seed=4)
            bundle_a = small_bundle(s, part, spec, grid)
            bundle_b = small_bundle(s, relabeled, spec, grid)
            ca = m.dml_density_curve(s, part, bundle_a, spec, grid, arm=1)
            cb = m.dml_density_curve(s, relabeled, bundle_b, spec, grid, arm=1)
            assert np.array_equal(ca.values, cb.values)
            va = m.dml_variance_components(s, part, bundle_a, spec, 1.0, 0.9)
            vb = m.dml_variance_components(s, relabeled, bundle_b, spec, 1.0, 0.9)
            assert va == vb

    def test_arm_swap_with_mirrored_learners(self, lognormal_selection):
        sample = m.generate(lognormal_selection, 500, seed=11)
        flipped = m.Sample(sample.y, 1 - sample.d, sample.x)
        cfg = m.DMLConfig(seed=3)
        a = m.estimate_dml_mte(sample, cfg)
        b = m.estimate_dml_mte(flipped, cfg)
        assert a.theta1 == pytest.approx(b.theta0, abs=1e-9)
        assert a.theta0 == pytest.approx(b.theta1, abs=1e-9)
        assert a.delta == pytest.approx(-b.delta, abs=1e-9)
        assert a.se1 == pytest.approx(b.se0, abs=1e-9)

    def test_single_fold_rejected(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 100, seed=12)
        with pytest.raises(ValueError):
            m.estimate_dml_mte(sample, m.DMLConfig(folds=1))

    def test_persistent_one_arm_aux_raises_stratification_error(self):
        # A single treated observation: every auxiliary sample missing it has
        # no treated units, whatever the seed.
        y = np.arange(8.0)
        d = np.zeros(8, int)
        d[3] = 1
        s = m.Sample(y, d, np.linspace(0, 1, 8)[:, None])
        with pytest.raises(m.StratificationError):
            m.estimate_dml_mte(s, m.DMLConfig(folds=2))

    def test_delta_accuracy_median_over_seeds(self, lognormal_selection):
        true_delta = m.true_mode(lognormal_selection, 1) - m.true_mode(lognormal_selection, 0)
        errs = []
        for seed in range(20):
            sample = m.generate(lognormal_selection, 4000, seed=100 + seed)
            res = m.estimate_dml_mte(sample, m.DMLConfig(folds=5, seed=seed))
            errs.append(abs(res.delta - true_delta))
        assert np.median(errs) <= 0.2

    def test_curvature_negative_across_seeds(self, lognormal_selection):
        neg = 0
        for seed in range(20):
            sample = m.generate(lognormal_selection, 2000, seed=seed)
            res = m.estimate_dml_mte(sample, m.DMLConfig(seed=seed))
            neg += res.m1_hat < 0
        assert neg >= 19

    def test_reports_fold_metadata(self, lognormal_plain):
        sample = m.generate(lognormal_plain, 300, seed=13)
        res = m.estimate_dml_mte(sample, m.DMLConfig(folds=3, seed=1))
        assert res.method == "dml"
        assert res.folds == 3
        assert res.n == 300


def test_fold_nuisances_use_only_auxiliary_data(lognormal_selection):
    """Perturbing fold k's own outcomes leaves fold k's nuisances unchanged."""
    sample = m.generate(lognormal_selection, 240, seed=14)
    spec = m.KernelSpec(m.GAUSSIAN, 0.3)
    grid = np.linspace(0.05, 4.0, 33)
    part = m.make_folds(sample.n, 4, seed=2)
    bundle = m.fit_nuisances(sample, part, spec, grid)
    k = 1
    y2 = sample.y.copy()
    y2[part.indices(k)] += 5.0
    bundle2 = m.fit_nuisances(m.Sample(y2, sample.d, sample.x), part, spec, grid)
    xq = sample.x[:6]
    assert np.array_equal(bundle.folds[k].pi.predict(xq), bundle2.folds[k].pi.predict(xq))
    assert np.array_equal(bundle.folds[k].g1.predict_grid(xq, 0),
                          bundle2.folds[k].g1.predict_grid(xq, 0))
    # The complementary folds do change (the perturbed points sit in their aux).
    other = 0
    assert not np.array_equal(bundle.folds[other].g1.predict_grid(xq, 0),
                              bundle2.folds[other].g1.predict_grid(xq, 0))


class TestFoldSumsMatchRefits:
    """Curves and components equal an oracle that refits every fold's
    nuisances on its own auxiliary sample and averages the orthogonal score
    over the fold's rows, one (rows, grid) matrix per fold."""

    @staticmethod
    def oracle(sample, part, spec, grid, learner):
        """Per fold: the arm's score terms and its outcome fit, per arm."""
        folds = []
        for k in range(part.K):
            aux = sample.subset(part.complement(k))
            idx = part.indices(k)
            pi = m.fit_propensity(aux).predict_clipped(sample.x[idx])
            d = sample.d[idx].astype(float)
            terms = {1: (d, pi, d - pi), 0: (1.0 - d, 1.0 - pi, pi - d)}
            fits = {arm: m.fit_smoothed_outcome(aux.subset(aux.arm_indices(arm)), arm, grid,
                                                spec, learner=learner) for arm in (1, 0)}
            folds.append((idx, terms, fits))
        return folds

    @staticmethod
    def scores(sample, idx, terms, spec, order, y, g):
        """(fold rows, outcome points) matrix of one arm's scores at ``y``."""
        d_a, p_a, r_a = (t[:, None] for t in terms)
        kv = m.scaled_kernel(spec, y[None, :] - sample.y[idx, None], order)
        return d_a * kv / p_a - r_a / p_a * g

    def mean_score(self, sample, folds, spec, arm, order, y, g_of):
        """Fold-averaged mean score at outcome points ``y``."""
        return sum(self.scores(sample, idx, terms[arm], spec, order, y,
                               g_of(fits[arm], sample.x[idx], order)).mean(axis=0)
                   for idx, terms, fits in folds) / len(folds)

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("family", [m.GAUSSIAN, m.EPANECHNIKOV])
    @pytest.mark.parametrize("learner", ["ridge", "knn"])
    def test_curves_and_components(self, learner, family, K, lognormal_selection):
        sample, _ = m.standardize_covariates(m.generate(lognormal_selection, 300, seed=K))
        spec = m.KernelSpec(family, 0.5)
        grid = m.default_grid(sample.y, spec.h, 48)
        part = m.make_folds(sample.n, K, seed=1)
        bundle = m.fit_nuisances(sample, part, spec, grid, g_learner=learner)
        folds = self.oracle(sample, part, spec, grid, learner)
        for arm in (1, 0):
            for order in (0, 1, 2):
                got = m.dml_density_curve(sample, part, bundle, spec, grid, arm, order).values
                want = self.mean_score(sample, folds, spec, arm, order, grid,
                                       lambda fit, x, s: fit.predict_grid(x, s))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # The oracle's score is the public scalar one.
        idx, terms, fits = folds[0]
        x = sample.x[idx]
        for arm, i, j in ((1, 0, 20), (0, 1, 25)):
            table = self.scores(sample, idx, terms[arm], spec, 0, grid, fits[arm].predict_grid(x, 0))
            z = (sample.y[idx[i]], sample.d[idx[i]], x[i])
            eta = (terms[1][1][i], fits[arm].predict(x[i], j))
            assert table[i, j] == pytest.approx(m.orthogonal_score(z, grid[j], eta, arm, spec),
                                                rel=1e-14)

        theta = {1: 1.013, 0: 0.687}  # off the grid: fits interpolate between columns
        want = {}
        for arm, th in theta.items():
            jj = int(np.searchsorted(grid, th)) - 1
            t = (th - grid[jj]) / (grid[jj + 1] - grid[jj])

            def g_at(fit, x, s):
                cols = fit.predict_grid(x, s, cols=[jj, jj + 1])
                return ((1.0 - t) * cols[:, 0] + t * cols[:, 1])[:, None]

            m_hat = self.mean_score(sample, folds, spec, arm, 2, np.array([th]), g_at)[0]
            v_sum = 0.0
            for idx, terms, fits in folds:
                d_a, p_a, r_a = terms[arm]
                kv = m.scaled_kernel(spec, th - sample.y[idx], 0)
                g = g_at(fits[arm], sample.x[idx], 0)[:, 0]
                v_sum += np.mean(d_a * kv / p_a ** 2 - 2.0 * r_a / p_a ** 2 * g)
            want[arm] = (m_hat, m.kernel_constants(family).kappa0_1 * v_sum / K)
        got = m.dml_variance_components(sample, part, bundle, spec, theta[1], theta[0])
        for g, w in zip(got, (want[1][0], want[0][0], want[1][1], want[0][1])):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)


LEARNERS = [("logistic", "ridge"), ("knn", "knn")]


class TestPoolTasks:
    """The per-fold ridge statistics, fits, propensities and mean scores run
    on the pool's two worker threads when two cores are usable, and on the
    calling thread otherwise; the result must not depend on it."""

    @pytest.mark.skipif(len(usable_cpus()) < 2, reason="needs at least two usable CPUs")
    @pytest.mark.parametrize("pi_learner, g_learner", LEARNERS, ids=["ridge", "knn"])
    def test_cli_output_identical_on_one_core(self, pi_learner, g_learner, tmp_path, dgps):
        sample = m.generate(dgps["skew-mixture"], 3000, seed=3)
        path = tmp_path / "data.csv"
        names = write_csv(path, sample)
        args = ["--method", "dml", "--learner-pi", pi_learner, "--learner-g", g_learner]
        one = cli_estimate(path, names, args, min(usable_cpus()))
        assert one == cli_estimate(path, names, args)

    @pytest.mark.parametrize("pi_learner, g_learner", LEARNERS, ids=["ridge", "knn"])
    def test_concurrent_callers_share_the_pool(self, pi_learner, g_learner, lognormal_selection):
        """Four threads estimating at once, with rapid thread switching, all
        finish and get the estimates a lone call gives; a fold task that
        queued work on the pool it runs on, and waited for it, could
        deadlock the pool."""
        cfg = m.DMLConfig(pi_learner=pi_learner, g_learner=g_learner)
        samples = [m.generate(lognormal_selection, 1500, seed=s) for s in range(4)]
        want = [m.estimate_dml_mte(s, cfg) for s in samples]
        got = [None] * len(samples)

        def run(i):
            got[i] = m.estimate_dml_mte(samples[i], cfg)

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
            assert g == w
            assert g.curve1.values.tobytes() == w.curve1.values.tobytes()
            assert g.curve0.values.tobytes() == w.curve0.values.tobytes()


def test_estimate_memory_is_bounded(lognormal_selection):
    """No (rows, grid) matrix: the peak allocation of a whole estimate stays
    under six block budgets plus 512 bytes per observation."""
    from modete.density import _BLOCK_BYTES

    n = 12_000
    sample = m.generate(lognormal_selection, n, seed=2)
    tracemalloc.start()
    try:
        m.estimate_dml_mte(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * _BLOCK_BYTES + 512 * n


def test_kernel_propensity_memory_is_bounded(lognormal_selection):
    """The kernel propensity learner weights its queries in blocks: no
    (queries, training rows) matrix, which would need about 180 MB here."""
    from modete.density import _BLOCK_BYTES

    n = 12_000
    sample = m.generate(lognormal_selection, n, seed=2)
    tracemalloc.start()
    try:
        m.estimate_dml_mte(sample, m.DMLConfig(pi_learner="kernel"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * _BLOCK_BYTES + 512 * n


class TestVarianceCrossAgreement:
    def test_dml_components_track_kernel_plugin(self, lognormal_plain):
        """Same data, same bandwidth, locally weighted nuisances on both
        routes: components agree within 15% (a 6-seed pilot put the worst
        relative gap at 5.3%)."""
        worst = 0.0
        for seed in range(3):
            sample = m.generate(lognormal_plain, 2000, seed=seed)
            std, _ = m.standardize_covariates(sample)
            h = m.default_bandwidth(sample.n, sample.dim, "dml", m.robust_scale(sample.y))
            spec = m.KernelSpec(m.GAUSSIAN, h)
            grid = m.default_grid(std.y, h)
            ref = m.estimate_kernel_mte(sample, spec)
            part = m.make_folds(sample.n, 5, seed=seed)
            folds = []
            for k in range(5):
                aux = std.subset(part.complement(k))
                pi = m.fit_propensity(aux, learner="kernel", hyper={"spec": spec})
                folds.append(FoldNuisance(
                    pi=pi,
                    g1=nw_outcome_fit(aux, 1, grid, spec),
                    g0=nw_outcome_fit(aux, 0, grid, spec),
                ))
            bundle = NuisanceBundle(folds=tuple(folds), grid=grid, spec=spec)
            got = m.dml_variance_components(std, part, bundle, spec, ref.theta1, ref.theta0)
            ref_vals = (ref.m1_hat, ref.m0_hat, ref.v1_hat, ref.v0_hat)
            for a, b in zip(got, ref_vals):
                worst = max(worst, abs(a - b) / abs(b))
        assert worst <= 0.15


class TestOrthogonality:
    def _setup(self, seed=42, n=20000):
        dgp = m.builtin_dgps()["normal-selection"]
        sample = m.generate(dgp, n, seed=seed)
        h = m.default_bandwidth(n, 1, "dml", m.robust_scale(sample.y))
        spec = m.KernelSpec(m.GAUSSIAN, h)
        eta = m.oracle_nuisances(dgp, 1, spec)
        return sample, spec, m.true_mode(dgp, 1), eta

    @staticmethod
    def _slope(table):
        return float(np.polyfit(np.log(table[:, 0]),
                                np.log(np.maximum(table[:, 1], 1e-300)), 1)[0])

    def test_zero_epsilon_gives_zero_shift(self):
        sample, spec, y_star, eta = self._setup(n=2000)
        direction = m.Perturbation(pi=lambda x: np.full(len(x), -0.3),
                                   g=lambda x, y: np.full(len(x), -1.0))
        table = m.orthogonality_check(sample, eta, direction, [0.0], y=y_star, spec=spec)
        assert table[0, 1] == 0.0

    def test_orthogonal_score_quadratic_plugin_linear(self):
        sample, spec, y_star, eta = self._setup()
        direction = m.Perturbation(pi=lambda x: np.full(len(x), -0.35),
                                   g=lambda x, y: np.full(len(x), -2.0))
        eps = [0.05, 0.1, 0.2, 0.4]
        orth = m.orthogonality_check(sample, eta, direction, eps, y=y_star, spec=spec)
        plug = m.orthogonality_check(sample, eta, direction, eps, y=y_star, spec=spec,
                                     score_kind="plugin")
        assert self._slope(orth) >= 1.6
        assert self._slope(plug) <= 1.3

    def test_g_only_direction_shifts_within_noise(self):
        sample, spec, y_star, eta = self._setup(seed=7)
        direction = m.Perturbation(pi=lambda x: np.zeros(len(x)),
                                   g=lambda x, y: np.full(len(x), -2.0))
        eps = 0.4
        table = m.orthogonality_check(sample, eta, direction, [eps], y=y_star, spec=spec)
        pi0 = eta.pi(sample.x)
        increments = -((sample.d - pi0) / pi0) * (eps * -2.0)
        se = increments.std(ddof=1) / math.sqrt(sample.n)
        assert table[0, 1] <= 3.0 * se
