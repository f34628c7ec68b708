"""Propensity and smoothed-outcome learners."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modete as m

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


class TestClipPropensity:
    def test_examples(self):
        assert m.clip_propensity(0.001, 0.01) == 0.01
        assert m.clip_propensity(0.5, 0.01) == 0.5
        assert m.clip_propensity(1.2, 0.01) == 0.99

    def test_rejects_bad_kappa(self):
        for kappa in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                m.clip_propensity(0.5, kappa)

    @given(p=st.floats(-1.0, 2.0), kappa=st.floats(0.001, 0.499))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, p, kappa):
        once = m.clip_propensity(p, kappa)
        assert m.clip_propensity(once, kappa) == once
        assert kappa <= once <= 1.0 - kappa

    @given(
        p1=st.floats(-1.0, 2.0),
        p2=st.floats(-1.0, 2.0),
        kappa=st.floats(0.001, 0.499),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, p1, p2, kappa):
        lo, hi = min(p1, p2), max(p1, p2)
        assert m.clip_propensity(lo, kappa) <= m.clip_propensity(hi, kappa)


def coin_sample(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    d = (rng.random(n) < 0.5).astype(int)
    x = rng.random((n, 2))
    return m.Sample(y, d, x)


class TestFitPropensity:
    def test_logistic_on_independent_coin(self):
        devs = []
        for seed in range(20):
            s = coin_sample(2000, seed)
            fit = m.fit_propensity(s, learner="logistic")
            devs.append(np.mean(np.abs(fit.predict(s.x) - 0.5)))
        assert np.median(devs) <= 0.05

    def test_knn_balanced_duplicated_design(self):
        # Distinct pairwise distances (quadratic spacing), every location once
        # per arm, even neighbor count: complete pairs are always selected.
        locs = np.array([0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
        x = np.concatenate([locs, locs])[:, None]
        d = np.r_[np.ones(locs.size, int), np.zeros(locs.size, int)]
        s = m.Sample(np.zeros(x.shape[0]), d, x)
        fit = m.fit_propensity(s, learner="knn", hyper={"k": 4})
        assert np.all(fit.predict(x) == 0.5)

    def test_one_arm_subset_rejected(self):
        s = m.Sample([1.0, 2.0], [1, 1], [[0.0], [1.0]])
        with pytest.raises(m.NoOverlapError):
            m.fit_propensity(s, learner="logistic")

    def test_logistic_nonconvergence_reports_iterations(self):
        s = coin_sample(200, 1)
        with pytest.raises(m.ConvergenceError) as exc:
            m.fit_propensity(s, learner="logistic", hyper={"max_iter": 1, "tol": 1e-16})
        assert exc.value.iterations == 1

    def test_kernel_nw_recovers_strong_signal(self):
        rng = np.random.default_rng(2)
        x = rng.random((800, 1))
        p = 0.2 + 0.6 * (x[:, 0] > 0.5)
        d = (rng.random(800) < p).astype(int)
        s = m.Sample(rng.normal(size=800), d, x)
        fit = m.fit_propensity(s, learner="kernel")
        lo = fit.predict(np.array([[0.2]]))[0]
        hi = fit.predict(np.array([[0.8]]))[0]
        assert lo < 0.4 < 0.6 < hi

    def test_kernel_nw_blocked_matches_unblocked_formula(self):
        """Query rows are weighted in blocks; over several blocks the
        predictions stay within 1e-13 relative of the Nadaraya-Watson ratio
        computed over all rows at once."""
        from modete.density import _block_rows

        rng = np.random.default_rng(21)
        n = 3000
        x, xq = rng.normal(size=(n, 2)), rng.normal(size=(400, 2))
        d = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
        assert xq.shape[0] >= 2 * _block_rows(n)
        fit = m.fit_propensity(m.Sample(rng.normal(size=n), d, x), learner="kernel")
        mu, sd = x.mean(axis=0), x.std(axis=0, ddof=1)
        h = n ** (-1.0 / 6.0)
        u = ((xq - mu) / sd)[:, None, :] - ((x - mu) / sd)[None, :, :]
        w = np.exp(-0.5 * np.sum((u / h) ** 2, axis=-1))
        want = (w @ d) / w.sum(axis=1)
        np.testing.assert_allclose(fit.predict(xq), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kernel_nw_matches_product_kernel_ratio(self, dim):
        """With the Gaussian block lifted, the predictions lie within
        ``2 * _LIFT_TOL`` relative of the Nadaraya-Watson ratio of
        ``product_kernel`` weights on the standardized covariates."""
        from modete.density import _LIFT_TOL, _lift, _scaled_columns

        rng = np.random.default_rng(30 + dim)
        n = 600
        x, xq = rng.normal(size=(n, dim)), rng.normal(size=(50, dim))
        d = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
        fit = m.fit_propensity(m.Sample(rng.normal(size=n), d, x), learner="kernel")
        mu, sd = x.mean(axis=0), x.std(axis=0, ddof=1)
        xs, qs = (x - mu) / sd, (xq - mu) / sd
        spec = m.KernelSpec(m.GAUSSIAN, n ** (-1.0 / (dim + 4)))
        assert _lift(_scaled_columns(qs, spec), _scaled_columns(xs, spec)) is not None
        w = m.product_kernel(spec, qs[:, None, :] - xs[None, :, :])
        want = (w @ d) / w.sum(axis=1)
        np.testing.assert_allclose(fit.predict(xq), want, rtol=2 * _LIFT_TOL, atol=0.0)

    def test_knn_predictions_in_unit_interval(self):
        s = coin_sample(300, 3)
        fit = m.fit_propensity(s, learner="knn")
        p = fit.predict(s.x)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_predict_clipped_respects_kappa(self):
        s = coin_sample(300, 4)
        fit = m.fit_propensity(s, learner="logistic", clip_kappa=0.05)
        p = fit.predict_clipped(s.x)
        assert np.all(p >= 0.05) and np.all(p <= 0.95)

    def test_unknown_learner(self):
        with pytest.raises(ValueError):
            m.fit_propensity(coin_sample(50, 5), learner="forest")

    def test_logistic_predict_far_out(self):
        """With the linear predictor roughly at -800, -40, 0, 40 and 800 (the
        fitted slope is near 8) the predictions are finite, in [0, 1],
        monotone, and raise no warning."""
        rng = np.random.default_rng(8)
        x = rng.random((500, 1))
        d = (rng.random(500) < 1.0 / (1.0 + np.exp(-8.0 * (x[:, 0] - 0.5)))).astype(int)
        fit = m.fit_propensity(m.Sample(rng.normal(size=500), d, x), learner="logistic")
        eta = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = fit.predict(0.5 + eta[:, None] / 8.0)
        assert np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= 0.0)
        assert p[0] < 1e-300 and p[-1] == 1.0


def two_branch_sigmoid(eta):
    """The logistic function with one formula per sign of ``eta``."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bitwise():
    from modete.learners import _sigmoid

    rng = np.random.default_rng(17)
    scale = 10.0 ** rng.uniform(-2.0, 3.0, size=20000)
    eta = np.concatenate([rng.choice([-1.0, 1.0], size=scale.size) * scale,
                          [-800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(eta)
    assert np.array_equal(got.view(np.int64), two_branch_sigmoid(eta).view(np.int64))


def arm_sample(n, seed, arm=1):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    x = rng.random((n, 1))
    return m.Sample(y, np.full(n, arm, dtype=int), x)


@pytest.mark.parametrize("learner,key,value", [
    ("logistic", "l2", -1e6), ("logistic", "l2", math.nan), ("logistic", "l2", math.inf),
    ("logistic", "l2", "1e-3"),
    ("logistic", "tol", 0.0), ("logistic", "tol", -1e-8), ("logistic", "tol", math.nan),
    ("logistic", "tol", math.inf),
    ("logistic", "max_iter", 0), ("logistic", "max_iter", -5), ("logistic", "max_iter", 2.5),
    ("knn", "k", -3), ("knn", "k", 0), ("knn", "k", 2.5), ("knn", "k", 3.0),
    ("ridge", "l2", -1e6), ("ridge", "l2", -math.inf), ("ridge", "l2", math.nan),
    ("knn-outcome", "k", -3), ("knn-outcome", "k", 0), ("knn-outcome", "k", 2.5),
])
def test_invalid_hyperparameter_rejected(learner, key, value):
    """A hyperparameter outside its range raises ValueError naming the
    learner and the key, before the fit: a negative ridge penalty is no
    longer left to the linear solve, and a k of 0, -3 or 2.5 no longer
    becomes the default, 1 or 2."""
    name = learner.removesuffix("-outcome")
    with pytest.raises(ValueError, match=f"^{name} learner: {key} must be"):
        if learner in ("ridge", "knn-outcome"):
            m.fit_smoothed_outcome(arm_sample(60, 3), 1, m.KernelSpec(m.GAUSSIAN, 0.5),
                                   learner=name, hyper={key: value})
        else:
            m.fit_propensity(coin_sample(60, 3), learner=name, hyper={key: value})


@pytest.mark.parametrize("learner,hyper", [
    ("logistic", {"l2": 0, "tol": np.float64(1e-6), "max_iter": np.int64(50)}),
    ("knn", {"k": np.int64(5)}), ("knn", {"k": None}), ("knn", {"k": 10 ** 9}),
])
def test_valid_hyperparameters_accepted(learner, hyper):
    """Numpy scalars, a zero penalty, ``k=None`` (the default) and a k above
    the row count (all rows) are accepted."""
    p = m.fit_propensity(coin_sample(60, 3), learner=learner, hyper=hyper).predict([[0.5, 0.5]])
    assert np.all((p >= 0.0) & (p <= 1.0))


@pytest.mark.parametrize("learner,hyper,message", [
    ("logistic", {"lambda": 1e6}, "unknown hyperparameter key(s) ['lambda']"),
    ("logistic", {"l2": 1.0, "k": 3, "spec": None}, "unknown hyperparameter key(s) ['k', 'spec']"),
    ("knn", {"K": 3}, "unknown hyperparameter key(s) ['K']"),
    ("kernel", {"h": 0.5}, "unknown hyperparameter key(s) ['h']"),
    ("kernel", {"spec": "wide"}, "spec must be a KernelSpec, got 'wide'"),
    ("kernel", {"spec": 0.5}, "spec must be a KernelSpec, got 0.5"),
    ("ridge", {"lambda": 1.0, "l2": None}, "unknown hyperparameter key(s) ['lambda']"),
    ("knn-outcome", {"spec": None}, "unknown hyperparameter key(s) ['spec']"),
])
@pytest.mark.parametrize("route", ["learner", "dml"])
def test_unknown_hyperparameter_key_rejected(learner, hyper, message, route):
    """A key that the learner does not take, or a kernel ``spec`` that is not
    a KernelSpec, raises ValueError naming the learner, from the learner's
    own fit and from the cross-fitted route, instead of fitting the
    defaults or failing inside a fold task."""
    name = learner.removesuffix("-outcome")
    outcome = learner in ("ridge", "knn-outcome")
    with pytest.raises(ValueError, match=f"^{name} learner: {re.escape(message)}"):
        if route == "dml":
            config = (m.DMLConfig(g_learner=name, g_hyper=hyper) if outcome
                      else m.DMLConfig(pi_learner=name, pi_hyper=hyper))
            m.estimate_dml_mte(coin_sample(200, 3), config)
        elif outcome:
            m.fit_smoothed_outcome(arm_sample(60, 3), 1, m.KernelSpec(m.GAUSSIAN, 0.5),
                                   learner=name, hyper=hyper)
        else:
            m.fit_propensity(coin_sample(60, 3), learner=name, hyper=hyper)


def reference_logistic_predict(x, d, xq, l2=None, tol=1e-8, max_iter=100):
    """A plain damped Newton fit of the penalized logistic regression, with
    its objective in ``np.logaddexp`` and the probabilities recomputed from
    ``a @ beta`` at each step; the predictions at ``xq``."""
    def sigmoid(eta):
        e = np.exp(-np.abs(eta))
        return np.where(eta >= 0, 1.0, e) / (1.0 + e)

    n, dim = x.shape
    a = np.column_stack([np.ones(n), x])
    pen = np.zeros(dim + 1)
    pen[1:] = 1e-4 * n if l2 is None else l2
    beta = np.zeros(dim + 1)

    def objective(b):
        eta = a @ b
        return float(np.sum(np.logaddexp(0.0, eta) - d * eta) + 0.5 * np.sum(pen * b * b))

    obj = objective(beta)
    for _ in range(max_iter):
        mu = sigmoid(a @ beta)
        grad = a.T @ (mu - d) + pen * beta
        if np.linalg.norm(grad) <= tol:
            break
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        step = np.linalg.solve(a.T @ (a * w[:, None]) + np.diag(pen), grad)
        slack = 1e-10 * max(1.0, abs(obj))
        t = 1.0
        for _ in range(40):
            cand = beta - t * step
            cand_obj = objective(cand)
            if cand_obj <= obj + slack:
                break
            t *= 0.5
        beta, obj = cand, cand_obj
    else:
        raise m.ConvergenceError("reference fit did not converge", max_iter)
    return sigmoid(beta[0] + xq @ beta[1:].copy())


@pytest.mark.parametrize("n,dim,l2,shape", [
    (60, 1, None, "coin"), (500, 1, None, "slope"), (3000, 3, None, "slope"),
    (400, 3, 0.5, "slope"), (2000, 1, 0.0, "slope"), (300, 3, 25.0, "coin"),
    (200, 1, None, "separable"), (200, 1, 0.0, "separable"), (300, 3, 0.0, "separable"),
    (300, 3, 1e-3, "nearly-separable"), (200, 1, 0.0, "nearly-separable"),
])
def test_logistic_fit_matches_reference_newton_bitwise(n, dim, l2, shape):
    """The logistic propensity learner predicts the bytes of the reference
    Newton fit, on coin-flip, sloped, separable and nearly separable
    samples, and raises ConvergenceError exactly where it does."""
    rng = np.random.default_rng(n + dim)
    x = rng.normal(size=(n, dim))
    if shape == "separable":
        d = (x[:, 0] > 0.0).astype(int)
    else:
        eta = {"coin": np.zeros(n), "slope": 1.5 * x[:, 0] - 0.5 * x[:, -1] + 0.3,
               "nearly-separable": 40.0 * x[:, 0]}[shape]
        d = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    xq = np.vstack([x, rng.normal(scale=3.0, size=(50, dim))])
    try:
        want = reference_logistic_predict(x, d.astype(float), xq, l2=l2)
    except m.ConvergenceError:
        with pytest.raises(m.ConvergenceError):
            m.fit_propensity(m.Sample(np.zeros(n), d, x), learner="logistic", hyper={"l2": l2})
        return
    got = m.fit_propensity(m.Sample(np.zeros(n), d, x), learner="logistic",
                           hyper={"l2": l2}).predict(xq)
    assert got.tobytes() == want.tobytes()


class TestFitSmoothedOutcome:
    def test_ridge_constant_covariate_gives_arm_mean(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=40)
        s = m.Sample(y, np.ones(40, int), np.full((40, 1), 2.0))
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 7)
        fit = m.fit_smoothed_outcome(s, 1, spec, learner="ridge", hyper={"l2": 1e8})
        for g in grid:
            want = np.mean(m.scaled_kernel(spec, g - y, 0))
            assert fit.predict([[2.0]], g, 0) == pytest.approx(want, abs=1e-8)
            assert fit.predict([[-1.0]], g, 0) == pytest.approx(want, abs=1e-8)

    def test_knn_single_observation(self):
        s = m.Sample([0.0], [1], [[0.3]])
        spec = m.KernelSpec(m.GAUSSIAN, 1.0)
        fit = m.fit_smoothed_outcome(s, 1, spec, learner="knn", hyper={"k": 1})
        assert fit.predict([[0.3]], 0.0, 0) == pytest.approx(PHI0, abs=1e-7)
        assert fit.predict([[0.3]], 0.0, 0) == pytest.approx(0.3989423, abs=1e-6)

    def test_order1_matches_finite_difference_of_order0(self):
        s = arm_sample(200, 7)
        spec = m.KernelSpec(m.GAUSSIAN, 0.4)
        step = spec.h / 60.0
        grid = np.arange(-1.5, 1.5, step)
        fit = m.fit_smoothed_outcome(s, 1, spec, learner="ridge")
        xq = np.array([[0.4]])
        vals0 = fit.predict_grid(xq, grid, 0)[0]
        vals1 = fit.predict_grid(xq, grid, 1)[0]
        fd = (vals0[2:] - vals0[:-2]) / (2.0 * step)
        scale = np.max(np.abs(vals1))
        assert np.max(np.abs(fd - vals1[1:-1])) <= 5e-3 * scale

    def test_knn_full_neighborhood_is_arm_average(self):
        s = arm_sample(50, 8)
        spec = m.KernelSpec(m.GAUSSIAN, 0.6)
        grid = np.linspace(-2, 2, 11)
        fit = m.fit_smoothed_outcome(s, 1, spec, learner="knn", hyper={"k": s.n})
        for g in grid:
            want = np.mean(m.scaled_kernel(spec, g - s.y, 0))
            assert fit.predict(s.x[3:4], g, 0) == want

    def test_ridge_reproducible(self):
        s = arm_sample(80, 9)
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 17)
        a = m.fit_smoothed_outcome(s, 1, spec, learner="ridge")
        b = m.fit_smoothed_outcome(s, 1, spec, learner="ridge")
        xq = s.x[:5]
        for order in (0, 1, 2):
            assert np.array_equal(a.predict_grid(xq, grid, order), b.predict_grid(xq, grid, order))

    def test_wrong_arm_subset_rejected(self):
        s = arm_sample(30, 10, arm=1)
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        with pytest.raises(m.NoDataError):
            m.fit_smoothed_outcome(s, 0, spec)
        mixed = m.Sample([0.0, 1.0], [1, 0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            m.fit_smoothed_outcome(mixed, 1, spec)

    def test_partial_column_queries_match_full_grid(self):
        s = arm_sample(60, 11)
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 21)
        for learner in ("ridge", "knn"):
            fit = m.fit_smoothed_outcome(s, 1, spec, learner=learner)
            xq = s.x[:4]
            for order in (0, 1, 2):
                full = fit.predict_grid(xq, grid, order)
                cols = fit.predict_grid(xq, grid[[3, 9]], order)
                assert np.allclose(full[:, [3, 9]], cols, atol=1e-12)

    @pytest.mark.parametrize("learner", ["ridge", "knn"])
    def test_row_weights_reproduce_weighted_predictions(self, learner):
        """``w @ predict_grid`` equals the ``row_weights``-weighted kernel sum
        over the fit's own outcomes, for every order and column, with one
        weight column or two."""
        rng = np.random.default_rng(14)
        s = m.Sample(rng.normal(size=150), np.ones(150, int), rng.random((150, 2)))
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 23)
        fit = m.fit_smoothed_outcome(s, 1, spec, learner=learner)
        xq = rng.random((40, 2))
        for w in (rng.normal(size=40), rng.normal(size=(40, 2))):
            u = fit.row_weights(xq, w)
            assert u.shape == (s.n,) + w.shape[1:]
            for order in (0, 1, 2):
                want = w.T @ fit.predict_grid(xq, grid, order)
                got = u.T @ m.scaled_kernel(spec, grid[None, :] - s.y[:, None], order)
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(want)))


def knn_oracle(x, xq, k, targets):
    """Brute-force KNN averages: covariates standardized on the training rows,
    the first k rows of a stable sort by squared distance, their targets
    averaged in ascending row order.  Also returns the squared distances."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    train, query = (x - mu) / sd, (xq - mu) / sd
    d2 = np.sum((query[:, None, :] - train[None, :, :]) ** 2, axis=-1)
    nb = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
    return targets[nb].mean(axis=1), d2


class TestKnnNeighbors:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [1, None, 600], ids=["k1", "default", "all"])
    @pytest.mark.parametrize("rounded", [False, True], ids=["random", "tied"])
    def test_matches_stable_sort_oracle(self, dim, k, rounded):
        """Exact agreement, ties at the k-th distance included; 500 queries
        against 600 rows span several query blocks.  With 8 coordinates a
        0.1 lattice spreads the distances too far for ties, so the tied case
        rounds to whole units there."""
        rng = np.random.default_rng(dim)
        n = 600
        x, xq = rng.random((n, dim)), rng.random((500, dim))
        if rounded:
            decimals = 0 if dim == 8 else 1
            x, xq = np.round(x, decimals), np.round(xq, decimals)
        y = rng.normal(size=n)
        d = (rng.random(n) < 0.5).astype(int)
        kk = k or math.ceil(n ** 0.6)
        hyper = {"k": k} if k else None
        pi = m.fit_propensity(m.Sample(y, d, x), learner="knn", hyper=hyper)
        want, d2 = knn_oracle(x, xq, kk, d.astype(float))
        assert np.array_equal(pi.predict(xq), want)
        if rounded and kk < n:
            ordered = np.sort(d2, axis=1)
            assert np.any(ordered[:, kk - 1] == ordered[:, kk])  # ties cross the boundary
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 9)
        g = m.fit_smoothed_outcome(m.Sample(y, np.ones(n, int), x), 1, spec,
                                   learner="knn", hyper=hyper)
        for order, points in ((0, grid), (2, grid), (1, grid[[4]])):
            targets = m.scaled_kernel(spec, points[None, :] - y[:, None], order)
            want = knn_oracle(x, xq, kk, targets)[0]
            assert np.array_equal(g.predict_grid(xq, points, order), want)

    @staticmethod
    def slab_case(case, rng):
        """Training covariates, queries and k of one neighbor-search case."""
        if case == "pruned":  # one covariate: slabs of about k of 5000 rows
            return rng.normal(size=(5000, 1)), rng.normal(size=(400, 1)), None
        if case == "pruned-tied":  # a 0.01 lattice: ties at the k-th distance
            x = np.round(rng.random((5000, 1)), 2)
            return x, np.round(rng.random((400, 1)), 2), None
        if case == "outside":  # queries below and above every training row
            x = rng.random((3000, 1))
            return x, np.concatenate([-1.0 - rng.random((50, 1)), 2.0 + rng.random((50, 1))]), None
        if case == "all-equal":  # every row ties at the k-th distance
            return np.full((600, 1), 0.3), np.full((40, 1), 0.3), None
        if case == "duplicated":  # each training row ten times, queries among them
            x = np.repeat(rng.random((200, 1)), 10, axis=0)[rng.permutation(2000)]
            return x, np.concatenate([x[:100], rng.random((100, 1))]), None
        if case == "k1":
            return np.round(rng.random((3000, 1)), 3), np.round(rng.random((300, 1)), 3), 1
        if case == "kn":
            return rng.random((300, 1)), rng.random((50, 1)), 300
        # Two covariates: the search compares every row.
        return rng.random((2000, 2)), rng.random((300, 2)), None

    @pytest.mark.parametrize("case", ["pruned", "pruned-tied", "outside", "all-equal",
                                      "duplicated", "k1", "kn", "fallback-d2"])
    def test_slab_search_matches_oracle(self, case):
        """The search over slabs of rows sorted by the first covariate returns
        the brute-force neighbor sets exactly."""
        rng = np.random.default_rng(21)
        x, xq, k = self.slab_case(case, rng)
        n = x.shape[0]
        kk = k or math.ceil(n ** 0.6)
        hyper = {"k": k} if k else None
        y = rng.normal(size=n)
        d = np.arange(n) % 2
        pi = m.fit_propensity(m.Sample(y, d, x), learner="knn", hyper=hyper)
        assert np.array_equal(pi.predict(xq), knn_oracle(x, xq, kk, d.astype(float))[0])
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 5)
        g = m.fit_smoothed_outcome(m.Sample(y, np.ones(n, int), x), 1, spec, learner="knn",
                                   hyper=hyper)
        targets = m.scaled_kernel(spec, grid[None, :] - y[:, None], 0)
        want = knn_oracle(x, xq, kk, targets)[0]
        assert np.array_equal(g.predict_grid(xq, grid), want)
        # One query at a time, each searches only its own slab.
        for i in range(0, xq.shape[0], 7):
            assert np.array_equal(g.predict_grid(xq[i:i + 1], grid), want[i:i + 1])

    def test_repeated_and_mutated_queries_match_fresh_fits(self):
        rng = np.random.default_rng(12)
        n = 200
        s = m.Sample(rng.normal(size=n), (rng.random(n) < 0.5).astype(int), rng.random((n, 2)))
        arm = m.Sample(s.y, np.ones(n, int), s.x)
        spec = m.KernelSpec(m.GAUSSIAN, 0.5)
        grid = np.linspace(-2, 2, 9)

        def fits():
            return (m.fit_propensity(s, learner="knn"),
                    m.fit_smoothed_outcome(arm, 1, spec, learner="knn"))

        pi, g = fits()
        x, x2 = rng.random((50, 2)), rng.random((50, 2))
        for query, mutate in ((x, False), (x2, False), (x, True), (x, True), (x.copy(), False)):
            if mutate:
                query[::2] = 1.0 - query[::2]
            fresh_pi, fresh_g = fits()
            assert np.array_equal(pi.predict(query), fresh_pi.predict(query))
            for order in (0, 1):
                assert np.array_equal(g.predict_grid(query, grid, order),
                                      fresh_g.predict_grid(query, grid, order))

    def test_block_memory_is_bounded(self):
        """Peak allocation stays under six block budgets, the neighbor table
        (8 bytes per neighbor) and four n-by-grid arrays; the all-pairs
        distance matrix alone would need 1.15 GB here."""
        from modete.density import _BLOCK_BYTES

        n = 12_000
        s = arm_sample(n, 13)
        grid = np.linspace(-2, 2, 64)
        k = math.ceil(n ** 0.6)
        tracemalloc.start()
        try:
            fit = m.fit_smoothed_outcome(s, 1, m.KernelSpec(m.GAUSSIAN, 0.5), learner="knn")
            fit.predict_grid(s.x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * _BLOCK_BYTES + 8 * n * (k + 4 * grid.size)
