"""DGPs, oracle modes, and the Monte Carlo harness."""

import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import modete as m
import modete.simulation as sim
from conftest import usable_cpus


class TestGenerate:
    def test_deterministic(self, lognormal_plain):
        a = m.generate(lognormal_plain, 200, seed=5)
        b = m.generate(lognormal_plain, 200, seed=5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.x, b.x)

    def test_treated_fraction_near_half(self, lognormal_plain):
        s = m.generate(lognormal_plain, 10000, seed=1)
        assert abs(s.d.mean() - 0.5) <= 0.02

    def test_outcome_location(self):
        dgp = m.DGPSpec(name="loc3", dim=1, propensity_intercept=0.0, propensity_slope=(0.0,),
                        law1=m.NormalLaw(3.0, (0.0,), 1.0), law0=m.NormalLaw(0.0, (0.0,), 1.0))
        s = m.generate(dgp, 10000, seed=2)
        assert abs(s.y[s.d == 1].mean() - 3.0) <= 0.1

    def test_rejects_tiny_n(self, lognormal_plain):
        with pytest.raises(ValueError):
            m.generate(lognormal_plain, 1, seed=0)


class TestDGPSpec:
    def test_propensity_bounds_enforced(self):
        with pytest.raises(ValueError):
            m.DGPSpec(name="bad", dim=1, propensity_intercept=4.0, propensity_slope=(2.0,),
                      law1=m.NormalLaw(1.0, (0.0,), 1.0), law0=m.NormalLaw(0.0, (0.0,), 1.0))

    def test_builtin_names(self, dgps):
        assert set(dgps) == {
            "lognormal-plain", "lognormal-selection", "normal-selection", "skew-mixture",
        }

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            m.MixtureLaw(weights=(0.7, 0.7),
                         components=(m.NormalLaw(0.0, (), 1.0), m.NormalLaw(1.0, (), 1.0)))

    @pytest.mark.parametrize("build", [
        lambda: m.MixtureLaw(weights=(0.5, 0.5), components=(m.NormalLaw(0.0, (0.0,), 1.0),)),
        lambda: m.MixtureLaw(weights=(1.5, -0.5), components=(m.NormalLaw(0.0, (0.0,), 1.0),
                                                              m.NormalLaw(1.0, (0.0,), 1.0))),
        lambda: m.NormalLaw(0.0, (0.0,), 0.0),
        lambda: m.NormalLaw(0.0, (0.0,), -1.0),
        lambda: m.NormalLaw(0.0, (0.0,), math.inf),
        lambda: m.LogNormalLaw(math.nan, (0.0,), 1.0),
        lambda: m.LogNormalLaw(0.0, (math.inf,), 1.0),
        lambda: m.DGPSpec(name="short", dim=2, propensity_intercept=0.0,
                          propensity_slope=(0.0, 0.0), law1=m.NormalLaw(0.0, (0.5,), 1.0),
                          law0=m.NormalLaw(0.0, (0.5, 0.5), 1.0)),
        lambda: m.DGPSpec(name="short-part", dim=2, propensity_intercept=0.0,
                          propensity_slope=(0.0, 0.0), law1=m.NormalLaw(0.0, (0.5, 0.5), 1.0),
                          law0=m.MixtureLaw(weights=(0.5, 0.5), components=(
                              m.NormalLaw(0.0, (0.5, 0.5), 1.0), m.NormalLaw(1.0, (0.5,), 1.0)))),
    ], ids=["weight-without-component", "negative-weight", "zero-sigma", "negative-sigma",
            "infinite-sigma", "nan-mu", "infinite-slope", "slope-shorter-than-dim",
            "component-slope-shorter-than-dim"])
    def test_invalid_laws_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestTrueMode:
    def test_analytic_lognormal(self, lognormal_plain):
        assert m.true_mode(lognormal_plain, 1) == pytest.approx(math.exp(0.5 - 0.36), abs=1e-12)
        assert m.true_mode(lognormal_plain, 0) == pytest.approx(math.exp(-0.36), abs=1e-12)

    def test_covariate_free_lognormal_example(self):
        dgp = m.DGPSpec(name="ln01", dim=1, propensity_intercept=0.0, propensity_slope=(0.0,),
                        law1=m.LogNormalLaw(0.0, (0.0,), 1.0),
                        law0=m.LogNormalLaw(0.0, (0.0,), 1.0))
        assert m.true_mode(dgp, 1) == pytest.approx(0.3678794, abs=1e-6)

    def test_symmetric_normal_mode(self):
        dgp = m.DGPSpec(name="n2", dim=1, propensity_intercept=0.0, propensity_slope=(0.0,),
                        law1=m.NormalLaw(2.0, (0.0,), 1.0), law0=m.NormalLaw(0.0, (0.0,), 1.0))
        assert m.true_mode(dgp, 1) == 2.0

    def test_numeric_path_matches_analytic(self, lognormal_plain):
        for arm in (0, 1):
            assert m.numeric_mode(lognormal_plain, arm) == pytest.approx(
                m.true_mode(lognormal_plain, arm), abs=1e-4
            )

    def test_selection_marginal_mode_is_symmetric_midpoint(self, normal_selection):
        # Uniform covariate, location linear in x: the marginal is symmetric
        # around the mid-location, so its mode sits there.
        assert m.true_mode(normal_selection, 1) == pytest.approx(2.25, abs=1e-6)
        assert m.true_mode(normal_selection, 0) == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("name, arm, mode", [
        ("lognormal-plain", 1, math.exp(0.5 - 0.36)),
        ("lognormal-plain", 0, math.exp(-0.36)),
        ("normal-selection", 1, 2.25),
        ("normal-selection", 0, 0.25),
        (None, 1, 2.0),
    ], ids=["lognormal-plain-1", "lognormal-plain-0", "normal-selection-1", "normal-selection-0",
            "zero-slope-normal"])
    def test_numeric_mode_is_exact(self, dgps, name, arm, mode):
        # normal-selection's marginal is symmetric about its mid-location; a
        # zero slope leaves N(2, 1).
        dgp = dgps[name] if name else _one_law_dgp(m.NormalLaw(2.0, (0.0,), 1.0))
        assert abs(m.numeric_mode(dgp, arm) - mode) <= 1e-12

    def test_bimodal_marginal_rejected(self):
        dgp = m.DGPSpec(
            name="bimodal", dim=1, propensity_intercept=0.0, propensity_slope=(0.0,),
            law1=m.MixtureLaw(weights=(0.5, 0.5),
                              components=(m.NormalLaw(0.0, (0.0,), 0.5),
                                          m.NormalLaw(5.0, (0.0,), 0.5))),
            law0=m.NormalLaw(0.0, (0.0,), 1.0),
        )
        with pytest.raises(m.UnimodalityViolationError):
            m.numeric_mode(dgp, 1)


def _marginal_pdf_bytes(blas_threads):
    """``marginal_pdf`` of skew-mixture's treated arm on 200 points, computed
    in a fresh interpreter with ``blas_threads`` BLAS threads, as hex."""
    src = str(Path(m.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import numpy as np, modete.simulation as sim; "
            "dgp = sim.builtin_dgps()['skew-mixture']; "
            "print(sim.marginal_pdf(dgp, 1, np.linspace(-2.0, 6.0, 200)).tobytes().hex())")
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    return proc.stdout


def _one_law_dgp(law, dim=1):
    return m.DGPSpec(name="one-law", dim=dim, propensity_intercept=0.0,
                     propensity_slope=(0.0,) * dim, law1=law, law0=law)


def _tensor_marginal(law, dim, y, nodes):
    """The marginal density on the unit covariate box by a tensor
    Gauss-Legendre rule with ``nodes`` points per axis."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    x = np.array(list(itertools.product(0.5 * (z + 1.0), repeat=dim)))
    wx = np.array([math.prod(t) for t in itertools.product(0.5 * w, repeat=dim)])
    return wx @ law.pdf_grid(y, x)


_BUILTIN_ARMS = [(name, arm) for name in m.builtin_dgps() for arm in (1, 0)]


class TestMarginalPdf:
    @pytest.mark.parametrize("name, arm", _BUILTIN_ARMS)
    def test_builtin_arm_matches_tensor_quadrature(self, dgps, name, arm):
        self._check(dgps[name], arm, 201)

    @pytest.mark.parametrize("law, nodes", [
        (m.NormalLaw(0.5, (0.8, -0.5, 1.2), 0.7), 41),
        (m.NormalLaw(0.0, (0.8e-3,), 0.8), 201),
        (m.NormalLaw(0.0, (0.8e-7,), 0.8), 201),
        (m.NormalLaw(0.0, (0.2, 1e-3), 1.0), 201),
    ], ids=["three-covariates-negative-slope", "slope-1e-3-sigma", "slope-1e-7-sigma",
            "slopes-0.2-and-1e-3"])
    def test_law_matches_tensor_quadrature(self, law, nodes):
        self._check(_one_law_dgp(law, len(law.slope)), 1, nodes)

    @staticmethod
    def _check(dgp, arm, nodes):
        law = dgp.law(arm)
        y = np.linspace(*law.support_bounds(), 50)
        ref = _tensor_marginal(law, dgp.dim, y, nodes)
        keep = ref > 1e-12 * ref.max()
        got = sim.marginal_pdf(dgp, arm, y)
        assert np.all(np.abs(got - ref)[keep] <= 1e-10 * ref[keep])

    def test_same_bits_for_any_blas_thread_count(self):
        assert _marginal_pdf_bytes(1) == _marginal_pdf_bytes(2)

    def test_memory_stays_in_the_block_budget(self, lognormal_selection):
        law = lognormal_selection.law(0)
        grid = np.linspace(*law.support_bounds(), 10_000)
        sim.marginal_pdf(lognormal_selection, 0, grid[:2])  # builds the cached quadrature
        tracemalloc.start()
        try:
            sim.marginal_pdf(lognormal_selection, 0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestOracleNuisances:
    def test_normal_law_matches_closed_form_convolution(self, normal_selection):
        spec = m.KernelSpec(m.GAUSSIAN, 0.3)
        eta = m.oracle_nuisances(normal_selection, 1, spec)
        x = np.array([[0.2], [0.8]])
        mu = 2.0 + 0.5 * x[:, 0]
        s2 = 1.0 + spec.h ** 2
        want = np.exp(-0.5 * (1.7 - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)
        assert np.allclose(eta.g(x, 1.7), want, atol=1e-12)

    def test_propensity_is_dgp_truth(self, normal_selection):
        spec = m.KernelSpec(m.GAUSSIAN, 0.3)
        eta = m.oracle_nuisances(normal_selection, 1, spec)
        x = np.array([[0.5]])
        assert eta.pi(x)[0] == pytest.approx(1 / (1 + math.exp(0.4 - 0.8 * 0.5)), abs=1e-12)


class TestRunMonteCarlo:
    def test_report_identities(self, lognormal_plain):
        rep = m.run_monte_carlo(lognormal_plain, 300, 5, "kernel", seed=3)
        for summary in rep.targets.values():
            assert abs(summary.rmse ** 2 - (summary.bias ** 2 + summary.sd ** 2)) <= 1e-9
            assert 0.0 <= summary.coverage_95 <= 1.0
        assert rep.reps == 5
        assert len(rep.per_rep) == 5

    def test_seed_determinism_bytes(self, lognormal_plain):
        import json
        a = m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9)
        b = m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_zero_noise_rmse_below_smoothing_scale(self):
        tiny = m.DGPSpec(name="tiny-noise", dim=1, propensity_intercept=0.0,
                         propensity_slope=(0.0,),
                         law1=m.LogNormalLaw(0.2, (0.0,), 0.05),
                         law0=m.LogNormalLaw(0.0, (0.0,), 0.05))
        rep = m.run_monte_carlo(tiny, 400, 6, "kernel", seed=2)
        mean_h = np.mean([r["h"] for r in rep.per_rep])
        assert rep.targets["delta"].rmse <= 3.0 * mean_h

    def test_doubling_reps_moves_bias_within_clt_band(self, lognormal_plain):
        base_reps = 20
        hits = 0
        for trial in range(20):
            small = m.run_monte_carlo(lognormal_plain, 300, base_reps, "kernel", seed=trial)
            big = m.run_monte_carlo(lognormal_plain, 300, 2 * base_reps, "kernel", seed=trial)
            move = abs(big.targets["delta"].bias - small.targets["delta"].bias)
            hits += move <= 2.0 * big.targets["delta"].sd / math.sqrt(base_reps)
        assert hits >= 19

    def test_failure_threshold(self, lognormal_plain, monkeypatch):
        # The counter lives in this process: keep the replications in it.
        monkeypatch.setattr(sim, "_workers", lambda: 1)
        real = sim.estimate_kernel_mte
        calls = {"i": 0}

        def flaky(sample, *args, **kwargs):
            calls["i"] += 1
            if calls["i"] % 3 == 0:
                raise m.EstimationError("synthetic failure")
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(sim, "estimate_kernel_mte", flaky)
        with pytest.raises(m.MonteCarloError):
            m.run_monte_carlo(lognormal_plain, 200, 9, "kernel", seed=1)

    def test_isolated_failures_recorded(self, lognormal_plain, monkeypatch):
        # The counter lives in this process: keep the replications in it.
        monkeypatch.setattr(sim, "_workers", lambda: 1)
        real = sim.estimate_kernel_mte
        calls = {"i": 0}

        def flaky(sample, *args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 4:
                raise m.EstimationError("synthetic failure")
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(sim, "estimate_kernel_mte", flaky)
        rep = m.run_monte_carlo(lognormal_plain, 200, 12, "kernel", seed=1)
        assert len(rep.failures) == 1
        assert rep.failures[0][0] == 3
        assert len(rep.per_rep) == 11

    def test_document_key_order(self, lognormal_plain):
        doc = m.run_monte_carlo(lognormal_plain, 200, 2, "kernel", seed=1).to_dict()
        assert list(doc) == ["schema_version", "dgp", "n", "reps", "method", "truth",
                             "targets", "per_rep", "failures"]
        assert list(doc["truth"]) == list(doc["targets"]) == ["theta1", "theta0", "delta"]
        assert list(doc["targets"]["delta"]) == ["bias", "sd", "rmse", "coverage_95",
                                                 "mean_ci_width"]
        assert list(doc["per_rep"][0]) == ["rep", "seed", "theta1", "theta0", "delta", "se1",
                                           "se0", "se_delta", "ci1", "ci0", "ci_delta", "h"]
        assert isinstance(doc["per_rep"], list) and doc["failures"] == []

    def test_rejects_single_rep(self, lognormal_plain):
        with pytest.raises(ValueError):
            m.run_monte_carlo(lognormal_plain, 100, 1, "kernel")


_RIDGE = {"folds": 5, "pi_learner": "logistic", "g_learner": "ridge"}

# (dgp, n, reps, method, config, seed)
_STUDIES = [
    ("lognormal-plain", 300, 6, "kernel", None, 3),
    ("lognormal-selection", 400, 6, "dml", _RIDGE, 4),
    # At n = 6 one replication in 30 draws a single arm and fails...
    ("lognormal-plain", 6, 30, "kernel", None, 1),
    # ... and on the cross-fitted route too many do.
    ("lognormal-plain", 6, 30, "dml", None, 1),
]


def _run_studies():
    """Each of ``_STUDIES`` as the text of its report, or of its MonteCarloError."""
    dgps = m.builtin_dgps()
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for dgp, n, reps, method, config, seed in _STUDIES:
            try:
                report = m.run_monte_carlo(dgps[dgp], n, reps, method, config=config, seed=seed)
            except m.MonteCarloError as exc:
                out.append(f"MonteCarloError: {exc}")
            else:
                out.append(json.dumps(report.to_dict()))
    return out


def _run_studies_on_one_core(cpu):
    """``_run_studies`` in a fresh interpreter that cuts its affinity to ``cpu``
    before anything is imported."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(m.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import json, os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
            f"sys.path.insert(0, {tests!r}); import test_simulation as t; "
            "print(json.dumps(t._run_studies()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout)


def _study_in_child(dgp, queue):
    report = m.run_monte_carlo(dgp, 200, 4, "kernel", seed=9)
    queue.put((sim._procs is None, json.dumps(report.to_dict())))


needs_two_cpus = pytest.mark.skipif(len(usable_cpus()) < 2, reason="needs at least two usable CPUs")


class TestWorkerProcesses:
    """Replications run on one worker process per usable core, and on the
    calling process when only one is usable; nothing in the report may
    depend on it."""

    @needs_two_cpus
    def test_reports_identical_on_one_core(self):
        pooled = _run_studies()
        assert sim._procs is not None
        assert json.loads(pooled[2])["failures"]
        assert pooled[3].startswith("MonteCarloError: ")
        assert pooled == _run_studies_on_one_core(min(usable_cpus()))

    def test_replication_warnings_reach_the_caller(self, dgps):
        # The kernel route's bandwidth rule warns once per estimate for d = 2.
        with pytest.warns(m.RateConditionWarning) as record:
            m.run_monte_carlo(dgps["skew-mixture"], 300, 4, "kernel", seed=5)
        assert sum(w.category is m.RateConditionWarning for w in record) == 4

    @needs_two_cpus
    def test_broken_pool_is_replaced(self, lognormal_plain):
        from concurrent.futures.process import BrokenProcessPool

        want = m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9).to_dict()
        pool = sim._procs
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9)
        assert sim._procs is None
        assert m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9).to_dict() == want

    @needs_two_cpus
    def test_function_rebound_after_the_fork_runs_here(self, lognormal_plain, monkeypatch):
        """The workers do not have a stub (or a tracer's wrapper) bound after
        they were forked, so the replications then run in this process."""
        m.run_monte_carlo(lognormal_plain, 200, 2, "kernel", seed=9)
        assert sim._procs is not None
        real = sim.estimate_kernel_mte
        calls = []

        def counted(sample, *args, **kwargs):
            calls.append(sample.n)
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(sim, "estimate_kernel_mte", counted)
        m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9)
        assert calls == [200] * 4

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_runs_replications_itself(self, lognormal_plain):
        """A child that multiprocessing forks after the parent's workers
        started drops them and runs the replications itself (it would hang
        at exit waiting for workers of its own); it finishes, and its report
        equals the parent's."""
        want = json.dumps(m.run_monte_carlo(lognormal_plain, 200, 4, "kernel", seed=9).to_dict())
        ctx = multiprocessing.get_context("fork")
        for daemon in (False, True):
            queue = ctx.Queue()
            child = ctx.Process(target=_study_in_child, args=(lognormal_plain, queue),
                                daemon=daemon)
            child.start()
            try:
                assert queue.get(timeout=120) == (True, want)
            finally:
                child.join(timeout=60)
            assert child.exitcode == 0


_ERRORS = [
    (m.EstimationError, ("plain message",), {}),
    (m.DegenerateLocalityError, (1, [0.5, 0.25], 3), {"arm": 1, "x": [0.5, 0.25], "index": 3}),
    (m.DegenerateLocalityError, (0, 2.0), {"arm": 0, "x": 2.0, "index": None}),
    (m.ConstantCovariateError, (2,), {"column": 2}),
    (m.NoOverlapError, ("one arm",), {}),
    (m.NoDataError, ("empty",), {}),
    (m.ConvergenceError, ("logistic fit stalled", 50), {"iterations": 50}),
    (m.InvalidCurveError, ("nan",), {}),
    (m.UnimodalityViolationError, ("two peaks",), {}),
    (m.ConfigurationError, ("mismatch",), {}),
    (m.StratificationError, ("no arm",), {}),
    (m.MonteCarloError, ("too many",), {}),
    (m.CurveShapeWarning, ("flat",), {}),
    (m.RateConditionWarning, ("d = 2",), {}),
]


@pytest.mark.parametrize("cls, args, fields", _ERRORS, ids=[c.__name__ for c, _, _ in _ERRORS])
def test_errors_survive_pickling(cls, args, fields):
    """Errors cross from a worker process to the caller by pickle."""
    import pickle

    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert {k: getattr(back, k) for k in fields} == fields


def test_skew_mixture_is_unimodal_and_generates(dgps):
    dgp = dgps["skew-mixture"]
    s = m.generate(dgp, 500, seed=4)
    assert s.dim == 2
    assert 0 < s.arm_count(1) < s.n
    # Right-skew: mean exceeds the (numeric) mode.
    mode1 = m.true_mode(dgp, 1)
    assert s.y[s.d == 1].mean() > mode1


def test_skew_mixture_dml_recovers_effect(dgps):
    # Two covariates: the cross-fitted route is the intended estimator here
    # (the kernel rule warns for d >= 2).  Arm laws are shifted copies, so
    # the true effect is the shift; a 5-seed pilot put |error| under 0.05.
    dgp = dgps["skew-mixture"]
    truth = m.true_mode(dgp, 1) - m.true_mode(dgp, 0)
    sample = m.generate(dgp, 2000, seed=2)
    res = m.estimate_dml_mte(sample, m.DMLConfig(seed=2))
    assert abs(res.delta - truth) <= 0.25
