"""Data-generating processes with known truth, oracle mode computation, and
the Monte Carlo harness used to verify bias, spread, coverage and rate claims.

Covariates are independent U(0, 1) per coordinate; treatment is Bernoulli
with a logit-linear propensity whose coefficients keep it inside
[0.05, 0.95] on the covariate box; outcomes follow per-arm laws (normal,
lognormal, or a normal mixture) whose marginals must be unimodal.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import density
from .density import Sample
from .dml import DMLConfig, OracleNuisance, estimate_dml_mte
from .errors import EstimationError, MonteCarloError, UnimodalityViolationError
from .kernels import DML_METHOD, KERNEL_METHOD, KernelSpec, eval_kernel, kernel_support
from .kernel_mte import estimate_kernel_mte
from .results import SCHEMA_VERSION

_MASK64 = (1 << 64) - 1
_QUAD_POINTS = 201  # Gauss-Legendre nodes per covariate and in the kernel argument
_MODE_GRID_POINTS = 10_000  # of the numerical oracle's search grid


def _mix_seed(seed, rep):
    """Splitmix-style per-replication seed stream."""
    z = (int(seed) + (rep + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _gaussian(z, loc, sigma, out=None):
    """``exp(-u**2 / 2)`` with ``u = (z - loc) / sigma``, broadcast, computed
    in place in ``out``, or in one new array."""
    u = np.subtract(z, loc, out=out)
    u /= sigma
    u *= u
    u *= -0.5
    return np.exp(u, out=u)


@dataclass(frozen=True)
class _LocationLaw:
    """The parameters and the location ``mu + slope . x`` that the normal and
    lognormal laws share."""

    mu: float
    slope: tuple
    sigma: float

    def location(self, x):
        return self.mu + x @ np.asarray(self.slope)

    def sample(self, rng, x):
        return self.transform(rng.standard_normal(x.shape[0]), x)

    def location_bounds(self):
        lo = self.mu + sum(min(0.0, s) for s in self.slope)
        hi = self.mu + sum(max(0.0, s) for s in self.slope)
        return lo, hi


@dataclass(frozen=True)
class NormalLaw(_LocationLaw):
    """Conditional law ``Y | X = x ~ N(mu + slope . x, sigma**2)``."""

    def transform(self, z, x):
        return self.location(x) + self.sigma * z

    def pdf_grid(self, y, x, out=None):
        out = _gaussian(np.asarray(y)[None, :], self.location(x)[:, None], self.sigma, out)
        out /= self.sigma * math.sqrt(2.0 * math.pi)
        return out

    def support_bounds(self):
        lo, hi = self.location_bounds()
        return lo - 8.0 * self.sigma, hi + 8.0 * self.sigma

    def analytic_mode(self):
        return self.mu if all(s == 0.0 for s in self.slope) else None


@dataclass(frozen=True)
class LogNormalLaw(_LocationLaw):
    """Conditional law ``log Y | X = x ~ N(mu + slope . x, sigma**2)``."""

    def transform(self, z, x):
        return np.exp(self.location(x) + self.sigma * z)

    def pdf_grid(self, y, x, out=None):
        y = np.asarray(y, dtype=float)
        pos = y > 0
        # Outcomes without support are evaluated at 1, then zeroed.
        safe = np.where(pos, y, 1.0)
        out = _gaussian(np.log(safe)[None, :], self.location(x)[:, None], self.sigma, out)
        out /= safe[None, :] * self.sigma * math.sqrt(2.0 * math.pi)
        out *= pos
        return out

    def support_bounds(self):
        lo, hi = self.location_bounds()
        return math.exp(lo - 5.0 * self.sigma), math.exp(hi + 5.0 * self.sigma)

    def analytic_mode(self):
        if all(s == 0.0 for s in self.slope):
            return math.exp(self.mu - self.sigma ** 2)
        return None


@dataclass(frozen=True)
class MixtureLaw:
    """Finite mixture of conditional laws (weights sum to one)."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")

    def sample(self, rng, x):
        k = x.shape[0]
        u = rng.random(k)
        z = rng.standard_normal(k)
        cut = np.cumsum(self.weights)
        comp = np.searchsorted(cut, u, side="right")
        comp = np.minimum(comp, len(self.components) - 1)
        y = np.empty(k)
        for c, law in enumerate(self.components):
            mask = comp == c
            if mask.any():
                y[mask] = law.transform(z[mask], x[mask])
        return y

    def pdf_grid(self, y, x, out=None):
        out = self.components[0].pdf_grid(y, x, out)
        out *= self.weights[0]
        part = None
        for w, law in zip(self.weights[1:], self.components[1:]):
            part = law.pdf_grid(y, x, part)
            part *= w
            out += part
        return out

    def support_bounds(self):
        bounds = [law.support_bounds() for law in self.components]
        return min(b[0] for b in bounds), max(b[1] for b in bounds)

    def analytic_mode(self):
        return None


@dataclass(frozen=True)
class DGPSpec:
    """A named data-generating process with logit-linear selection."""

    name: str
    dim: int
    propensity_intercept: float
    propensity_slope: tuple
    law1: object
    law0: object
    seed: int = 0

    def __post_init__(self):
        if len(self.propensity_slope) != self.dim:
            raise ValueError("propensity slope length must match dim")
        # The propensity is linear in x inside a sigmoid, so its extremes on
        # the unit box sit at corners; keep them inside [0.05, 0.95].
        for corner in itertools.product((0.0, 1.0), repeat=self.dim):
            eta = self.propensity_intercept + float(
                np.dot(corner, self.propensity_slope)
            )
            p = 1.0 / (1.0 + math.exp(-eta))
            if not 0.05 <= p <= 0.95:
                raise ValueError(
                    f"propensity leaves [0.05, 0.95] at covariate corner {corner}: {p:.4f}"
                )

    def propensity(self, x):
        eta = self.propensity_intercept + x @ np.asarray(self.propensity_slope)
        return 1.0 / (1.0 + np.exp(-eta))

    def law(self, arm):
        return self.law1 if arm == 1 else self.law0


def builtin_dgps():
    """The four shipped processes, keyed by CLI name."""
    return {
        "lognormal-plain": DGPSpec(
            name="lognormal-plain", dim=1,
            propensity_intercept=0.0, propensity_slope=(0.0,),
            law1=LogNormalLaw(0.5, (0.0,), 0.6),
            law0=LogNormalLaw(0.0, (0.0,), 0.6),
        ),
        "lognormal-selection": DGPSpec(
            name="lognormal-selection", dim=1,
            propensity_intercept=-0.5, propensity_slope=(1.0,),
            law1=LogNormalLaw(0.5, (0.25,), 0.6),
            law0=LogNormalLaw(0.0, (0.25,), 0.6),
        ),
        "normal-selection": DGPSpec(
            name="normal-selection", dim=1,
            propensity_intercept=-0.4, propensity_slope=(0.8,),
            law1=NormalLaw(2.0, (0.5,), 1.0),
            law0=NormalLaw(0.0, (0.5,), 1.0),
        ),
        "skew-mixture": DGPSpec(
            name="skew-mixture", dim=2,
            propensity_intercept=-0.3, propensity_slope=(0.3, 0.3),
            law1=MixtureLaw(
                weights=(0.75, 0.25),
                components=(NormalLaw(1.0, (0.2, 0.2), 0.6), NormalLaw(2.8, (0.2, 0.2), 1.8)),
            ),
            law0=MixtureLaw(
                weights=(0.75, 0.25),
                components=(NormalLaw(0.0, (0.2, 0.2), 0.6), NormalLaw(1.8, (0.2, 0.2), 1.8)),
            ),
        ),
    }


def generate(dgp: DGPSpec, n, seed) -> Sample:
    """Draw a sample of size ``n``; deterministic given ``seed``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.random((n, dgp.dim))
    p = dgp.propensity(x)
    d = (rng.random(n) < p).astype(int)
    y = np.empty(n)
    treated = d == 1
    y[treated] = dgp.law1.sample(rng, x[treated])
    y[~treated] = dgp.law0.sample(rng, x[~treated])
    return Sample(y, d, x)


@lru_cache(maxsize=None)
def _covariate_quadrature(dim):
    """Tensor Gauss-Legendre nodes/weights on the unit covariate box, shared
    by every caller and so read-only."""
    z, w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    nodes1 = 0.5 * (z + 1.0)
    weights1 = 0.5 * w
    grids = np.meshgrid(*([nodes1] * dim), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([weights1] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights *= wg.ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def marginal_pdf(dgp: DGPSpec, arm, y):
    """Marginal potential-outcome density, integrating the covariates out.

    The conditional densities are taken for blocks of nodes within the
    package's memory budget, with ``y`` as the long inner axis, each block
    written into the same buffer, and summed over the nodes without BLAS, so
    the values do not depend on its thread count.
    """
    law = dgp.law(arm)
    nodes, weights = _covariate_quadrature(dgp.dim)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros(y.size)
    step = density._block_rows(y.size)
    buf = np.empty((min(step, nodes.shape[0]), y.size))
    for start in range(0, nodes.shape[0], step):
        rows = nodes[start:start + step]
        pdf = law.pdf_grid(y, rows, buf[:rows.shape[0]])
        out += np.einsum("i,ij->j", weights[start:start + step], pdf)
    return out


def _golden_max(f, lo, hi, tol=1e-8):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def numeric_mode(dgp: DGPSpec, arm):
    """Numerical oracle: fine-grid argmax of the marginal plus golden-section.

    Raises :class:`UnimodalityViolationError` when a second grid-local
    maximum comes within 1% of the peak.
    """
    law = dgp.law(arm)
    lo, hi = law.support_bounds()
    grid = np.linspace(lo, hi, _MODE_GRID_POINTS)
    v = marginal_pdf(dgp, arm, grid)
    # The last point of a tie counts: a symmetric marginal's mode can sit
    # halfway between two grid points, whose values are then equal.
    interior = (v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])
    peaks = np.flatnonzero(interior) + 1
    if peaks.size == 0:
        raise UnimodalityViolationError(
            f"marginal of arm {arm} in {dgp.name!r} has no interior peak on its support grid"
        )
    top = float(v[peaks].max())
    near = peaks[v[peaks] >= 0.99 * top]
    if near.size >= 2:
        raise UnimodalityViolationError(
            f"marginal of arm {arm} in {dgp.name!r} has {near.size} competing peaks"
        )
    i = int(peaks[np.argmax(v[peaks])])

    def value(yq):
        return float(marginal_pdf(dgp, arm, np.asarray([yq]))[0])

    return _golden_max(value, float(grid[i - 1]), float(grid[i + 1]))


@lru_cache(maxsize=None)
def true_mode(dgp: DGPSpec, arm):
    """Population mode of one arm: analytic when available, numerical otherwise."""
    analytic = dgp.law(arm).analytic_mode()
    if analytic is not None:
        return float(analytic)
    return float(numeric_mode(dgp, arm))


def oracle_nuisances(dgp: DGPSpec, arm, spec: KernelSpec) -> OracleNuisance:
    """True propensity and smoothed-outcome conditional mean for one arm.

    The conditional mean of the kernel target is computed by Gauss-Legendre
    quadrature in the kernel argument, which keeps the integrand smooth at
    any bandwidth.
    """
    law = dgp.law(arm)
    lo, hi = kernel_support(spec.family)
    z, w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    u = 0.5 * (hi - lo) * z + 0.5 * (hi + lo)
    wk = 0.5 * (hi - lo) * w * eval_kernel(spec.family, u, 0)

    def g(x, y):
        return law.pdf_grid(y - spec.h * u, np.atleast_2d(x)) @ wk

    return OracleNuisance(pi=lambda x: dgp.propensity(np.atleast_2d(x)), g=g)


@dataclass(frozen=True)
class TargetSummary:
    """Aggregates for one estimand across replications."""

    bias: float
    sd: float
    rmse: float
    coverage_95: float
    mean_ci_width: float


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Replication-level records plus per-target aggregates."""

    dgp: str
    n: int
    reps: int
    method: str
    truth: dict
    targets: dict
    per_rep: tuple
    failures: tuple

    def to_dict(self):
        doc = asdict(self)
        return {"schema_version": SCHEMA_VERSION, **doc, "per_rep": list(doc["per_rep"]),
                "failures": [list(f) for f in self.failures]}


def _estimate(method, sample, config, rep_seed):
    config = dict(config or {})
    if method == KERNEL_METHOD:
        spec = None
        bw = config.pop("bandwidth", None)
        family = config.pop("family", "gaussian")
        if bw is not None:
            spec = KernelSpec(family, bw)
        return estimate_kernel_mte(sample, spec, family=family, **config)
    if method == DML_METHOD:
        base = DMLConfig(**config)
        return estimate_dml_mte(sample, replace(base, seed=rep_seed))
    raise ValueError(f"unknown method {method!r}")


def _summaries(values, truth, ci_los, ci_his):
    err = values - truth
    bias = float(err.mean())
    sd = float(err.std(ddof=0))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    covered = (ci_los <= truth) & (truth <= ci_his)
    return TargetSummary(
        bias=bias, sd=sd, rmse=rmse,
        coverage_95=float(covered.mean()),
        mean_ci_width=float(np.mean(ci_his - ci_los)),
    )


# The :class:`MTEResult` fields of a ``per_rep`` entry after its ``rep`` and
# ``seed``: the estimates and standard errors, then the intervals as lists;
# ``h`` ends the entry.
_REP_SCALARS = ("theta1", "theta0", "delta", "se1", "se0", "se_delta")
_REP_INTERVALS = ("ci1", "ci0", "ci_delta")


def _replicate(dgp, n, method, config, seed, rep):
    """One generate-estimate cycle: ``(record, failure, warned)``.

    ``record`` is the replication's ``per_rep`` entry, or None when the
    estimator raised an :class:`EstimationError`, whose ``(rep, message)`` is
    then ``failure``.  ``warned`` holds the ``(category, message)`` of every
    warning the cycle raised, in order, for the caller to re-emit.
    """
    rep_seed = _mix_seed(seed, rep)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = generate(dgp, n, rep_seed)
        try:
            res = _estimate(method, sample, config, rep_seed)
        except EstimationError as exc:
            res, failure = None, (rep, str(exc))
    warned = [(w.category, str(w.message)) for w in caught]
    if res is None:
        return None, failure, warned
    record = {"rep": rep, "seed": rep_seed,
              **{name: getattr(res, name) for name in _REP_SCALARS},
              **{name: list(getattr(res, name)) for name in _REP_INTERVALS},
              "h": res.h}
    return record, None, warned


# The worker processes of :func:`_replications`, forked on first use, and the
# functions and classes bound in the package's modules when they forked.
_procs = None
_procs_code = None


def _drop_pool():
    global _procs, _procs_code
    _procs = _procs_code = None


def _stop_pool():
    # Stop the workers while the modules are intact: a pool collected in the
    # interpreter's teardown reports an error from its exit callback.
    if _procs is not None:
        _procs.shutdown(wait=True)
    _drop_pool()


atexit.register(_stop_pool)
if hasattr(os, "register_at_fork"):
    # A forked child cannot use its parent's workers: their manager thread
    # stays behind in the parent.
    os.register_at_fork(after_in_child=_drop_pool)


def _workers():
    """Worker processes for a study: one per usable core; or the calling
    process alone where processes cannot be forked, and in any process that
    :mod:`multiprocessing` started, this pool's workers included: it ends
    without the exit hook that stops a pool's workers, and would wait for
    them forever."""
    if not hasattr(os, "fork"):
        return 1
    import multiprocessing

    return 1 if multiprocessing.parent_process() is not None else density._cores()


def _start_worker():
    density._inline = True


def _process_pool():
    """The worker pool, forked on first use; None when one of the package's
    functions has been rebound since the fork (by a tracer, or a test's
    stub), because the workers would not run the new one."""
    global _procs, _procs_code
    if _procs is None:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # Fork a single-threaded process: stop the lane pool's idle threads,
        # which it restarts on its next submit.
        density._pool.shutdown(wait=True)
        density._reset_pool()
        _procs = ProcessPoolExecutor(_workers(), mp_context=multiprocessing.get_context("fork"),
                                     initializer=_start_worker)
        package = __name__.rpartition(".")[0]
        _procs_code = {(name, key): value
                       for name, module in list(sys.modules.items())
                       if name == package or name.startswith(package + ".")
                       for key, value in vars(module).items() if callable(value)}
    same = all(getattr(sys.modules.get(name), key, None) is value
               for (name, key), value in _procs_code.items())
    return _procs if same else None


def _replications(task, reps):
    """Yield ``task(rep)`` for each replication, in order: on the worker
    processes when at least two cores are usable and they run the caller's
    code, otherwise on the calling process.  A worker runs whole
    replications with its maps inline, so the results are bit-identical
    either way.  A broken pool is dropped, and the next study forks a new
    one."""
    pool = _process_pool() if _workers() > 1 else None
    if pool is None:
        yield from map(task, range(reps))
        return
    from concurrent.futures.process import BrokenProcessPool

    try:
        yield from pool.map(task, range(reps))
    except BrokenProcessPool:
        _drop_pool()
        raise


def run_monte_carlo(dgp: DGPSpec, n, reps, method, config=None, seed=0) -> MonteCarloReport:
    """Run ``reps`` generate-estimate cycles and aggregate the results.

    Per-rep seeds derive deterministically from ``seed``; individual failing
    replications are recorded and excluded, but more than 10% failures raise
    :class:`MonteCarloError`.  Replications run one per usable core, in
    worker processes; records, failures and the replications' warnings
    (re-emitted here) come back in replication order, so the report is the
    same as on one core.
    """
    if reps < 2:
        raise ValueError(f"need reps >= 2, got {reps}")
    truth = {"theta1": true_mode(dgp, 1), "theta0": true_mode(dgp, 0)}
    truth["delta"] = truth["theta1"] - truth["theta0"]
    records = []
    failures = []
    task = partial(_replicate, dgp, n, method, config, seed)
    for record, failure, warned in _replications(task, reps):
        for category, message in warned:
            warnings.warn(message, category, stacklevel=2)
        if failure is None:
            records.append(record)
        else:
            failures.append(failure)
    if len(failures) > 0.1 * reps:
        raise MonteCarloError(
            f"{len(failures)} of {reps} replications failed; first: {failures[0][1]}"
        )
    targets = {}
    for name, ci_name in (("theta1", "ci1"), ("theta0", "ci0"), ("delta", "ci_delta")):
        vals = np.asarray([r[name] for r in records])
        los = np.asarray([r[ci_name][0] for r in records])
        his = np.asarray([r[ci_name][1] for r in records])
        targets[name] = _summaries(vals, truth[name], los, his)
    return MonteCarloReport(
        dgp=dgp.name, n=n, reps=reps, method=method,
        truth=truth, targets=targets,
        per_rep=tuple(records), failures=tuple(failures),
    )
