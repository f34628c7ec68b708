"""The four benchmark workloads and the check applied to every op's output.

Every workload is a closed loop driven by one caller.  Op ``i`` of a run
with seed ``s`` uses input ``p = (s + i) % POOL`` from a fixed pool of
``POOL`` inputs, each drawn with seed ``p``.  The same seed therefore gives
the same inputs, every input has stored reference outputs
(``reference.json``), and runs with different seeds share most of their
work, which keeps their medians comparable.

Every layer call goes through a module attribute (``kernel_mte.estimate_...``,
``cli.main``, ...) so that the tracer in :mod:`spans` can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import modete
from modete import cli, dml, kernel_mte, simulation

POOL = 8
LOGNORMAL = "lognormal-selection"
SKEW = "skew-mixture"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Estimate:
    """The parts of one estimator result that the check and the drift use.

    ``key`` names the estimate within its op, ``"<method>/<replication>"``;
    the reference outputs are stored under it.
    """

    key: str
    theta1: float
    theta0: float
    delta: float
    se_delta: float
    ci_delta: tuple
    m1_hat: float | None = None  # Monte Carlo records do not carry curvatures
    m0_hat: float | None = None

    @classmethod
    def from_result(cls, key, res):
        return cls(key, res.theta1, res.theta0, res.delta, res.se_delta, tuple(res.ci_delta),
                   res.m1_hat, res.m0_hat)

    @classmethod
    def from_record(cls, key, rec):
        """From a CLI JSON record."""
        return cls(key, rec["estimates"]["theta1"], rec["estimates"]["theta0"],
                   rec["estimates"]["delta"], rec["ses"]["se_delta"],
                   tuple(rec["cis"]["ci_delta"]),
                   rec["components"]["m1_hat"], rec["components"]["m0_hat"])

    @classmethod
    def from_rep(cls, method, rep):
        """From one ``MonteCarloReport.per_rep`` entry."""
        return cls(f"{method}/{rep['rep']}", rep["theta1"], rep["theta0"], rep["delta"],
                   rep["se_delta"], tuple(rep["ci_delta"]))

    def reference(self):
        return [self.theta1, self.theta0, self.se_delta]


def valid(est: Estimate):
    """Finite effect, standard error and interval, a positive standard error,
    and negative curvature components where the result carries them."""
    values = (est.delta, est.se_delta, *est.ci_delta)
    if not all(math.isfinite(v) for v in values) or not est.se_delta > 0:
        return False
    return all(m_hat is None or m_hat < 0 for m_hat in (est.m1_hat, est.m0_hat))


def check(est: Estimate, truth):
    """The output check of one estimate: valid, and the effect within four
    standard errors of the true effect."""
    return valid(est) and abs(est.delta - truth) <= 4.0 * est.se_delta


def check_replications(estimates, truth):
    """The output check of one Monte Carlo study: how many replications pass.

    Each replication must be valid.  The truth check applies to the study's
    result, the mean effect: it must lie within four standard errors of the
    truth, the standard error of a mean of independent estimates with the
    reported ``se_delta`` values.  Otherwise no replication counts.  A
    four-standard-error check on single replications would fail on the
    estimators as ``reference.json`` records them: at n=2000, replications
    whose curve has two competing peaks land up to 5.3 standard errors away.
    """
    reps = [e for e in estimates if valid(e)]
    if not reps:
        return 0
    mean = statistics.mean(e.delta for e in reps)
    se = math.sqrt(sum(e.se_delta ** 2 for e in reps)) / len(reps)
    return len(reps) if abs(mean - truth) <= 4.0 * se else 0


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One closed-loop workload: set-up, a warm-up op and the timed op."""

    name = ""
    dgp = ""
    n = 0
    smoke_n = 0
    reps = 1  # estimator calls per op

    def __init__(self, out_dir: Path, truth, smoke=False):
        self.out_dir = out_dir
        self.truth = truth
        self.smoke = smoke
        self.size = self.smoke_n if smoke else self.n
        self.spec = modete.builtin_dgps()[self.dgp]

    def setup(self):
        """Build the inputs of every pool entry."""
        self.samples = [simulation.generate(self.spec, self.size, p) for p in range(POOL)]

    def warm(self):
        """One untimed op on a small input, so lazy first-call work is done."""
        self.estimate(simulation.generate(self.spec, self.smoke_n, POOL), POOL)

    def op(self, p):
        """Run the op on pool entry ``p``; returns ``(estimates, reps passing the check)``."""
        est = self.estimate(self.samples[p], p)
        return [est], int(check(est, self.truth))


class KernelN8k(Workload):
    name = "kernel-n8k"
    dgp = SKEW
    n = 8000
    smoke_n = 600

    def estimate(self, sample, p):
        return Estimate.from_result("kernel/0", kernel_mte.estimate_kernel_mte(sample))


class DmlKnnN3k(Workload):
    name = "dml-knn-n3k"
    dgp = LOGNORMAL
    n = 3000
    smoke_n = 400

    def estimate(self, sample, p):
        config = dml.DMLConfig(folds=5, seed=p, pi_learner="knn", g_learner="knn")
        return Estimate.from_result("dml/0", dml.estimate_dml_mte(sample, config))


class DmlCliN16k(Workload):
    name = "dml-cli-n16k"
    dgp = LOGNORMAL
    n = 16000
    smoke_n = 800

    def _write(self, sample, p):
        path = self.out_dir / f"{self.name}-input-{self.size}-{p}.csv"
        rows = ["y,d,x1"] + [
            f"{y!r},{d},{x!r}"
            for y, d, x in zip(sample.y.tolist(), sample.d.tolist(), sample.x[:, 0].tolist())
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def setup(self):
        super().setup()
        self.paths = [self._write(s, p) for p, s in enumerate(self.samples)]
        self.warm_path = self._write(simulation.generate(self.spec, self.smoke_n, POOL), POOL)

    def warm(self):
        self._run_cli(self.warm_path, POOL)

    def op(self, p):
        est = self._run_cli(self.paths[p], p)
        return [est], int(check(est, self.truth))

    def _run_cli(self, path, p):
        argv = ["estimate", "--input", str(path), "--y", "y", "--d", "d", "--x", "x1",
                "--method", "dml", "--folds", "5", "--learner-pi", "logistic",
                "--learner-g", "ridge", "--seed", str(p), "--output", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"modete estimate exited with code {code}")
        return Estimate.from_record("dml/0", json.loads(buf.getvalue()))


class McN2k(Workload):
    name = "mc-n2k"
    dgp = LOGNORMAL
    n = 2000
    smoke_n = 300
    reps_per_method = 8
    methods = (("kernel", None), ("dml", {"folds": 5, "pi_learner": "logistic",
                                          "g_learner": "ridge"}))

    def __init__(self, out_dir, truth, smoke=False):
        super().__init__(out_dir, truth, smoke)
        self.r = 2 if smoke else self.reps_per_method
        self.reps = self.r * len(self.methods)
        # Taken before any tracing, which hides the cache's methods.
        self._clear_oracle = simulation.true_mode.cache_clear

    def setup(self):
        # Samples are drawn inside run_monte_carlo; set-up warms the oracle,
        # which every `modete simulate` invocation pays.
        self._clear_oracle()
        simulation.true_mode(self.spec, 1)
        simulation.true_mode(self.spec, 0)

    def warm(self):
        self._run(self.smoke_n, 2, POOL)

    def op(self, p):
        return self._run(self.size, self.r, p)

    def _run(self, n, r, seed):
        """Failed replications (``MonteCarloReport.failures``) never count as passing."""
        estimates = []
        ok = 0
        for method, config in self.methods:
            try:
                report = simulation.run_monte_carlo(self.spec, n, r, method,
                                                    config=config, seed=seed)
            except modete.MonteCarloError:
                continue
            reps = [Estimate.from_rep(method, rep) for rep in report.per_rep]
            estimates.extend(reps)
            ok += check_replications(reps, self.truth)
        return estimates, ok


WORKLOADS = {w.name: w for w in (KernelN8k, DmlCliN16k, McN2k, DmlKnnN3k)}
