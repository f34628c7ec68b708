"""Shared fixtures and independent oracles for the test suite."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modete as m


@pytest.fixture(scope="session")
def dgps():
    return m.builtin_dgps()


@pytest.fixture(scope="session")
def lognormal_plain(dgps):
    return dgps["lognormal-plain"]


@pytest.fixture(scope="session")
def lognormal_selection(dgps):
    return dgps["lognormal-selection"]


@pytest.fixture(scope="session")
def normal_selection(dgps):
    return dgps["normal-selection"]


def central_difference(f, x, eps):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def small_sample(n=40, seed=0, dim=1):
    """A quick well-behaved two-arm sample for unit tests."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    d = (rng.random(n) < 0.5).astype(int)
    if d.sum() == 0:
        d[0] = 1
    if d.sum() == n:
        d[0] = 0
    x = rng.random((n, dim))
    return m.Sample(y, d, x)


def gaussian_arm_weights(x, d, h, arm, kappa=None):
    """One arm's curve weights ``c`` of the kernel route's Gaussian weight
    pass, and with ``kappa`` its variance weights ``c_var`` under the clipped
    local shares (else None), from the difference formula over the whole
    ``n x n`` matrix: ``e_ij = exp(-sum_c ((x_ic - x_jc) / h)**2 / 2)``,
    ``s_a[i] = sum_{j in a} e_ij``, ``c[j] = sum_i e_ij / s_arm[i]`` and
    ``c_var[j] = sum_i e_ij / (s_arm[i] p[i])``."""
    u = (x[:, None, :] - x[None, :, :]) / h
    e = np.exp(-0.5 * np.sum(u * u, axis=-1))
    mass = {a: e[:, d == a].sum(axis=1) for a in (0, 1)}
    own = e[:, d == arm]
    c = own.T @ (1.0 / mass[arm])
    if kappa is None:
        return c, None
    p = np.clip(mass[arm] / (mass[1] + mass[0]), kappa, 1.0 - kappa)
    return c, own.T @ (1.0 / (mass[arm] * p))


def usable_cpus():
    """The CPUs this process may run on (empty where that cannot be read)."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def write_csv(path, sample):
    """Write ``sample`` with columns y, d, x0, x1, ...; returns the x column names."""
    names = [f"x{c}" for c in range(sample.dim)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "d", *names])
        for yi, di, xi in zip(sample.y, sample.d, sample.x):
            w.writerow([repr(float(yi)), int(di), *[repr(float(v)) for v in xi]])
    return names


def cli_estimate(csv_path, x_names, args, cpu=None):
    """``modete estimate`` in a fresh interpreter, optionally confined to one
    ``cpu``; returns the JSON record without its timing, as text."""
    src = str(Path(m.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # The interpreter pins itself: a preexec_fn is unsafe in a process with threads.
    run = ["-m", "modete.cli"] if cpu is None else [
        "-c", f"import os, runpy; os.sched_setaffinity(0, {{{cpu}}}); "
              "runpy.run_module('modete.cli', run_name='__main__')"]
    proc = subprocess.run(
        [sys.executable, *run, "estimate", "--input", str(csv_path),
         "--y", "y", "--d", "d", "--x", ",".join(x_names), *args],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
        check=True)
    doc = json.loads(proc.stdout)
    del doc["timing_ms"]
    return json.dumps(doc)
