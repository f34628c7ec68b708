"""The kernel route's estimates on a fixed battery, against stored values.

The battery is the four built-in designs at n = 300, 2000 and 8000, seeds
1-3, with the Gaussian and the Epanechnikov kernel: 72 estimates at the
default bandwidth and grid.  ``data/kernel_battery.json`` holds each one's
grid argmax per arm and its modes, standard errors and sandwich components,
as computed while the covariate weight pass still divided each coordinate
difference by h and multiplied each weight by the kernel's constant.  Both
cancel in exact arithmetic, so dropping them may change only rounding: every
argmax must be identical, and every value within ``REL`` of the stored one.

Run as a script, with the package importable (``PYTHONPATH=src``), to rewrite
the stored values from the code it imports, after a change that is meant to
move the estimates.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import modete as m

DATA = Path(__file__).with_name("data") / "kernel_battery.json"
DESIGNS = ("lognormal-plain", "lognormal-selection", "normal-selection", "skew-mixture")
SIZES = (300, 2000, 8000)
SEEDS = (1, 2, 3)
FAMILIES = (m.GAUSSIAN, m.EPANECHNIKOV)
FIELDS = ("theta1", "theta0", "se1", "se0", "se_delta", "m1_hat", "m0_hat", "v1_hat", "v0_hat")
REL = 1e-10


def battery_records(design, n):
    """One record per seed and family of ``design`` at size ``n``."""
    dgp = m.builtin_dgps()[design]
    out = []
    for seed in SEEDS:
        sample = m.generate(dgp, n, seed=seed)
        for family in FAMILIES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                res = m.estimate_kernel_mte(sample, family=family)
            argmax = [int(np.argmax(res.curve1.values)), int(np.argmax(res.curve0.values))]
            out.append({"seed": seed, "family": family, "argmax": argmax,
                        **{name: getattr(res, name) for name in FIELDS}})
    return out


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("design", DESIGNS)
def test_estimates_match_the_stored_battery(design, n):
    want = json.loads(DATA.read_text())[f"{design}/{n}"]
    got = battery_records(design, n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        case = (design, n, g["seed"], g["family"])
        assert (g["seed"], g["family"]) == (w["seed"], w["family"])
        assert g["argmax"] == w["argmax"], case
        for name in FIELDS:
            assert g[name] == pytest.approx(w[name], rel=REL, abs=0.0), (case, name)


if __name__ == "__main__":
    doc = {f"{d}/{n}": battery_records(d, n) for d in DESIGNS for n in SIZES}
    DATA.write_text(json.dumps(doc, indent=1) + "\n")
