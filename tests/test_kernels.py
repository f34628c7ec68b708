"""Kernel primitives: values, derivatives, constants, bandwidth rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import modete as m
from modete.kernels import kernel_support

from conftest import central_difference

FAMILIES = (m.GAUSSIAN, m.EPANECHNIKOV)


@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_and_symmetry(family):
    lo, hi = kernel_support(family)
    mass, _ = quad(lambda u: m.eval_kernel(family, u, 0), lo, hi, limit=200)
    first, _ = quad(lambda u: u * m.eval_kernel(family, u, 0), lo, hi, limit=200)
    assert abs(mass - 1.0) <= 1e-6
    assert abs(first) <= 1e-6


@given(u=st.floats(-20.0, 20.0), family=st.sampled_from(FAMILIES))
@settings(max_examples=200, deadline=None)
def test_kernel_nonnegative(u, family):
    assert m.eval_kernel(family, u, 0) >= 0.0


def test_eval_kernel_examples():
    assert m.eval_kernel(m.GAUSSIAN, 0.0, 0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-7)
    assert m.eval_kernel(m.EPANECHNIKOV, 2.0, 0) == 0.0
    assert m.eval_kernel(m.GAUSSIAN, 0.0, 1) == 0.0
    # d/du 0.75(1 - u^2) = -1.5u at u = 0.5
    assert m.eval_kernel(m.EPANECHNIKOV, 0.5, 1) == pytest.approx(-0.75, abs=1e-12)
    fd = central_difference(lambda u: m.eval_kernel(m.EPANECHNIKOV, u, 0), 0.5, 1e-6)
    assert m.eval_kernel(m.EPANECHNIKOV, 0.5, 1) == pytest.approx(fd, abs=1e-6)


def test_eval_kernel_rejects_bad_order_and_family():
    with pytest.raises(ValueError):
        m.eval_kernel(m.GAUSSIAN, 0.0, 3)
    with pytest.raises(ValueError):
        m.eval_kernel("triangular", 0.0, 0)


def test_epanechnikov_boundary_one_sided():
    assert m.eval_kernel(m.EPANECHNIKOV, 1.0, 1) == -1.5
    assert m.eval_kernel(m.EPANECHNIKOV, -1.0, 1) == 1.5
    assert m.eval_kernel(m.EPANECHNIKOV, 1.0, 2) == -1.5
    assert m.eval_kernel(m.EPANECHNIKOV, 1.0 + 1e-12, 1) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("order", [1, 2])
def test_finite_difference_consistency(family, order):
    rng = np.random.default_rng(7)
    lo, hi = kernel_support(family)
    eps = 1e-5
    # Interior points only: stay clear of the Epanechnikov boundary kink.
    us = rng.uniform(lo + 10 * eps, hi - 10 * eps, 200)
    if family == m.EPANECHNIKOV:
        us = us[np.abs(np.abs(us) - 1.0) > 10 * eps]
    for u in us:
        fd = central_difference(lambda v: m.eval_kernel(family, v, order - 1), u, eps)
        assert abs(fd - m.eval_kernel(family, u, order)) <= 1e-5


def test_scaled_kernel_examples():
    spec = m.KernelSpec(m.GAUSSIAN, 2.0)
    assert m.scaled_kernel(spec, 0.0, 0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)), abs=1e-7)
    for family in FAMILIES:
        assert m.scaled_kernel(m.KernelSpec(family, 0.7), 0.0, 1) == 0.0
    spec = m.KernelSpec(m.GAUSSIAN, 0.5)
    expected = 4.0 * (-1.0 * math.exp(-0.5) / math.sqrt(2 * math.pi))
    assert m.scaled_kernel(spec, 0.5, 1) == pytest.approx(expected, abs=1e-7)
    assert m.scaled_kernel(spec, 0.5, 1) == pytest.approx(-0.9678828, abs=1e-6)
    # Finite difference of the scaled order-0 form.
    fd = central_difference(lambda y: m.scaled_kernel(spec, y, 0), 0.5, 1e-6)
    assert m.scaled_kernel(spec, 0.5, 1) == pytest.approx(fd, rel=1e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [0, 1, 2])
def test_gaussian_kernel_is_zero_far_out(order):
    """Where the density underflows to 0, every order is 0, with no warning:
    not inf * 0, where u * u or the polynomial factor overflows."""
    spec = m.KernelSpec(m.GAUSSIAN, 0.5)
    u = np.array([1e154, 1e200, np.inf])
    for sign in (1.0, -1.0):
        assert np.array_equal(m.scaled_kernel(spec, sign * u * spec.h, order), np.zeros(3))
        assert np.array_equal(m.eval_kernel(m.GAUSSIAN, sign * u, order), np.zeros(3))


@given(
    family=st.sampled_from(FAMILIES),
    h=st.floats(0.05, 10.0),
    diff=st.floats(-3.0, 3.0),
    order=st.sampled_from([0, 1, 2]),
)
@settings(max_examples=200, deadline=None)
def test_scaling_identity_bit_exact(family, h, diff, order):
    spec = m.KernelSpec(family, h)
    assert m.scaled_kernel(spec, diff, order) == m.eval_kernel(family, diff / h, order) * h ** (
        -(1 + order)
    )


def test_product_kernel_examples():
    spec = m.KernelSpec(m.GAUSSIAN, 1.0)
    assert m.product_kernel(spec, [0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi), abs=1e-7)
    assert m.product_kernel(m.KernelSpec(m.EPANECHNIKOV, 1.0), [0.0, 1.5]) == 0.0
    assert m.product_kernel(spec, [0.3]) == pytest.approx(0.3813878, abs=1e-6)
    with pytest.raises(ValueError):
        m.product_kernel(spec, [])


@given(h=st.floats(0.1, 5.0), diff=st.floats(-2.0, 2.0), family=st.sampled_from(FAMILIES))
@settings(max_examples=100, deadline=None)
def test_product_kernel_d1_matches_scaled(h, diff, family):
    spec = m.KernelSpec(family, h)
    assert m.product_kernel(spec, [diff]) == m.scaled_kernel(spec, diff, 0)


def test_kernel_constants_closed_forms():
    g = m.kernel_constants(m.GAUSSIAN)
    assert g.kappa0_1 == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), abs=1e-12)
    assert g.kappa0_1 == pytest.approx(0.1410474, abs=1e-7)
    assert g.kappa2 == 1.0
    e = m.kernel_constants(m.EPANECHNIKOV)
    assert e.kappa2 == pytest.approx(0.2, abs=1e-12)
    assert e.kappa0_1 == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_constants_against_quadrature_oracle(family):
    lo, hi = kernel_support(family)
    k01_oracle, _ = quad(lambda u: m.eval_kernel(family, u, 1) ** 2, lo, hi, limit=200)
    k2_oracle, _ = quad(lambda u: u * u * m.eval_kernel(family, u, 0), lo, hi, limit=200)
    got = m.kernel_constants(family)
    assert got.kappa0_1 == pytest.approx(k01_oracle, abs=1e-6)
    assert got.kappa2 == pytest.approx(k2_oracle, abs=1e-6)


def test_kernel_constants_cached():
    assert m.kernel_constants(m.GAUSSIAN) is m.kernel_constants(m.GAUSSIAN)


def test_default_bandwidth_rules():
    assert m.default_bandwidth(1000, 1, "dml", 1.0) == pytest.approx(0.2511886, abs=1e-7)
    # Direct evaluation of the stated rule: 2 * 1000 ** (-13/84).
    assert m.default_bandwidth(1000, 1, "kernel", 2.0) == 2.0 * 1000 ** (-13.0 / 84.0)
    assert m.default_bandwidth(1000, 1, "kernel", 2.0) == pytest.approx(0.6866640, abs=1e-6)
    with pytest.raises(ValueError):
        m.default_bandwidth(1, 1, "dml", 1.0)
    with pytest.raises(ValueError):
        m.default_bandwidth(100, 1, "dml", 0.0)
    with pytest.raises(ValueError):
        m.default_bandwidth(100, 1, "nope", 1.0)


def test_default_bandwidth_warns_for_high_dimension():
    with pytest.warns(m.RateConditionWarning):
        h = m.default_bandwidth(1000, 2, "kernel", 1.0)
    assert h == 1000 ** (-(1.0 / 7.0 + 0.01))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        m.KernelSpec(m.GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        m.KernelSpec(m.GAUSSIAN, -1.0)
    with pytest.raises(ValueError):
        m.KernelSpec("box", 1.0)
    with pytest.raises(ValueError):
        m.KernelConstants(-1.0, 0.2)
