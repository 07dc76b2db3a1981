"""Adaptive quadrature on integrals with known values."""

import math

import numpy as np
import pytest

from dbarkit.errors import DivergenceError, QuadratureError
from dbarkit import quadrature
from dbarkit.quadrature import adaptive_quad
from dbarkit.weights import _radial_quad


def test_polynomial_is_exact():
    value, err = adaptive_quad(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert value == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-10


def test_oscillatory():
    value, _ = adaptive_quad(np.sin, 0.0, 20.0, rel_tol=1e-12)
    assert value == pytest.approx(1.0 - math.cos(20.0), rel=1e-11)


def test_narrow_peak_not_missed():
    # a spike of width 1e-3 at an irrational spot; initial cells catch it
    def f(x):
        return np.exp(-((x - 1.0 / math.pi) / 1e-3) ** 2)

    value, _ = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10)
    assert value == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-9)


def test_complex_integrand():
    value, _ = adaptive_quad(lambda t: np.exp(1j * t), 0.0, math.pi / 2,
                             rel_tol=1e-12)
    assert value == pytest.approx(1.0 + 1.0j, rel=1e-11)


# integrals over [0, inf) go through the map r = e^s of the radial
# integrator, which integrates 2 pi r^(2n+1) exp(log_density(r)) and returns
# the integrals as values * exp(log_scales)


def test_unbounded_exponential():
    # int e^(-r) dr, as order 0 with r e^(-r - ln r)
    values, shift = _radial_quad(lambda r: -r - np.log(r), math.inf, 1e-10)
    value = values[0] * math.exp(shift[0])
    assert value / (2.0 * math.pi) == pytest.approx(1.0, rel=1e-9)


def test_unbounded_gaussian_moment():
    values, shift = _radial_quad(lambda r: -r * r, math.inf, 1e-10)
    value = values[0] * math.exp(shift[0])
    assert value / (2.0 * math.pi) == pytest.approx(0.5, rel=1e-9)


def test_zero_width_interval():
    assert adaptive_quad(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


def test_budget_exhaustion(monkeypatch):
    # |x|^(-1/2)-type endpoint singularity with an absurd tolerance and a
    # tiny budget cannot converge
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 12)
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol=1e-13)
    assert info.value.estimate is not None


def test_non_finite_integrand():
    def f(x):
        return np.where(x > 0.5, np.inf, 1.0)

    with pytest.raises(DivergenceError):
        adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10)
