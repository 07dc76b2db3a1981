"""Log-gamma machinery against the C library, exact values and mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

from dbarkit.errors import ParameterDomainError
from dbarkit.special import (
    log_factorial,
    log_gamma,
    log_gamma_ratio,
    log_gamma_second_difference,
)


def test_log_gamma_exact_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=5e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(11.0) == pytest.approx(math.log(3628800.0), rel=1e-14)


def test_log_gamma_matches_libm():
    # math.lgamma is an independent implementation; the contract is 1e-13
    for i in range(1, 4000):
        x = 0.5 + 0.05 * i
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_reflection_region():
    for x in (0.001, 0.02, 0.1, 0.3, 0.49):
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_domain():
    with pytest.raises(ParameterDomainError):
        log_gamma(0.0)
    with pytest.raises(ParameterDomainError):
        log_gamma(-3.2)


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(10) == pytest.approx(math.log(3628800.0), rel=1e-14)
    assert log_factorial(10 ** 6) == pytest.approx(math.lgamma(1e6 + 1.0), rel=1e-15)
    with pytest.raises(ParameterDomainError):
        log_factorial(-1)


def test_ratio_small_arguments_vs_lgamma():
    # direct subtraction of lgamma is safe at small x; use it as the oracle
    for x, s in [(0.7, 1.3), (1.0, 1.0), (2.5, 0.5), (5.0, 2.0), (12.0, 0.25)]:
        ref = math.lgamma(x + s) - math.lgamma(x)
        assert log_gamma_ratio(x, s) == pytest.approx(ref, abs=1e-13)


def test_ratio_integer_shift_is_a_log():
    # Gamma(x+1)/Gamma(x) = x, so the log-ratio must be ln x to high accuracy
    for x in (1.0, 17.0, 1e3, 1e4, 123456.0):
        assert log_gamma_ratio(x, 1.0) == pytest.approx(math.log(x), rel=1e-14)


def test_second_difference_identity():
    # with s = 1 the second difference collapses to ln(y) - ln(y-1)
    for y in (2.0, 5.5, 40.0, 1e4):
        ref = math.log(y) - math.log(y - 1.0)
        assert log_gamma_second_difference(y, 1.0) == pytest.approx(ref, rel=1e-13)


def test_second_difference_small_arguments_vs_lgamma():
    for y, s in [(1.5, 0.5), (2.0, 1.0), (4.0, 2.0), (10.0, 0.9)]:
        ref = (math.lgamma(y + s) - 2.0 * math.lgamma(y) + math.lgamma(y - s))
        assert log_gamma_second_difference(y, s) == pytest.approx(ref, abs=5e-14)


def test_difference_domains():
    with pytest.raises(ParameterDomainError):
        log_gamma_ratio(-1.0, 0.5)
    with pytest.raises(ParameterDomainError):
        log_gamma_ratio(1.0, -2.0)
    with pytest.raises(ParameterDomainError):
        log_gamma_second_difference(1.0, 1.5)


# The mpmath tests compare with 40-digit references.  Each tolerance is the
# worst error measured on its sample, rounded up by less than a factor of 2.
# s = 2/m for Fock exponents m in [0.5, 7], the shifts the spectrum uses
_SHIFTS = tuple(2.0 / m for m in (0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 7.0))


def test_log_gamma_against_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for x in np.logspace(-3, 8, 1201):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            worst = max(worst, abs(log_gamma(float(x)) - ref) / max(1.0, abs(ref)))
    assert worst <= 2e-15  # measured 1.4e-15


def test_ratio_against_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for s in _SHIFTS:
            for x in np.logspace(-2, 8, 301):
                x = mp.mpf(float(x))
                ref = float(mp.loggamma(x + s) - mp.loggamma(x))
                worst = max(worst, abs(log_gamma_ratio(float(x), s) - ref)
                            / max(1.0, abs(ref)))
    assert worst <= 8e-15  # measured 5.3e-15


def test_second_difference_against_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for s in _SHIFTS:
            for y in np.logspace(math.log10(s) + 0.01, 8, 301):
                y = mp.mpf(float(y))
                ref = float(mp.loggamma(y + s) - 2 * mp.loggamma(y)
                            + mp.loggamma(y - s))
                worst = max(worst, abs(log_gamma_second_difference(float(y), s)
                                       - ref) / abs(ref))
    assert worst <= 1.5e-15  # measured 1.0e-15


# -- one code path for scalars and arrays ------------------------------------

# x in (0, 40] crosses the upward shift at 20, with points on both sides of it
_X = np.concatenate((np.linspace(1e-3, 40.0, 801),
                     [19.0, 19.999999999999996, 20.0, 20.000000000000004, 21.0]))


def test_ratio_array_matches_scalar_calls_bit_for_bit():
    for s in _SHIFTS + (-0.5, 0.0):
        x = _X[_X + s > 0.0]
        got = log_gamma_ratio(x, s)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        want = [log_gamma_ratio(float(v), s) for v in x]
        assert all(isinstance(w, float) for w in want)
        assert got.tolist() == want


def test_second_difference_array_matches_scalar_calls_bit_for_bit():
    for s in _SHIFTS + (0.0,):
        y = _X[_X - s > 0.0]
        want = [log_gamma_second_difference(float(v), s) for v in y]
        assert log_gamma_second_difference(y, s).tolist() == want


def test_log_gamma_array_matches_scalar_calls_bit_for_bit():
    # _X crosses the reflection at 0.5 as well as the shift at 20
    got = log_gamma(_X)
    want = [log_gamma(float(v)) for v in _X]
    assert all(isinstance(w, float) for w in want)
    assert got.tolist() == want
    n = np.arange(41)
    want = [log_factorial(int(k)) for k in n]
    assert want[:2] == [0.0, 0.0]
    assert log_factorial(n).tolist() == want
    assert log_factorial(n.reshape(41, 1)).shape == (41, 1)


def test_arguments_broadcast():
    x = np.array([[0.5], [30.0]])
    s = np.array([0.25, 1.0, 2.0])
    got = log_gamma_ratio(x, s)
    assert got.shape == (2, 3)
    assert got[1, 2] == log_gamma_ratio(30.0, 2.0)


def test_bad_element_in_an_array_is_typed():
    with pytest.raises(ParameterDomainError, match="-1.0"):
        log_gamma_ratio(np.array([1.0, 2.0, -1.0]), 0.5)
    with pytest.raises(ParameterDomainError):
        log_gamma_ratio(np.array([1.0, np.nan]), 0.5)
    with pytest.raises(ParameterDomainError):
        log_gamma_second_difference(np.array([5.0, 1.0]), 1.5)
    with pytest.raises(ParameterDomainError, match="-2.0"):
        log_gamma(np.array([1.0, 0.25, -2.0]))
    with pytest.raises(ParameterDomainError):
        log_gamma(np.array([1.0, np.inf]))
    with pytest.raises(ParameterDomainError):
        log_factorial(np.array([3, -1]))
