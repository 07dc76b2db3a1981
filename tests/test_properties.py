"""Property tests: every kernel evaluation ends in a finite value or a
typed error (the ball kernel's values match its closed form), the solver's
defect norm stays within its bound constant, the reproducing integral ends in
f(z) or a typed error, every power-law moment ends in its value or a
DivergenceError, and the moment oracle of the disc and Fock weights ends in
the closed form or a typed error, within a time budget."""

import math

import mpmath as mp
from hypothesis import example, given, settings, strategies as st

from dbarkit.ball2d import ball_kernel_series
from dbarkit.errors import DbarKitError, DivergenceError
from dbarkit.solver import (HolomorphicCoeffs, bound_constant, defect_norm_sq,
                            kernel_eval, reproduce_check, space_norm_sq)
from dbarkit.weights import (CustomRadial, DiscPolynomial, FockExponential,
                             MomentSequence, moment_quadrature)


def _points(max_magnitude):
    return st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False,
                              allow_infinity=False)


def _finite_or_typed(kernel, *args):
    try:
        value = kernel(*args)
    except DbarKitError:
        return
    assert math.isfinite(value.real) and math.isfinite(value.imag)


# up to 1e-10 from the boundary: from |z wbar| of about 1 - (alpha+1) 1e-6 on,
# the series needs more terms than its budget and says so at once
@settings(derandomize=True, deadline=1000, max_examples=150)
@given(alpha=st.floats(0.0, 10.0), z=_points(1.0 - 1e-10), w=_points(1.0 - 1e-10))
def test_disc_kernel_finite_or_typed(alpha, z, w):
    _finite_or_typed(kernel_eval, MomentSequence(DiscPolynomial(alpha)), z, w)


@settings(derandomize=True, deadline=1000, max_examples=150)
@given(m=st.floats(0.5, 6.0), z=_points(1e3), w=_points(1e3))
def test_fock_kernel_finite_or_typed(m, z, w):
    _finite_or_typed(kernel_eval, MomentSequence(FockExponential(m)), z, w)


# |z1|, |z2| <= 0.7 keeps |z| <= 0.99, inside the unit ball of C^2.  The
# error to the closed form is measured against sum|term_k|, the closed form
# at |t| with t = <z, w>: rounding in the log terms grows with the number of
# terms, up to 2.2e-13 of it at t = 0.98 with alpha = 10 (the largest on a
# sweep of |t| <= 0.98, alpha <= 10); where the terms cancel, the relative
# error reaches 2.4e-10 on 400 uniform random points
@settings(derandomize=True, deadline=1000, max_examples=60)
@given(alpha=st.floats(0.0, 10.0), z=st.tuples(_points(0.7), _points(0.7)),
       w=st.tuples(_points(0.7), _points(0.7)))
def test_ball_kernel_finite_or_typed(alpha, z, w):
    try:
        got = ball_kernel_series(alpha, z, w)
    except DbarKitError:
        return
    t = sum(mp.mpc(a) * mp.conj(mp.mpc(b)) for a, b in zip(z, w))
    with mp.workdps(40):
        pref = (alpha + 1) * (alpha + 2) / mp.pi ** 2
        want = complex(pref * (1 - t) ** -(mp.mpf(alpha) + 3))
        size = float(pref * (1 - abs(t)) ** -(mp.mpf(alpha) + 3))
    assert abs(got - want) <= 1e-12 * size


# every term of the defect norm is |a_k|^2 c_k^2 rho^(2k) lambda_k, at most
# lambda_k |a_k|^2 c_k^2, so its sum is at most max_k lambda_k ||f||^2
@settings(derandomize=True, deadline=1000, max_examples=300)
@given(weight=st.one_of(st.floats(0.0, 10.0).map(DiscPolynomial),
                        st.floats(0.5, 6.0).map(FockExponential)),
       coeffs=st.lists(_points(1e3), max_size=41),
       rho=st.floats(0.0, 1.0, exclude_min=True))
def test_defect_norm_within_bound_constant(weight, coeffs, rho):
    ms = MomentSequence(weight)
    f = HolomorphicCoeffs(coeffs)
    try:
        defect = defect_norm_sq(f, rho, ms)
        bound = bound_constant(ms, max(f.degree, 1)) * space_norm_sq(f, ms)
    except DbarKitError:
        return
    assert defect <= bound * (1.0 + 1e-12)


# the reproducing integral up to |z| = 0.999 on the disc and 5 on the plane:
# f(z) to within 1e-7 of sum_k |a_k z^k|, or a typed error
@settings(derandomize=True, deadline=1000, max_examples=300)
@given(case=st.one_of(
    st.tuples(st.floats(0.0, 10.0).map(DiscPolynomial), _points(0.999)),
    st.tuples(st.floats(0.5, 6.0).map(FockExponential), _points(5.0))),
    coeffs=st.lists(_points(1e3), max_size=11))
def test_reproduce_check_value_or_typed(case, coeffs):
    weight, z = case
    f = HolomorphicCoeffs(coeffs)
    try:
        got = reproduce_check(MomentSequence(weight), f, z)
    except DbarKitError:
        return
    scale = sum(abs(a) * abs(z) ** k for k, a in enumerate(f))
    assert abs(got - f(z)) <= 1e-7 * scale


# 2 pi int r^(2n+1) (1+r)^-p dr = 2 pi B(2n+2, d) with d = p - 2n - 2: it
# converges for d > 0, but only for d >= 1 is the tail past the end of s at
# r ~ 1e12 surely below rel_tol, so 0 < d < 1 may also raise
@settings(derandomize=True, deadline=1000, max_examples=100)
@given(n=st.integers(0, 3), d=st.floats(-1.0, 6.0))
def test_power_law_moment_value_or_divergence(n, d):
    p = d + 2.0 * n + 2.0
    w = CustomRadial(lambda r: (1.0 + r) ** -p)
    try:
        got = moment_quadrature(w, n)
    except DivergenceError:
        assert d < 1.0
        return
    assert d > 0.0
    want = mp.log(2 * mp.pi * mp.beta(2 * n + 2, mp.mpf(p) - 2 * n - 2))
    assert abs(got - float(want)) <= 1e-9


# the quadrature oracle against the closed forms, on the whole plane and up
# to order 1e5 on the disc.  Fock orders whose integrand has not decayed by
# r = 1e12 raise.  The examples put much of the mass in a narrow band (near
# r = 1 for the disc, far out for small m) that a coarse cell can hide from
# every Gauss node
@settings(derandomize=True, deadline=2000, max_examples=150)
@given(case=st.one_of(
    st.tuples(st.floats(0.3, 8.0).map(FockExponential), st.integers(0, 60)),
    st.tuples(st.floats(0.0, 10.0).map(DiscPolynomial), st.integers(0, 100000))))
@example(case=(DiscPolynomial(1.0), 100000))
@example(case=(FockExponential(0.3), 5))
@example(case=(FockExponential(0.3), 10))
@example(case=(FockExponential(0.4), 10))
@example(case=(FockExponential(0.5), 17))
def test_moment_quadrature_matches_closed_form(case):
    weight, n = case
    try:
        got = moment_quadrature(weight, n)
    except DbarKitError:
        return
    assert abs(got - weight.log_moment(n)) <= 1e-9
