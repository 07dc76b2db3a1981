"""Property tests: every kernel evaluation ends in a finite value or a
typed error, within a time budget."""

import math

from hypothesis import given, settings, strategies as st

from dbarkit.ball2d import ball_kernel_series
from dbarkit.errors import DbarKitError
from dbarkit.solver import kernel_eval
from dbarkit.weights import DiscPolynomial, FockExponential, MomentSequence


def _points(max_magnitude):
    return st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False,
                              allow_infinity=False)


def _finite_or_typed(kernel, *args):
    try:
        value = kernel(*args)
    except DbarKitError:
        return
    assert math.isfinite(value.real) and math.isfinite(value.imag)


# |z|, |w| <= 0.999 keeps |z wbar| <= 0.998 on the disc.  This is a known
# limit of the test, not of the domain: closer to the boundary the series
# needs more terms than its budget, and using the budget up takes longer
# than the deadline
@settings(derandomize=True, deadline=1000, max_examples=150)
@given(alpha=st.floats(0.0, 10.0), z=_points(0.999), w=_points(0.999))
def test_disc_kernel_finite_or_typed(alpha, z, w):
    _finite_or_typed(kernel_eval, MomentSequence(DiscPolynomial(alpha)), z, w)


@settings(derandomize=True, deadline=1000, max_examples=150)
@given(m=st.floats(0.5, 6.0), z=_points(1e3), w=_points(1e3))
def test_fock_kernel_finite_or_typed(m, z, w):
    _finite_or_typed(kernel_eval, MomentSequence(FockExponential(m)), z, w)


# |z1|, |z2| <= 0.7 keeps |z| <= 0.99, inside the unit ball of C^2
@settings(derandomize=True, deadline=1000, max_examples=60)
@given(alpha=st.floats(0.0, 10.0), z=st.tuples(_points(0.7), _points(0.7)),
       w=st.tuples(_points(0.7), _points(0.7)))
def test_ball_kernel_finite_or_typed(alpha, z, w):
    _finite_or_typed(ball_kernel_series, alpha, z, w)
