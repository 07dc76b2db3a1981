"""The unit ball in C^2 with weight (1 - |z1|^2 - |z2|^2)^alpha.

On (0,1)-forms with holomorphic coefficients the solution operator acts on
the orthonormal basis u_{n1,n2} dzbar_1, u_{n1,n2} dzbar_2 built from the
monomials z1^n1 z2^n2 / c_{n1,n2}.  The squared norms of its values are the
per-direction "form energies"

    ||S(u_{n1,n2} dzbar_1)||^2 = (alpha + n2 + 2)
        / ((alpha + n1 + n2 + 3)(alpha + n1 + n2 + 2)),

and the double sum of the two directions over n1, n2 >= 1 diverges: in two
variables the operator fails to be Hilbert-Schmidt for every alpha >= 0,
in contrast with the one-variable disc.

The kernel sum_nu z^nu wbar^nu / c_nu^2 is a 1-D series: the moments obey
1/c_{n1,n2}^2 = binom(n1+n2, n1) / c_{n1+n2,0}^2, so the binomial theorem
sums each diagonal n1 + n2 = sigma to t^sigma / c_{sigma,0}^2 with
t = <z, w> = z1 wbar1 + z2 wbar2.  Its prefactor deserves a note: matching
the series at z = w = 0 forces K(0,0) = 1/c_{0,0}^2 = (alpha+1)(alpha+2)/pi^2,
and for alpha = 0 the classical ball kernel 2/pi^2 (1 - <z,w>)^{-3} confirms
it, so :func:`ball_kernel_closed` carries the prefactor (alpha+1)(alpha+2)/pi^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceDomainError,
    DivergenceError,
    ParameterDomainError,
    check_index,
    check_point,
    check_rel_tol,
    float_or_array,
)
from .quadrature import adaptive_quad
from .special import LOG_PI, _kernel_series, log_factorial, log_gamma_ratio

_LOG_PI2 = 2.0 * LOG_PI


def _check_alpha(alpha: float) -> float:
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ParameterDomainError(f"ball weight requires alpha >= 0, got {alpha!r}")
    return float(alpha)


def _check_cell(alpha: float, n1, n2, direction: int = 1):
    """Validated (alpha, n1, n2); direction 2 swaps the two indices."""
    if direction not in (1, 2):
        raise ParameterDomainError(f"direction must be 1 or 2, got {direction!r}")
    n1, n2 = check_index(n1, "n1"), check_index(n2, "n2")
    if direction == 2:
        n1, n2 = n2, n1
    return _check_alpha(alpha), n1, n2


def ball_moment_log(alpha: float, n1, n2):
    """ln c_{n1,n2}^2 = ln pi^2 + ln n1! + ln n2! - sum_{j=1}^{n1+n2+2} ln(alpha+j),
    with the sum taken as one log-gamma ratio.  ``n1`` and ``n2`` may be
    index arrays; the terms are added as (ln n1! + ln n2!) + the rest, so the
    value is symmetric in (n1, n2) bit for bit."""
    alpha, n1, n2 = _check_cell(alpha, n1, n2)
    return (log_factorial(n1) + log_factorial(n2)) + (
        _LOG_PI2 - log_gamma_ratio(alpha + 1.0, n1 + n2 + 2.0))


@dataclass(frozen=True)
class BallMomentGrid:
    """2-D array of ln c_{n1,n2}^2, exactly symmetric in (n1, n2)."""

    alpha: float
    log_moments: np.ndarray

    @classmethod
    def build(cls, alpha: float, n_max: int) -> "BallMomentGrid":
        """:func:`ball_moment_log` on the grid, its log-gamma ratio taken once
        per diagonal n1 + n2."""
        alpha = _check_alpha(alpha)
        n = np.arange(check_index(n_max, "n_max") + 1)
        lf = log_factorial(n)
        diag = _LOG_PI2 - log_gamma_ratio(alpha + 1.0, np.arange(2 * len(n) - 1) + 2.0)
        grid = (lf[:, None] + lf[None, :]) + diag[n[:, None] + n[None, :]]
        if not np.all(np.isfinite(grid)):
            raise DivergenceError("ball moment grid contains non-finite entries")
        return cls(alpha=alpha, log_moments=grid)

    def log_moment(self, n1: int, n2: int) -> float:
        return float(self.log_moments[n1, n2])


def form_energy(alpha: float, n1, n2, direction: int) -> float:
    """||S(u_{n1,n2} dzbar_direction)||^2 from the closed form.

    Direction 1 gives (alpha+n2+2)/((alpha+n1+n2+3)(alpha+n1+n2+2));
    direction 2 swaps n1 and n2.  Equals the moment-ratio difference
    c_{n1+1,n2}^2/c_{n1,n2}^2 - c_{n1,n2}^2/c_{n1-1,n2}^2 for n1 >= 1,
    which :func:`form_energy_from_moments` re-derives through the moment
    route for the test suite.
    """
    alpha, n1, n2 = _check_cell(alpha, n1, n2, direction)
    sigma = alpha + n1 + n2
    return (alpha + n2 + 2.0) / ((sigma + 3.0) * (sigma + 2.0))


def ball_log_ratio(alpha: float, n1, n2):
    """ln(c_{n1+1,n2}^2 / c_{n1,n2}^2) = ln(n1+1) - ln(alpha+n1+n2+3).

    The cancellation-free form of the log-moment difference (compare the
    1-D :meth:`MomentSequence.log_ratio`); the other index direction follows
    by symmetry of the moments.  ``n1`` and ``n2`` may be index arrays.
    """
    alpha, n1, n2 = _check_cell(alpha, n1, n2)
    return float_or_array(np.log(n1 + 1.0) - np.log(alpha + n1 + n2 + 3.0))


def form_energy_from_moments(alpha: float, n1, n2, direction: int) -> float:
    """The dzbar_direction energy by the moment-ratio route, n_direction >= 1.

    Evaluates r * expm1(delta) with r = c^2(n1,n2)/c^2(n1-1,n2) and delta the
    second log-moment difference.  The regrouping

        delta = log1p(1/n1) - log1p(1/(alpha+n1+n2+2))

    keeps full relative accuracy (subtracting the two log-ratios directly
    loses ~3 digits by n1+n2 = 50).  The agreement with :func:`form_energy`
    witnesses the algebraic identity between the two closed forms.
    """
    alpha, n1, n2 = _check_cell(alpha, n1, n2, direction)
    if n1 < 1:
        raise ParameterDomainError("the moment-ratio route needs n_direction >= 1")
    lr_prev = ball_log_ratio(alpha, n1 - 1, n2)
    delta = math.log1p(1.0 / n1) - math.log1p(1.0 / (alpha + n1 + n2 + 2.0))
    return math.exp(lr_prev) * math.expm1(delta)


def ball_hs_partial_sum(alpha: float, N: int) -> float:
    """sum_{n1,n2=1}^{N} of both direction energies, row-major order.

    Grows without bound as N increases: the Hilbert-Schmidt test fails on
    the two-dimensional ball.  N = 0 is the empty sum.
    """
    alpha = _check_alpha(alpha)
    N = check_index(N, "N")
    n1, n2 = np.indices((N, N)).reshape(2, -1) + 1  # row-major
    sigma = alpha + n1 + n2
    denom = (sigma + 3.0) * (sigma + 2.0)
    terms = (alpha + n2 + 2.0) / denom + (alpha + n1 + 2.0) / denom
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def ball_kernel_series(alpha: float, z, w, rel_tol: float = 1e-10) -> complex:
    """Kernel sum over multi-indices, sum z^nu wbar^nu / c_nu^2, summed as
    the 1-D series sum_sigma t^sigma / c_{sigma,0}^2 in t = z1 wbar1 + z2 wbar2:
    by the binomial theorem, since 1/c_{n1,n2}^2 = binom(sigma, n1) /
    c_{sigma,0}^2 on each diagonal n1 + n2 = sigma.  ``rel_tol``, the term
    budget and the typed errors are those of :func:`kernel_eval`.  Requires
    both points strictly inside the unit ball of C^2.
    """
    alpha = _check_alpha(alpha)
    check_rel_tol(rel_tol)
    (z1, z2), (w1, w2) = check_point(z, 2).tolist(), check_point(w, 2).tolist()
    if not (math.hypot(abs(z1), abs(z2)) < 1.0 and math.hypot(abs(w1), abs(w2)) < 1.0):
        raise ConvergenceDomainError(
            "ball kernel series requires both points strictly inside the ball")

    def log_ratio(s):
        return ball_log_ratio(alpha, s, 0)

    return _kernel_series(ball_moment_log(alpha, 0, 0), log_ratio,
                          z1 * w1.conjugate() + z2 * w2.conjugate(), rel_tol,
                          "ball kernel", closed_form=log_ratio)


def ball_kernel_closed(alpha: float, z, w) -> complex:
    """(alpha+1)(alpha+2)/pi^2 * (1 - z1 wbar1 - z2 wbar2)^(-(alpha+3)).

    The prefactor is pinned by the series' (0,0) term, 1/c_{0,0}^2; see the
    module docstring.
    """
    alpha = _check_alpha(alpha)
    (z1, z2), (w1, w2) = check_point(z, 2).tolist(), check_point(w, 2).tolist()
    t = z1 * w1.conjugate() + z2 * w2.conjugate()
    pref = (alpha + 1.0) * (alpha + 2.0) / math.pi ** 2
    return pref * (1.0 - t) ** (-(alpha + 3.0))


def ball_moment_quadrature(alpha: float, n1, n2, rel_tol: float = 1e-10) -> float:
    """ln c_{n1,n2}^2 by two 1-D adaptive quadratures (independent oracle).

    Uses the substitution s1 = 1 - r1^2 - r2^2, s2 = 1 - r2^2, under which

        c^2 = pi^2 * int_0^1 (1-s2)^n2 [ int_0^s2 (s2-s1)^n1 s1^alpha ds1 ] ds2,

    and s1 = s2 t, which turns the inner integral into s2^(n1+alpha+1) times
    int_0^1 (1-t)^n1 t^alpha dt, so the double integral is a product of two
    1-D integrals, taken as two components of one adaptive pass, each to a
    quarter of ``rel_tol``.
    """
    alpha, n1, n2 = _check_cell(alpha, n1, n2)
    check_rel_tol(rel_tol)
    power = np.array([[n1], [n2]])
    exponent = np.array([[alpha], [n1 + alpha + 1.0]])
    factors, _ = adaptive_quad(lambda t: (1.0 - t) ** power * t ** exponent,
                               0.0, 1.0, rel_tol=0.25 * rel_tol, initial=4)
    value = math.pi ** 2 * float(factors[0]) * float(factors[1])
    if not (math.isfinite(value) and value > 0.0):
        raise DivergenceError(
            f"ball moment ({n1},{n2}) is not finite positive (got {value!r})")
    return math.log(value)
