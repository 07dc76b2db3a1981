"""Radial weights and their moment sequences.

A radial weight on a disc (or on all of the plane) is described by one of
three specifications:

* :class:`DiscPolynomial` -- density (1 - |z|^2)^alpha on the unit disc;
* :class:`FockExponential` -- density exp(-|z|^m) on the whole plane;
* :class:`CustomRadial` -- a caller-supplied radial density.

The moments are the squared monomial norms

    c_n^2 = 2 pi * integral_0^R r^(2n+1) density(r) dr,

kept in natural-log form throughout: the factorial-type growth of c_n^2
overflows doubles near n = 170, while every quantity the toolkit consumes
(ratios, eigenvalues, kernel coefficients) only needs differences of logs.

Every family implements one protocol, so the rest of the toolkit asks the
weight instead of testing which family it is:

* ``support_radius`` and ``label``;
* ``log_density(r)`` -- ln density(r) on an ndarray of radii in the
  support, -inf where the density is 0; every radial quadrature is built on
  it (the disc's is also -inf past r = 1);
* ``log_moment(n)`` -- ln c_n^2, in closed form or by quadrature;
* ``log_ratio(n)`` and ``eigenvalue(n)`` -- ln(c_{n+1}^2 / c_n^2) and lambda_n
  of S*S in closed form, or ``None`` where the cached moments supply them.

``log_moment``, ``log_ratio`` and ``eigenvalue`` take an index or an integer
ndarray of indices, and a :class:`MomentSequence` fills its caches with one
array call of them.

The quadrature is deliberately kept independent of the closed forms and acts
as the verification oracle.  For custom weights it is the only route, and a
:class:`MomentSequence` fills their log moments in blocks of up to 64 orders
per pass of :func:`_radial_quad`: over s, with r = R exp(-e^(-s)) on a
finite support and r = e^s on the plane, each order's log integrand shifted
by its maximum on the initial nodes, and its divergence judged at the two
ends of s.  Orthogonality of the monomials is automatic for radial
densities; their *completeness* cannot be decided from samples and remains
the caller's responsibility for custom weights.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (LOG_DBL_MAX, DbarKitError, DivergenceError,
                     ParameterDomainError, QuadratureError, UnrepresentableError,
                     check_index, check_rel_tol, checked_exp, float_or_array)
from .quadrature import adaptive_quad
from .special import (
    _LOG_TINY,
    LOG_2PI,
    LOG_PI,
    log_factorial,
    log_gamma,
    log_gamma_ratio,
    log_gamma_second_difference,
)


@dataclass(frozen=True)
class DiscPolynomial:
    """Weight (1 - |z|^2)^alpha on the unit disc, alpha >= 0."""

    alpha: float
    support_radius = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and a >= 0.0):
            raise ParameterDomainError(
                f"DiscPolynomial requires alpha >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    def log_density(self, r):
        r = np.asarray(r, dtype=float)
        # computed inside the disc only: np.errstate would cost more than this
        out = np.full(r.shape, -np.inf)
        np.log1p(-r * r, out=out, where=r < 1.0)
        return np.multiply(self.alpha, out, out=out, where=r < 1.0)

    @property
    def label(self) -> str:
        # the shortest repr reads back as the same float
        return f"disc:alpha={repr(self.alpha).removesuffix('.0')}"

    def log_moment(self, n):
        """ln c_n^2 = ln pi + ln n! + ln Gamma(alpha+1) - ln Gamma(alpha+n+2).

        Of the two large log-gammas, the one of the larger argument is paired
        with ln Gamma(alpha+n+2) in one log-gamma ratio, so that no two
        numbers of size n ln n (or alpha ln alpha) are subtracted: it stays
        accurate both for huge n and for huge alpha.
        """
        n = check_index(n, "moment order")
        a = self.alpha
        large_n = LOG_PI + log_gamma(a + 1.0) - log_gamma_ratio(n + 1.0, a + 1.0)
        large_a = LOG_PI + log_factorial(n) - log_gamma_ratio(a + 1.0, n + 1.0)
        return float_or_array(np.where(n + 1.0 > a, large_n, large_a))

    def log_ratio(self, n):
        """ln((n+1) / (alpha+n+2))."""
        n = check_index(n, "moment order")
        return float_or_array(np.log(n + 1.0) - np.log(self.alpha + n + 2.0))

    def eigenvalue(self, n):
        """(alpha+1) / ((n+alpha+1)(n+alpha+2)), exactly r_n - r_{n-1}."""
        n = check_index(n, "n")
        a = self.alpha
        # two divisions rather than one product, which overflows for a > 1e154
        return (a + 1.0) / (n + a + 1.0) / (n + a + 2.0)


@dataclass(frozen=True)
class FockExponential:
    """Weight exp(-|z|^m) on the whole plane, m > 0."""

    m: float
    support_radius = math.inf

    def __post_init__(self):
        m = float(self.m)
        if not (math.isfinite(m) and m > 0.0):
            raise ParameterDomainError(
                f"FockExponential requires m > 0, got {self.m!r}")
        object.__setattr__(self, "m", m)

    def log_density(self, r):
        return -np.asarray(r, dtype=float) ** self.m

    @property
    def label(self) -> str:
        return f"fock:m={repr(self.m).removesuffix('.0')}"

    def log_moment(self, n):
        """ln c_n^2 = ln(2 pi / m) + ln Gamma((2n+2)/m).

        The identity c_n^2 = (2 pi / m) Gamma((2n+2)/m) follows from
        substituting u = r^m in the defining integral; the quadrature oracle
        revalidates it in the test suite.
        """
        n = check_index(n, "moment order")
        return LOG_2PI - math.log(self.m) + log_gamma((2.0 * n + 2.0) / self.m)

    def log_ratio(self, n):
        """ln Gamma((2n+4)/m) - ln Gamma((2n+2)/m), without either log-gamma."""
        n = check_index(n, "moment order")
        return log_gamma_ratio((2.0 * n + 2.0) / self.m, 2.0 / self.m)

    def eigenvalue(self, n):
        """r_{n-1} * expm1(second log-gamma difference), cancellation-free;
        lambda_0 = r_0."""
        n = check_index(n, "n")
        y = (2.0 * n + 2.0) / self.m
        s = 2.0 / self.m
        first = n == 0
        # r_{n-1} is recomputed from y - s rather than taken from
        # log_ratio(n - 1): (2n+2)/m - 2/m and 2n/m can differ in the last
        # bit.  At n = 0 the same call gives r_0, and the second difference
        # is taken at y + s only to stay in its domain
        r = np.exp(log_gamma_ratio(np.where(first, y, y - s), s))
        delta = log_gamma_second_difference(np.where(first, y + s, y), s)
        return float_or_array(np.where(first, r, r * np.expm1(delta)))


@dataclass(frozen=True)
class CustomRadial:
    """A caller-supplied radial density with the given support radius.

    ``density_fn`` must accept a float ndarray of radii and return
    nonnegative values of the same shape (a scalar-only callable is adapted
    on the fly); a negative or NaN value raises
    :class:`ParameterDomainError`.  Finiteness of the moments is only
    checked when they are computed.
    """

    density_fn: Callable = field(compare=False)
    support_radius: float = math.inf

    # no closed forms: a MomentSequence derives both from its cached moments
    log_ratio = None
    eigenvalue = None

    def __post_init__(self):
        rr = float(self.support_radius)
        if not rr > 0.0:
            raise ParameterDomainError(
                f"CustomRadial support_radius must be positive, got "
                f"{self.support_radius!r}")
        object.__setattr__(self, "support_radius", rr)

    def log_density(self, r):
        """ln of the caller's density on [0, support_radius], NaN where it is
        positive but below the normal double range: the radial integrator
        checks that such radii do not matter, since past them a density
        computed on a linear scale underflows to 0."""
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                vals = np.asarray(self.density_fn(r), dtype=float)
                if vals.shape != r.shape:
                    raise ValueError
            except (TypeError, ValueError):
                vals = np.asarray([self.density_fn(float(x)) for x in r.ravel()],
                                  dtype=float).reshape(r.shape)
        if not (vals >= 0.0).all():
            raise ParameterDomainError(
                "custom radial density returned negative or NaN values")
        with np.errstate(divide="ignore"):
            return np.where((vals > 0.0) & (vals < _TINY), np.nan, np.log(vals))

    @property
    def label(self) -> str:
        return "custom"

    def log_moment(self, n):
        """ln c_n^2 by quadrature, the only route for a custom density: the
        distinct orders, ascending, in blocks of up to ``_BLOCK`` per pass."""
        n = check_index(n, "moment order")
        orders, where = np.unique(n, return_inverse=True)
        logs = np.empty(len(orders))
        for j in range(0, len(orders), _BLOCK):
            logs[j:j + _BLOCK] = moment_quadrature(self, orders[j:j + _BLOCK])
        return float_or_array(logs[where].reshape(np.shape(n)))


WeightSpec = Union[DiscPolynomial, FockExponential, CustomRadial]


_BLOCK = 64  # orders per pass of the radial integrator
_CELLS = 32  # initial cells in s, the same for every pass
# s stops where r = R exp(-e^(-s)) still rounds below R, and at r = e^s = 1e12
_FINITE_SPAN, _PLANE_SPAN = (-6.0, 36.5), (-40.0, math.log(1e12))
_TINY = np.finfo(float).tiny
_HEADROOM = 600.0  # of ln f_n over its shift, short of overflow in exp


def _radial_quad(log_density, radius, rel_tol, orders=0):
    """2 pi * integral over [0, radius] of r^(2n+1) exp(log_density(r)) dr
    for each order n, in one adaptive pass to ``rel_tol`` / 4 per order over
    s: r = R exp(-e^(-s)) on a finite support R, s in [-6, 36.5], and r = e^s
    on the plane, s in [-40, ln 1e12], from ``_CELLS`` initial cells.
    Returns ``(values, log_scales)``, the integrals being values *
    exp(log_scales), one per order.  An integrand that is not a moment, such
    as an angular mean, goes in as part of ``log_density``.

    ln f_n = ln 2 pi + (2n+2) ln r + log_density(r) + ln(d ln r / ds), with
    ln r exact from s, is shifted per order by its maximum on the initial
    nodes, so nothing overflows.  Typed failures carry the first failing
    order as ``order``: :class:`UnrepresentableError` where rounding r next
    to the peak moves ln f_n by (n+1) eps > rel_tol, where a density below
    the normal double range (NaN from ``log_density``) may matter, or where a
    peak passes its shift by e^600; :class:`DivergenceError` unless ln f_n,
    probed at both ends of s and one unit inside, decays outward with its
    tail past the ends below rel_tol of the value.
    """
    orders, eps = np.atleast_1d(orders), np.finfo(float).eps
    power = 2.0 * orders + 2.0
    if (coarse := orders[(orders + 1) * eps > rel_tol]).size:
        raise UnrepresentableError(
            f"rounding r to a double moves the radial integrand of order {coarse[0]} "
            f"at its peak by up to (n+1) eps = {(coarse[0] + 1) * eps:.2e}, more "
            "than rel_tol", order=coarse[0])
    finite = math.isfinite(radius)
    lo, hi = _FINITE_SPAN if finite else _PLANE_SPAN

    def log_weight(s):
        """r, ln f_n of shape (len(orders), len(s)) with an underflowed
        density at its bound, and where it underflowed."""
        log_r, log_jac = (math.log(radius) - np.exp(-s), -s) if finite else (s, 0.0)
        r = np.exp(log_r)
        log_rho = log_density(r)
        under = np.isnan(log_rho)
        logw = np.multiply.outer(power, log_r)
        logw += LOG_2PI + log_jac + np.where(under, _LOG_TINY, log_rho)
        if (bad := (logw == np.inf).any(axis=0)).any():
            raise DivergenceError(f"the density is infinite at r = {r[bad][0]!r}",
                                  order=orders[0])
        return r, logw, under

    # the ends test: ln f_n at each end of s and one unit inside it
    r_end, logp, _ = log_weight(np.array([lo, lo + 1.0, hi, hi - 1.0]))
    ends = logp[:, ::2]
    with np.errstate(invalid="ignore"):
        slope = ends - logp[:, 1::2]  # outward, per unit of s
    if not ((slope < 0.0) | (ends == -np.inf)).all():
        k, end = np.argwhere(~((slope < 0.0) | (ends == -np.inf)))[0]
        raise DivergenceError(
            f"the radial integrand of order {orders[k]} does not decay toward "
            f"r = {r_end[2 * end]:.3g}", order=orders[k])
    shift = None

    def integrand(s):
        nonlocal shift
        _, logw, under = log_weight(s)
        if shift is None:
            shift = logw.max(axis=1)
            shift[shift == -np.inf] = 0.0
        logw -= shift[:, None]
        if (matters := (logw[:, under] > math.log(rel_tol)).any(axis=1)).any():
            raise UnrepresentableError(
                "the density underflows the double range where the radial "
                f"integrand of order {orders[np.argmax(matters)]} may not be negligible",
                order=orders[np.argmax(matters)])
        logw[:, under] = -np.inf
        if (high := logw.max(axis=1) > _HEADROOM).any():
            raise UnrepresentableError(
                f"the radial integrand of order {orders[np.argmax(high)]} peaks "
                f"between the initial nodes, more than e^{_HEADROOM:.0f} above them",
                order=orders[np.argmax(high)])
        return np.exp(logw, out=logw)

    try:
        values = adaptive_quad(integrand, lo, hi, 0.25 * rel_tol, initial=_CELLS)[0]
    except QuadratureError as exc:  # it names the first order left open
        open_ = exc.estimate > 0.25 * rel_tol * np.abs(exc.value)
        exc.order = int(orders[np.argmax(open_)])
        raise
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.fmax.reduce(ends - np.log(-slope), axis=1) - shift
        big = tail > math.log(rel_tol) + np.log(np.abs(values))
    if big.any():
        n = orders[np.argmax(big)]
        raise DivergenceError(
            f"the tail of the radial integrand of order {n} below r = {r_end[0]:.3g} "
            f"or past r = {r_end[2]:.3g} exceeds rel_tol of the value", order=n)
    return values, shift


def _scaled(value, log_scale: float):
    """value * exp(log_scale) for one of the radial integrator's values, or
    :class:`UnrepresentableError` when it overflows a double."""
    if not value:
        return value
    size = checked_exp(math.log(abs(value)) + float(log_scale),
                       "the radial integral")
    return (value * math.exp(log_scale) if log_scale <= LOG_DBL_MAX
            else value / abs(value) * size)


def moment_quadrature(weight: WeightSpec, n, rel_tol: float = 1e-10):
    """ln c_n^2 by adaptive quadrature of 2 pi * int r^(2n+1) density(r) dr,
    on a log scale, so neither r^(2n+1) nor the moment can overflow: at an
    index, or at an index array taken as one block of the radial integrator.

    Independent of the closed forms; this is the oracle the closed forms are
    tested against.
    """
    n = check_index(n, "moment order")
    check_rel_tol(rel_tol)
    values, shift = _radial_quad(weight.log_density, weight.support_radius,
                                 rel_tol, n)
    if (bad := values <= 0.0).any():  # a density that is 0 almost everywhere
        k = np.atleast_1d(n)[np.argmax(bad)]
        raise DivergenceError(f"moment of order {k} is not positive", order=k)
    return float_or_array(np.reshape(np.log(values) + shift, np.shape(n)))


class MomentSequence:
    """Lazy log-domain cache of the moments c_n^2 of one weight.

    The cache is observationally pure: queries extend it monotonically and
    repeated queries return bit-identical values.  Instances are therefore
    safe to share between concurrent readers.

    Queries take an index or an index array.  A closed form fills each
    cache in geometrically growing blocks by one array call; a quadrature
    fills the log moments in blocks of up to ``_BLOCK`` orders up to the
    request, and a failing order keeps the ones before it.  ``log_ratio(n)``,
    and ``ratio(n)``, have a cache of their own, filled by the closed form
    ln(c_{n+1}^2 / c_n^2), which keeps its *absolute* error at a few ulp
    when the log moments are huge, or for a custom weight by differences of
    the cached log moments.
    """

    def __init__(self, weight: WeightSpec):
        if not isinstance(weight, (DiscPolynomial, FockExponential, CustomRadial)):
            raise ParameterDomainError(f"unknown weight specification {weight!r}")
        self.weight = weight
        self._logs = self._log_ratios = self._ratios = np.empty(0)

    # -- cache ------------------------------------------------------------

    def ensure(self, n: int) -> None:
        """Extend the cache so that ln c_k^2 is available for all k <= n; a
        quadrature fills one block of orders per pass, stops at ``n`` and
        keeps the orders before a failing one."""
        n = check_index(n, "moment order")
        while len(self._logs) <= n:
            have = len(self._logs)
            stop = (min(n + 1, have + _BLOCK) if self.weight.log_ratio is None
                    else max(n + 1, 2 * have, 64))
            try:
                new = self.weight.log_moment(np.arange(have, stop))
            except DbarKitError as exc:  # keep the orders before the failing one
                if have < (exc.order or 0):
                    kept = self.weight.log_moment(np.arange(have, exc.order))
                    self._logs = np.concatenate((self._logs, kept))
                raise
            self._logs = np.concatenate((self._logs, new))

    def _grow_ratios(self, top: int) -> None:
        """Extend the log ratio and ratio caches past index ``top``."""
        have = len(self._log_ratios)
        if self.weight.log_ratio is None:
            self.ensure(top + 1)
            new = np.diff(self._logs[have:])
        else:
            new = self.weight.log_ratio(np.arange(have, max(top + 1, 2 * have, 64)))
        with np.errstate(over="ignore"):  # inf past the range: ratio() raises
            self._ratios = np.concatenate((self._ratios[:have], np.exp(new)))
        # set last: a reader that sees the longer log ratios sees both
        self._log_ratios = np.concatenate((self._log_ratios[:have], new))

    def _read(self, cache: str, n, grow):
        """The ``cache`` entries at the index or index array ``n``, after
        ``grow(top)`` has extended the cache to the largest index."""
        out = getattr(self, cache)
        if type(n) is int and 0 <= n < len(out):  # the common scalar read
            return float(out[n])
        n = check_index(n, "moment order")
        top = n if isinstance(n, int) else int(n.max(initial=-1))
        if top >= len(out):
            grow(top)
        out = getattr(self, cache)[n]
        return float(out) if isinstance(n, int) else out

    @property
    def computed_upto(self) -> int:
        """Largest order currently cached (-1 when empty)."""
        return len(self._logs) - 1

    @property
    def log_moments(self) -> np.ndarray:
        """Copy of the cached ln c_n^2 values."""
        return self._logs.copy()

    # -- queries ------------------------------------------------------------

    def log_moment(self, n):
        """ln c_n^2 at an index or an index array."""
        return self._read("_logs", n, self.ensure)

    def moment(self, n: int) -> float:
        """c_n^2, or :class:`UnrepresentableError` on overflow."""
        return checked_exp(self.log_moment(n), "moment c_n^2")

    def log_ratio(self, n):
        """ln(c_{n+1}^2 / c_n^2) at an index or an index array."""
        return self._read("_log_ratios", n, self._grow_ratios)

    def ratio(self, n):
        """c_{n+1}^2 / c_n^2, or :class:`UnrepresentableError` on overflow."""
        out = self._read("_ratios", n, self._grow_ratios)
        if np.isinf(out).any() if isinstance(out, np.ndarray) else out == math.inf:
            checked_exp(float(np.max(self.log_ratio(n))),
                        "moment ratio c_{n+1}^2 / c_n^2")
        return out

    def log_convexity_defect(self, n_max: int) -> float:
        """max over 1 <= n < n_max of ln c_n^2 - (ln c_{n-1}^2 + ln c_{n+1}^2)/2.

        Nonpositive (up to rounding) for every genuine weight, by
        Cauchy-Schwarz on the defining integrals.
        """
        lr = self.log_ratio(np.arange(check_index(n_max, "moment order")))
        return float(np.max(0.5 * (lr[:-1] - lr[1:]), initial=-math.inf))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MomentSequence({self.weight!r}, "
                f"computed_upto={self.computed_upto})")
