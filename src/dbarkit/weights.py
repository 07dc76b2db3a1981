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
as the verification oracle.  For custom weights it is the only route.
Orthogonality of the monomials is automatic for radial densities; their
*completeness* cannot be decided from samples and remains the caller's
responsibility for custom weights.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (DivergenceError, ParameterDomainError, check_index,
                     check_rel_tol, checked_exp, float_or_array)
from .quadrature import adaptive_quad
from .special import (
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
        """ln c_n^2 = ln pi + ln n! - sum_{j=1}^{n+1} ln(alpha+j).

        The sum is ln Gamma(alpha+n+2) - ln Gamma(alpha+1), taken as one
        log-gamma ratio, so it stays accurate for huge alpha.
        """
        n = check_index(n, "moment order")
        return LOG_PI + log_factorial(n) - log_gamma_ratio(self.alpha + 1.0, n + 1.0)

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
        """ln of the caller's density on [0, support_radius]."""
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
            return np.log(vals)

    @property
    def label(self) -> str:
        return "custom"

    def log_moment(self, n):
        """ln c_n^2 by quadrature, one order at a time: the only route for a
        custom density."""
        n = check_index(n, "moment order")
        return float_or_array(np.vectorize(lambda k: moment_quadrature(self, k),
                                           otypes=[float])(n))


WeightSpec = Union[DiscPolynomial, FockExponential, CustomRadial]


# radii of the tail probe, the end of t in the fold r = t/(1-t), and its radius
_PROBE_RADII = np.array([1e6, 1e8])
_CLAMP = 1.0 - 1e-12
_CLAMP_RADIUS = _CLAMP / (1.0 - _CLAMP)


def _radial_quad(log_density, radius, rel_tol, power=1, fn=None):
    """2 pi * integral over [0, radius] of r^power exp(log_density(r)) fn(r) dr,
    by adaptive quadrature to rel_tol / 4 from 8 uniform cells in r, or in t
    on the whole plane; there are no breakpoints.

    ``fn`` (angular means, say) is only called where the density has not
    underflowed, so it cannot produce inf * 0; without it the integrand is
    exp(ln 2 pi + power ln r + log_density(r)).  It owns the fold of an
    infinite ``radius`` onto [0, 1) by r = t/(1-t), which stops at r ~ 1e12,
    and ln(r f(r)) of the integrand f is probed at r = 1e6 and 1e8 first: if
    r f(r) has not begun to decay by 1e8, or its power-law tail past the
    clamp exceeds ``rel_tol`` of the value, :class:`DivergenceError` is raised.
    """
    def log_f(r):  # r > 0, without fn
        return LOG_2PI + power * np.log(r) + log_density(r)

    def density_and_fn(r):  # fn is left 0 where the density underflowed
        dens = np.exp(log_density(r))
        vals = np.zeros(dens.shape, dtype=complex)
        live = dens > 0.0
        if live.any():
            vals[live] = fn(r[live])
        return dens, vals

    def integrand(r):
        if fn is None:
            return np.exp(log_f(r))
        dens, vals = density_and_fn(r)
        return 2.0 * math.pi * r ** power * dens * vals

    def integrate(tol):
        with np.errstate(over="ignore"):  # an inf raises in the quadrature
            value = adaptive_quad(f, 0.0, upper, rel_tol=tol)[0]
        log_value = math.log(abs(value)) if value else -math.inf
        if log_tail > math.log(rel_tol) + log_value:
            raise DivergenceError(
                f"its tail past r = {_CLAMP_RADIUS:.0e} exceeds rel_tol of the value")
        return value

    f, upper, log_tail = integrand, radius, -math.inf
    if math.isinf(radius):
        def f(t):  # the fold r = t/(1-t)
            om = 1.0 - t
            return integrand(t / om) / (om * om)

        upper = _CLAMP

        log_probe = log_f(_PROBE_RADII) + np.log(_PROBE_RADII)
        if fn is not None:
            with np.errstate(divide="ignore"):
                log_probe += np.log(np.abs(density_and_fn(_PROBE_RADII)[1]))
        log6, log8 = log_probe
        if log8 > -math.inf:
            if not log8 < log6:
                raise DivergenceError(
                    "r f(r) of the integrand f has not begun to decay by r = 1e8")
            # the power law r f(r) ~ exp(log8) (r/1e8)^(-q) through the
            # probes, integrated past the clamp
            q = (log6 - log8) / math.log(100.0)
            log_tail = log8 + q * math.log(1e8 / _CLAMP_RADIUS) - math.log(q)
            if log_tail > math.log(rel_tol) + log6:
                # the tail may reach rel_tol of the value: judge it on a
                # coarse value first, since near the clamp the fine
                # quadrature can spin for seconds on the rounding of t/(1-t)
                integrate(1e-3)
    return integrate(0.25 * rel_tol)


def moment_quadrature(weight: WeightSpec, n, rel_tol: float = 1e-10) -> float:
    """ln c_n^2 by adaptive quadrature of 2 pi * int r^(2n+1) density(r) dr,
    in log scale so r^(2n+1) cannot overflow before the density underflows.

    Independent of the closed forms; this is the oracle the closed forms are
    tested against.
    """
    n = check_index(n, "moment order")
    check_rel_tol(rel_tol)
    try:
        value = float(_radial_quad(weight.log_density, weight.support_radius,
                                   rel_tol, power=2 * n + 1))
    except DivergenceError as exc:
        raise DivergenceError(f"moment of order {n} diverges: {exc}",
                              order=n) from exc
    if not (math.isfinite(value) and value > 0.0):
        raise DivergenceError(
            f"moment of order {n} is not a finite positive number "
            f"(got {value!r})", order=n)
    return math.log(value)


class MomentSequence:
    """Lazy log-domain cache of the moments c_n^2 of one weight.

    The cache is observationally pure: queries extend it monotonically and
    repeated queries return bit-identical values.  Instances are therefore
    safe to share between concurrent readers.

    Queries take an index or an index array.  A closed form fills each
    cache in geometrically growing blocks by one array call; a quadrature
    fills the log moments one order at a time up to the request, so a
    failing order keeps the ones before it.  ``log_ratio(n)``, and
    ``ratio(n)``, have a cache of their own, filled by the closed form
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
        """Extend the cache so that ln c_k^2 is available for all k <= n."""
        n = check_index(n, "moment order")
        while len(self._logs) <= n:
            have = len(self._logs)
            stop = (have + 1 if self.weight.log_ratio is None
                    else max(n + 1, 2 * have, 64))
            self._logs = np.concatenate(
                (self._logs, self.weight.log_moment(np.arange(have, stop))))

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
