"""Log-gamma machinery tuned for moment ratios of weighted spaces.

Three levels of cancellation control are needed by the rest of the toolkit:

* ``log_gamma(x)``               -- plain ln Gamma(x);
* ``log_gamma_ratio(x, s)``      -- ln Gamma(x+s) - ln Gamma(x), accurate in
  absolute terms even when both terms are of size x*ln(x);
* ``log_gamma_second_difference(y, s)`` -- ln Gamma(y+s) - 2 ln Gamma(y)
  + ln Gamma(y-s), a quantity of size roughly s^2/y that would lose all its
  digits if assembled from the individual log-gammas.

The ratio and second-difference forms are what make eigenvalues of the
diagonalized operator computable to ~1e-15 at index 10^4, where the naive
route through ln Gamma keeps only ~5 correct digits.  The kernel series of
the solver and of the C^2 ball are summed here from their log terms.
"""

import math

import numpy as np

from .errors import (LOG_DBL_MAX, ParameterDomainError, SeriesTruncationError,
                     UnrepresentableError)

LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)

# Lanczos g = 607/128; shift below is g + 1/2.  Relative accuracy of the
# resulting ln Gamma is a few ulp for x >= 0.5.
_LANCZOS_SHIFT = 5.24218750000000000
_LANCZOS_SQRT2PI = 2.5066282746310005
_LANCZOS_SER0 = 0.999999999999997092
_LANCZOS_COF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, via the Lanczos series.

    Arguments below 0.5 go through the reflection identity
    ln Gamma(x) = ln pi - ln sin(pi x) - ln Gamma(1 - x).
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise ParameterDomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        return LOG_PI - math.log(math.sin(math.pi * x)) - log_gamma(1.0 - x)
    tmp = x + _LANCZOS_SHIFT
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = _LANCZOS_SER0
    y = x
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return tmp + math.log(_LANCZOS_SQRT2PI * ser / x)


def log_factorial(n: int) -> float:
    """ln n! accumulated termwise in ascending order (no overflow, pure)."""
    if n < 0:
        raise ParameterDomainError(f"log_factorial requires n >= 0, got {n!r}")
    total = 0.0
    for k in range(2, n + 1):
        total += math.log(k)
    return total


# Stirling tail J(x) = sum_j B_{2j} / ((2j)(2j-1) x^(2j-1)), j = 1..5.
# Truncation error below 1e-17 for x >= 20, which _X0 enforces.
_X0 = 20.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _stirling_tail(x: float) -> float:
    u = 1.0 / x
    u2 = u * u
    s = _STIRLING[4]
    for c in (_STIRLING[3], _STIRLING[2], _STIRLING[1], _STIRLING[0]):
        s = c + s * u2
    return s * u


def log_gamma_ratio(x: float, s: float) -> float:
    """ln Gamma(x+s) - ln Gamma(x) without forming either log-gamma.

    Requires x > 0 and x + s > 0.  Absolute error stays at a few ulp of the
    *difference* (size ~ s*ln x), not of the individual terms (size ~ x*ln x).
    """
    if not (x > 0.0 and x + s > 0.0):
        raise ParameterDomainError(
            f"log_gamma_ratio requires x > 0 and x + s > 0, got x={x!r}, s={s!r}")
    if s == 0.0:
        return 0.0
    lo = min(x, x + s)
    if lo < _X0:
        # Shift both arguments up with ln Gamma(t) = ln Gamma(t+1) - ln t.
        j = int(math.ceil(_X0 - lo))
        corr = 0.0
        for i in range(j):
            corr += math.log1p(s / (x + i))
        return log_gamma_ratio(x + j, s) - corr
    return ((x - 0.5) * math.log1p(s / x) + s * math.log(x + s) - s
            + _stirling_tail(x + s) - _stirling_tail(x))


def log_gamma_second_difference(y: float, s: float) -> float:
    """ln Gamma(y+s) - 2 ln Gamma(y) + ln Gamma(y-s), stable for large y.

    This is the log of the ratio of consecutive moment ratios; it is of size
    ~ s^2 * psi'(y) and must be produced directly, because the three
    log-gammas agree in all their leading digits.
    """
    if not (y - s > 0.0 and s >= 0.0):
        raise ParameterDomainError(
            f"log_gamma_second_difference requires y - s > 0, s >= 0, "
            f"got y={y!r}, s={s!r}")
    if s == 0.0:
        return 0.0
    if y - s < _X0:
        j = int(math.ceil(_X0 - (y - s)))
        corr = 0.0
        for i in range(j):
            t = y + i
            corr -= math.log1p(-(s / t) * (s / t))
        return log_gamma_second_difference(y + j, s) + corr
    q = s / y
    return ((y - 0.5) * math.log1p(-q * q)
            + s * math.log1p(2.0 * s / (y - s))
            + _stirling_tail(y + s) - 2.0 * _stirling_tail(y)
            + _stirling_tail(y - s))


# -- kernel series in log form ------------------------------------------------

_SERIES_TERM_BUDGET = 10 ** 6  # the one term budget of every kernel series
_LOG_TAIL = math.log(1e-18)    # the tail bound, relative to the largest term
_LOG_TINY = math.log(np.finfo(float).tiny)


def _log_series_terms(log_c0: float, log_ratio, x: float,
                      diagonal: bool = False) -> list:
    """ln(x^k / c_k) for k = 0 .. cutoff, the log terms of sum_k x^k / c_k
    with x >= 0 and log-convex c_k, ln(c_{k+1} / c_k) = ``log_ratio(k)``.

    Once the growth g = x c_k / c_{k+1} is below 1 it can only fall, so the
    tail after term k is at most term_k g / (1 - g); the cutoff is the first k
    where that is below 1e-18 of the largest term.  Term k counts 1 against
    the term budget, or k + 1 when it stands for a ``diagonal`` of k + 1
    multi-indices.  Raises :class:`UnrepresentableError` when a term
    overflows a double and :class:`SeriesTruncationError` when the budget
    runs out first.
    """
    # the most terms, or diagonals, whose multi-indices fit in the budget
    most = ((math.isqrt(8 * _SERIES_TERM_BUDGET + 1) - 1) // 2 if diagonal
            else _SERIES_TERM_BUDGET)
    logs = [-log_c0]
    log_x = math.log(x) if x > 0.0 else -math.inf
    log_max = logs[0]
    for k in range(most - 1):
        lr = log_ratio(k)
        growth = x * math.exp(-lr)
        if growth < 1.0 and (growth == 0.0 or logs[k] + math.log(
                growth / (1.0 - growth)) <= _LOG_TAIL + log_max):
            return logs
        log_term = logs[k] + (log_x - lr)
        if log_term > LOG_DBL_MAX:
            raise UnrepresentableError(
                f"kernel series term {k + 1} = exp({log_term!r}) overflows")
        log_max = max(log_max, log_term)
        logs.append(log_term)
    raise SeriesTruncationError(
        f"kernel series did not meet its tail bound within "
        f"{_SERIES_TERM_BUDGET} terms (|x| = {x!r})")


def _series_value(log_mags, units, rel_tol: float, what: str) -> complex:
    """sum_k exp(log_mags[k]) units[k] with |units[k]| <= 1, or
    :class:`UnrepresentableError` when A = sum_k exp(log_mags[k]) leaves the
    normal double range or the rounding error eps * A exceeds ``rel_tol``
    times the sum."""
    shift = max(log_mags)
    mags = np.exp(np.asarray(log_mags) - shift)
    size = float(mags.sum())
    if not (_LOG_TINY <= shift and shift + math.log(size) <= LOG_DBL_MAX):
        raise UnrepresentableError(
            f"{what} magnitude sum exp({shift + math.log(size)!r}) "
            f"leaves the double range")
    total = complex(np.sum(mags * units))
    if not size * np.finfo(float).eps <= rel_tol * abs(total):
        raise UnrepresentableError(
            f"{what} series cancels beyond rel_tol = {rel_tol!r}: "
            f"|sum| = {abs(total) / size!r} of sum|term|")
    return total * math.exp(shift)
