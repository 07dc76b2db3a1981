"""Log-gamma machinery tuned for moment ratios of weighted spaces.

Three levels of cancellation control are needed by the rest of the toolkit:

* ``log_gamma(x)``               -- plain ln Gamma(x), and ``log_factorial(n)``;
* ``log_gamma_ratio(x, s)``      -- ln Gamma(x+s) - ln Gamma(x), accurate in
  absolute terms even when both terms are of size x*ln(x);
* ``log_gamma_second_difference(y, s)`` -- ln Gamma(y+s) - 2 ln Gamma(y)
  + ln Gamma(y-s), a quantity of size roughly s^2/y that would lose all its
  digits if assembled from the individual log-gammas.

The ratio and second-difference forms are what make eigenvalues of the
diagonalized operator computable to ~1e-15 at index 10^4, where the naive
route through ln Gamma keeps only ~5 correct digits.  All four take ndarrays
(broadcast against each other) and answer elementwise; a scalar call is their
0-d case and returns a float, and a bad element raises
:class:`ParameterDomainError`.  Small arguments are lifted above 20 by a
masked loop of at most 20 steps.  The kernel series of the solver and of
the C^2 ball are summed here from their log terms.
"""

import cmath
import math

import numpy as np

from .errors import (LOG_DBL_MAX, ParameterDomainError, SeriesTruncationError,
                     UnrepresentableError, check_index, float_or_array)

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


def log_gamma(x):
    """ln Gamma(x) for x > 0, via the Lanczos series.

    Arguments below 0.5 go through the reflection identity
    ln Gamma(x) = ln pi - ln sin(pi x) - ln Gamma(1 - x).
    """
    (x,) = _arguments("log_gamma requires x > 0",
                      lambda x: (x > 0.0) & np.isfinite(x), x)
    low = x < 0.5
    y = np.where(low, 1.0 - x, x)
    tmp = y + _LANCZOS_SHIFT
    tmp = (y + 0.5) * np.log(tmp) - tmp
    ser, z = _LANCZOS_SER0, y
    for c in _LANCZOS_COF:
        z = z + 1.0
        ser = ser + c / z
    out = tmp + np.log(_LANCZOS_SQRT2PI * ser / y)
    sine = np.sin(np.pi * np.where(low, x, 0.5))  # 1 off the reflection
    return float_or_array(np.where(low, LOG_PI - np.log(sine) - out, out))


def log_factorial(n):
    """ln n! as ln Gamma(n+1), with ln 0! = ln 1! = 0 exactly."""
    n = check_index(n, "log_factorial argument")
    return float_or_array(np.where(n > 1, log_gamma(n + 1.0), 0.0))


# Stirling tail J(x) = sum_j B_{2j} / ((2j)(2j-1) x^(2j-1)), j = 1..5.
# Truncation error below 1e-17 for x >= 20, which _X0 enforces.
_X0 = 20.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _stirling_tail(x):
    """J(x), elementwise on an ndarray."""
    u = 1.0 / x
    u2 = u * u
    s = _STIRLING[4]
    for c in (_STIRLING[3], _STIRLING[2], _STIRLING[1], _STIRLING[0]):
        s = c + s * u2
    return s * u


def _arguments(name, domain, *args):
    """``args`` as float ndarrays of one shape, or
    :class:`ParameterDomainError` naming the first element outside ``domain``."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    bad = np.flatnonzero(~domain(*args))
    if bad.size:
        raise ParameterDomainError(
            f"{name}, got " + " and ".join(repr(float(a.flat[bad[0]])) for a in args))
    return args


def _upward_shift(lo, step):
    """(j, corr) for lifting arguments whose smallest, ``lo``, is below _X0:
    j = ceil(_X0 - lo) there and 0 elsewhere (at most 20 for lo > 0), and
    corr = sum_{i < j} step(i, k), accumulated in ascending i, where
    ``step(i, k)`` gives the terms at the flat positions k still shifting."""
    j = np.ceil(np.maximum(_X0 - lo, 0.0))
    corr = np.zeros(lo.shape)
    k = np.flatnonzero(j)
    for i in range(int(j.max(initial=0.0))):
        k = k[j.flat[k] > i]
        corr.flat[k] += step(i, k)
    return j, corr


def log_gamma_ratio(x, s):
    """ln Gamma(x+s) - ln Gamma(x) without forming either log-gamma.

    Requires x > 0 and x + s > 0.  Absolute error stays at a few ulp of the
    *difference* (size ~ s*ln x), not of the individual terms (size ~ x*ln x).
    """
    x, s = _arguments("log_gamma_ratio requires x > 0 and x + s > 0",
                      lambda x, s: (x > 0.0) & (x + s > 0.0), x, s)
    # shift both arguments up with ln Gamma(t) = ln Gamma(t+1) - ln t
    j, corr = _upward_shift(np.minimum(x, x + s),
                            lambda i, k: np.log1p(s.flat[k] / (x.flat[k] + i)))
    x = x + j
    out = ((x - 0.5) * np.log1p(s / x) + s * np.log(x + s) - s
           + _stirling_tail(x + s) - _stirling_tail(x)) - corr
    return float_or_array(np.where(s == 0.0, 0.0, out))


def log_gamma_second_difference(y, s):
    """ln Gamma(y+s) - 2 ln Gamma(y) + ln Gamma(y-s), stable for large y.

    This is the log of the ratio of consecutive moment ratios; it is of size
    ~ s^2 * psi'(y) and must be produced directly, because the three
    log-gammas agree in all their leading digits.  Requires y - s > 0 and
    s >= 0.
    """
    y, s = _arguments("log_gamma_second_difference requires y - s > 0, s >= 0",
                      lambda y, s: (y - s > 0.0) & (s >= 0.0), y, s)
    def step(i, k):
        q = s.flat[k] / (y.flat[k] + i)
        return -np.log1p(-q * q)

    j, corr = _upward_shift(y - s, step)
    y = y + j
    q = s / y
    out = ((y - 0.5) * np.log1p(-q * q)
           + s * np.log1p(2.0 * s / (y - s))
           + _stirling_tail(y + s) - 2.0 * _stirling_tail(y)
           + _stirling_tail(y - s)) + corr
    return float_or_array(np.where(s == 0.0, 0.0, out))


# -- kernel series in log form ------------------------------------------------

_SERIES_TERM_BUDGET = 10 ** 6  # the one term budget of every kernel series
_LOG_TAIL = math.log(1e-18)    # the tail bound, relative to the largest term
_LOG_TINY = math.log(np.finfo(float).tiny)


def _log_series_terms(log_c0: float, log_ratio, x: float,
                      closed_form=None) -> np.ndarray:
    """ln(x^k / c_k) for k = 0 .. cutoff, the log terms of sum_k x^k / c_k
    with x >= 0 and log-convex c_k, ln(c_{k+1} / c_k) = ``log_ratio(k)`` on
    an index array.

    The growth g = x c_k / c_{k+1} can only fall, so once it is below 1 the
    tail after term k is at most term_k g / (1 - g); the cutoff is the first k
    where that is below 1e-18 of the largest term.  The log ratios are taken
    in index blocks of doubling length, and each block's terms are their
    running sum in ascending k.  Raises :class:`UnrepresentableError` when a
    term overflows a double and :class:`SeriesTruncationError` when the term
    budget runs out first.  Given ``closed_form``, the same log ratio for one
    index, the latter is raised after the first block when g >= 1 at the
    last index the budget allows, since no cutoff can fall within it (an
    overflow later in the budget is then not reached).
    """
    log_x = math.log(x) if x > 0.0 else -math.inf
    logs = [np.array([-log_c0])]
    log_max = -log_c0
    done, block = 1, 64
    while done < _SERIES_TERM_BUDGET:
        k = np.arange(done - 1, min(done - 1 + block, _SERIES_TERM_BUDGET - 1))
        step = log_x - log_ratio(k)                         # ln g_k
        run = np.cumsum(np.concatenate((logs[-1][-1:], step)))  # from term k[0]
        cut = len(k)  # the cutoff's place in the block, if it falls there
        if step.min() < 0.0:  # some g_k < 1
            with np.errstate(divide="ignore", invalid="ignore"):
                growth = np.exp(step)
                tail = run[:-1] + np.log(growth / (1.0 - growth))
            peak = np.maximum(log_max, np.maximum.accumulate(run[:-1]))
            hits = np.flatnonzero((growth < 1.0) & (tail <= _LOG_TAIL + peak))
            cut = hits[0] if hits.size else cut
        new = run[1:cut + 1]
        if new.max(initial=-math.inf) > LOG_DBL_MAX:
            i = np.flatnonzero(new > LOG_DBL_MAX)[0]
            raise UnrepresentableError(
                f"kernel series term {k[i] + 1} = exp({float(new[i])!r}) overflows")
        logs.append(new)
        if cut < len(k):
            return np.concatenate(logs)
        if done == 1 and closed_form is not None and \
                log_x >= closed_form(_SERIES_TERM_BUDGET - 2):
            break
        log_max = max(log_max, new.max())
        done += len(k)
        block *= 2
    raise SeriesTruncationError(
        f"kernel series did not meet its tail bound within "
        f"{_SERIES_TERM_BUDGET} terms (|x| = {x!r})")


def _kernel_series(log_c0: float, log_ratio, q: complex, rel_tol: float,
                   what: str, closed_form=None) -> complex:
    """sum_k q^k / c_k, its log terms from :func:`_log_series_terms` at
    x = |q|, or :class:`UnrepresentableError` when A = sum_k |q|^k / c_k
    leaves the normal double range or the rounding error eps * A exceeds
    ``rel_tol`` times the sum."""
    logs = _log_series_terms(log_c0, log_ratio, abs(q), closed_form=closed_form)
    units = np.exp(1j * cmath.phase(q) * np.arange(len(logs)))
    shift = float(np.max(logs))
    mags = np.exp(logs - shift)
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
