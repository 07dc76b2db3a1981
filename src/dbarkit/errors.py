"""Exception types shared by every module of the toolkit, and the argument
and range guards that raise them."""

import math

import numpy as np

LOG_DBL_MAX = math.log(np.finfo(float).max)


class DbarKitError(Exception):
    """Base class for all toolkit-specific failures; ``order`` is the moment
    order a failure concerns, if any."""

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = None if order is None else int(order)


class ParameterDomainError(DbarKitError, ValueError):
    """A parameter lies outside its mathematical domain (alpha < 0, m <= 0, ...)."""


def check_index(n, name: str, lo: int = 0):
    """``n`` as a Python int, or as an integer ndarray when it is one, or
    :class:`ParameterDomainError` unless every index is an integer >= ``lo``."""
    if isinstance(n, (int, np.integer)) and n >= lo:
        return int(n)
    if isinstance(n, np.ndarray) and n.dtype.kind in "iu" and n.min(initial=lo) >= lo:
        return n
    raise ParameterDomainError(f"{name} must be an integer >= {lo}, got {n!r}")


def check_point(z, dim: int) -> np.ndarray:
    """``z`` as a complex ndarray of shape (dim,), or :class:`ParameterDomainError`
    unless it holds exactly ``dim`` finite coordinates."""
    try:
        pt = np.asarray(z, dtype=complex).reshape(dim)
        if np.isfinite(pt).all():
            return pt
    except (TypeError, ValueError):
        pass
    raise ParameterDomainError(
        f"a point of C^{dim} needs {dim} finite coordinates, got {z!r}")


def float_or_array(a):
    """``a`` as a Python float when it is 0-d, else as an ndarray."""
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def check_rel_tol(rel_tol: float) -> None:
    """Reject relative tolerances outside (1e-14, 1e-2)."""
    if not (1e-14 < rel_tol < 1e-2):
        raise ParameterDomainError(
            f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol!r}")


class DivergenceError(DbarKitError, ArithmeticError):
    """A moment integral diverges, or the integrand produced non-finite values."""


class QuadratureError(DbarKitError, ArithmeticError):
    """Adaptive quadrature exhausted its subdivision budget.

    ``estimate`` carries the achieved error estimate, ``value`` the best
    integral value so far.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 value: complex | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.value = value


class SeriesTruncationError(DbarKitError, ArithmeticError):
    """A kernel series could not meet its tail bound within the term budget."""


class UnrepresentableError(DbarKitError, ArithmeticError):
    """A value kept in log form leaves the double range, a density underflows
    where its integral needs it, or rounding (in a kernel series that cancels,
    or of the radius next to a moment's peak) exceeds the requested rel_tol."""


def checked_exp(log_value: float, what: str) -> float:
    """exp(log_value), or :class:`UnrepresentableError` naming ``what`` when
    it overflows a double."""
    if log_value > LOG_DBL_MAX:
        raise UnrepresentableError(
            f"{what} = exp({log_value!r}) overflows a double")
    return math.exp(log_value)


class ConvergenceDomainError(DbarKitError, ValueError):
    """Evaluation point lies outside the domain of convergence of a series."""


class InconclusiveSupremumError(DbarKitError, RuntimeError):
    """A numerical supremum peaked on the search boundary; enlarge the radius."""
