"""Adaptive Gauss quadrature with an embedded error estimate.

Each panel is integrated with 15-point and 7-point Gauss-Legendre rules; the
absolute difference serves as the panel's error estimate.  Subdivision starts
from uniform cells and bisects the worst panel until the summed estimate
meets the requested tolerance, within a budget of ``_MAX_PANELS`` panels;
there are no breakpoints.  Nodes and weights come from
``numpy.polynomial.legendre.leggauss``, so there are no tabulated constants
to mistype.

Integrands must be vectorized (ndarray in, ndarray of the same shape out) and
may be complex valued.
"""

import heapq

import numpy as np

from .errors import DivergenceError, QuadratureError

_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)
_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_MAX_PANELS = 10 ** 6


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    f15 = np.asarray(f(mid + half * _NODES15))
    f7 = np.asarray(f(mid + half * _NODES7))
    v15 = half * np.sum(_WEIGHTS15 * f15)
    v7 = half * np.sum(_WEIGHTS7 * f7)
    if not (np.isfinite(f15).all() and np.isfinite(f7).all()):
        raise DivergenceError(
            f"integrand returned non-finite values on [{a!r}, {b!r}]")
    return complex(v15), abs(v15 - v7)


def adaptive_quad(f, a: float, b: float, rel_tol: float = 1e-10,
                  initial: int = 8):
    """Integrate a vectorized ``f`` over [a, b] adaptively, starting from
    ``initial`` uniform cells.

    Returns ``(value, error_estimate)``; the value is complex when the
    integrand is.  Raises :class:`QuadratureError` when the subdivision budget
    is exhausted before the estimate reaches ``rel_tol * |value|``.
    """
    if b == a:
        return 0.0, 0.0
    edges = sorted({a, b, *(a + (b - a) * k / initial for k in range(1, initial))})

    heap = []
    done = []  # panels too narrow to split further
    serial = 0
    total = 0.0 + 0.0j
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, serial, lo, hi, val))
        serial += 1

    n_panels = len(heap)
    while heap:
        if total_err <= rel_tol * abs(total):
            break
        if n_panels >= _MAX_PANELS:
            raise QuadratureError(
                f"quadrature budget of {_MAX_PANELS} panels exhausted "
                f"(achieved error estimate {total_err:.3e})",
                estimate=total_err, value=total)
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval no longer splittable in floating point
            done.append((lo, hi, val, -neg_err))
            continue
        total -= val
        total_err += neg_err  # neg_err is -err
        for l2, h2 in ((lo, mid), (mid, hi)):
            v2, e2 = _panel(f, l2, h2)
            total += v2
            total_err += e2
            heapq.heappush(heap, (-e2, serial, l2, h2, v2))
            serial += 1
        n_panels += 1

    if not heap and done and total_err > rel_tol * abs(total):
        raise QuadratureError(
            "all panels reached floating-point width before meeting the "
            f"tolerance (achieved error estimate {total_err:.3e})",
            estimate=total_err, value=total)

    value = total if total.imag != 0.0 else total.real
    return value, total_err
