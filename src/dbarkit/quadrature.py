"""Adaptive Gauss quadrature of a stack of integrands.

Each panel gets 15-point and 7-point Gauss-Legendre rules (nodes from
``numpy.polynomial.legendre.leggauss``), their difference being its error
estimate, per component.  From uniform cells, each round bisects in one batch
every panel whose error in an open component exceeds that component's
tolerance over the panel count, until each component meets err_k <= rel_tol *
|value_k|, within ``_MAX_PANELS`` panels and no breakpoints.  A half also
takes half the move of its parent's G15 value where that move is about the
parent's estimate, so a jump hidden between a panel end and the outermost
nodes still counts.  Integrands map an ndarray of nodes, at most ``_CHUNK``
panels' and first the initial cells', to values, or to a stack of shape
(k, len(x)); values may be complex.
"""

import numpy as np

from .errors import DivergenceError, QuadratureError

_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)
_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate((_NODES15, _NODES7))
_MAX_PANELS = 10 ** 4  # the (k, panels) values and estimates of 64 orders: 10 MB
_CHUNK = 64


def _panels(f, lo, hi):
    """G15 values, |G15 - G7| estimates (k, len(lo)), and whether f stacks."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = [np.asarray(f(x[j:j + _CHUNK].ravel())) for j in range(0, len(x), _CHUNK)]
    stacked = fx[0].ndim == 2
    fx = [np.atleast_2d(y) for y in fx]
    fx = fx[0] if len(fx) == 1 else np.concatenate(fx, axis=-1)
    if not np.isfinite(fx).all():
        bad = np.flatnonzero(~np.isfinite(fx).all(axis=0))[0] // len(_NODES)
        raise DivergenceError(
            f"integrand returned non-finite values on [{lo[bad]!r}, {hi[bad]!r}]")
    fx = fx.reshape(len(fx), len(lo), len(_NODES))
    v15 = half * (fx[..., :15] @ _WEIGHTS15)
    return v15, np.abs(v15 - half * (fx[..., 15:] @ _WEIGHTS7)), stacked


def adaptive_quad(f, a: float, b: float, rel_tol: float = 1e-10,
                  initial: int = 8):
    """Integrate a vectorized ``f`` over [a, b] adaptively, starting from
    ``initial`` uniform cells.

    Returns ``(value, error_estimate)``: scalars when ``f`` returns one
    component, arrays of length k when it returns a stack of k; the value is
    complex when the integrand is.  Raises :class:`QuadratureError` when the
    budget is exhausted, or no panel can be split, before every component's
    estimate reaches ``rel_tol * |value|``.
    """
    if b == a:
        return 0.0, 0.0
    edges = np.linspace(a, b, initial + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err, stacked = _panels(f, lo, hi)
    pick = slice(None) if stacked else 0
    while True:
        total, total_err = val.sum(axis=1), err.sum(axis=1)
        tol = rel_tol * np.abs(total)
        open_ = total_err > tol
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        split = (err[open_] > tol[open_, None] / len(lo)).any(axis=0)
        split &= (lo < mid) & (mid < hi)
        if not split.any() or len(lo) + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                (f"quadrature budget of {_MAX_PANELS} panels exhausted"
                 if split.any() else "all panels reached floating-point width "
                 "before meeting the tolerance")
                + f" (achieved error estimate {total_err.max():.3e})",
                estimate=total_err[pick], value=total[pick])
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        v2, e2, _ = _panels(f, new_lo, new_hi)
        change = 0.5 * np.abs(val[:, split] - v2[:, :split.sum()] - v2[:, split.sum():])
        change[change < 0.05 * err[:, split]] = 0.0
        e2 = np.maximum(e2, np.tile(change, 2))
        keep = ~split
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[:, keep], v2), axis=1)
        err = np.concatenate((err[:, keep], e2), axis=1)
    return total[pick], total_err[pick]
