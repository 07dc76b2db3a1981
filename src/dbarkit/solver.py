"""The canonical solution operator on polynomial inputs.

For a holomorphic f(z) = sum a_k z^k the canonical solution of du/dzbar = f
(the solution orthogonal to the holomorphic subspace) is

    S(f)(z) = zbar * f(z) - sum_{k>=1} a_k (c_k^2 / c_{k-1}^2) z^(k-1),

which the toolkit represents structurally as a :class:`HybridFunction`
zbar * g(z) + h(z).  In that representation the equation du/dzbar = f and the
orthogonality <S(f), z^j> = 0 are facts of coefficient algebra, checkable
exactly; pointwise evaluation, finite differences and quadrature are demoted
to oracle roles.

Inputs are finite Taylor polynomials.  They are dense in the spaces at hand
and every formula acts coefficientwise, so desk-scale verification loses
nothing; genuinely infinite expansions are out of scope.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceDomainError,
    ParameterDomainError,
    UnrepresentableError,
    check_index,
    check_rel_tol,
)
from .special import _kernel_series
from .spectrum import eigenvalue
from .weights import MomentSequence, _radial_quad, _scaled


@dataclass(frozen=True)
class HolomorphicCoeffs:
    """Finite Taylor coefficient vector a_0 ... a_d (trailing zeros stripped)."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        if not np.isfinite(cs).all():
            raise ParameterDomainError("Taylor coefficients must be finite")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> complex:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0j

    def __call__(self, z):
        """Evaluate by Horner's rule; accepts scalars or ndarrays."""
        acc = 0j * z
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc

    def __iter__(self):
        return iter(self.coeffs)


@dataclass(frozen=True)
class HybridFunction:
    """zbar * g(z) + h(z) with polynomial g and h.

    The Wirtinger derivative d/dzbar of this expression is g identically, so
    ``conj_factor`` *is* the right-hand side the function solves for.
    """

    conj_factor: HolomorphicCoeffs
    holo_part: HolomorphicCoeffs

    def value(self, z):
        return np.conjugate(z) * self.conj_factor(z) + self.holo_part(z)

    @property
    def dbar(self) -> HolomorphicCoeffs:
        """d/dzbar at coefficient level (exact)."""
        return self.conj_factor


def apply_solution_operator(f: HolomorphicCoeffs,
                            moments: MomentSequence) -> HybridFunction:
    """S(f) as zbar*f(z) + h(z) with h_{k-1} = -a_k c_k^2 / c_{k-1}^2.

    By construction dS(f)/dzbar = f exactly; orthogonality to the holomorphic
    subspace is checked by :func:`monomial_inner_product`.
    """
    h = [-f.coefficient(k) * moments.ratio(k - 1)
         for k in range(1, f.degree + 1)]
    if not np.isfinite(h).all():
        raise UnrepresentableError("a coefficient of S(f) overflows a double")
    return HybridFunction(conj_factor=f, holo_part=HolomorphicCoeffs(h))


def space_norm_sq(f: HolomorphicCoeffs, moments: MomentSequence) -> float:
    """||f||^2 = sum |a_k|^2 c_k^2 in the weighted space."""
    return sum(abs(a) ** 2 * moments.moment(k) for k, a in enumerate(f))


def kernel_eval(moments: MomentSequence, z: complex, w: complex,
                rel_tol: float = 1e-10) -> complex:
    """Reproducing kernel K(z, w) = sum_k (z wbar)^k / c_k^2.

    Summed from log terms until its tail is below 1e-18 of the largest
    term.  ``rel_tol`` bounds the rounding error, eps * sum|term_k| <=
    rel_tol * |K|; past it, or out of the double range, the series raises
    :class:`UnrepresentableError`, and past its term budget
    :class:`SeriesTruncationError`.  For weights of finite support radius R
    both arguments must lie strictly inside the disc of radius R.
    """
    check_rel_tol(rel_tol)
    z = complex(z)
    w = complex(w)
    radius = moments.weight.support_radius
    if not (abs(z) < radius and abs(w) < radius):
        raise ConvergenceDomainError(
            f"kernel series needs |z| < {radius!r} and |w| < {radius!r}, "
            f"got |z|={abs(z)!r}, |w|={abs(w)!r}")
    return _kernel_series(moments.log_moment(0), moments.log_ratio,
                          z * w.conjugate(), rel_tol, "kernel",
                          closed_form=moments.weight.log_ratio)


def project_dilated(f: HolomorphicCoeffs, rho: float,
                    moments: MomentSequence) -> HolomorphicCoeffs:
    """Projection of zbar * f(rho z) back to the holomorphic subspace.

    Coefficient k-1 of the result is a_k (c_k^2 / c_{k-1}^2) rho^k.
    """
    if not (0.0 < rho < 1.0):
        raise ParameterDomainError(f"rho must lie in (0, 1), got {rho!r}")
    out = [f.coefficient(k) * moments.ratio(k - 1) * rho ** k
           for k in range(1, f.degree + 1)]
    if not np.isfinite(out).all():
        raise UnrepresentableError("a projected coefficient overflows a double")
    return HolomorphicCoeffs(out)


def defect_norm_sq(f: HolomorphicCoeffs, rho: float,
                   moments: MomentSequence) -> float:
    """||zbar f_rho - P(zbar f_rho)||^2 = sum_k |a_k|^2 c_k^2 rho^(2k) lambda_k.

    With rho = 1 this is ||S(f)||^2 (the k = 0 term being |a_0|^2 c_1^2).
    """
    if not (0.0 < rho <= 1.0):
        raise ParameterDomainError(f"rho must lie in (0, 1], got {rho!r}")
    lams = eigenvalue(moments, np.arange(f.degree + 1))
    total = 0.0
    for k, a in enumerate(f):
        if a != 0:
            total += abs(a) ** 2 * moments.moment(k) * rho ** (2 * k) * lams[k]
    return float(total)


def bound_constant(moments: MomentSequence, N: int) -> float:
    """max(lambda_0, ..., lambda_N): a computable uniform-bound witness.

    ``defect_norm_sq(f, rho) <= bound_constant(moments, N) * ||f||^2`` for
    every polynomial f of degree <= N and every rho in (0, 1].
    """
    return float(np.max(eigenvalue(moments, np.arange(check_index(N, "N", 1) + 1))))


def monomial_inner_product(F: HybridFunction, j: int,
                           moments: MomentSequence) -> complex:
    """<F, z^j> by coefficient algebra.

    Radial orthogonality leaves exactly two contributions:
    <zbar z^(j+1), z^j> = c_{j+1}^2 and <z^j, z^j> = c_j^2, so

        <F, z^j> = g_{j+1} c_{j+1}^2 + h_j c_j^2
                 = c_j^2 * (g_{j+1} * r_j + h_j),        r_j = c_{j+1}^2/c_j^2.

    The factored form is used on purpose: when F came from
    :func:`apply_solution_operator`, h_j is the float -g_{j+1} * r_j with the
    identical r_j, so the bracket cancels exactly in floating point.
    """
    j = check_index(j, "j")
    g = F.conj_factor.coefficient(j + 1)
    h = F.holo_part.coefficient(j)
    if g == 0 and h == 0:
        return 0j
    return moments.moment(j) * (g * moments.ratio(j) + h)


def dbar_residual(F: HybridFunction, f: HolomorphicCoeffs, points) -> float:
    """max over points of |finite-difference d/dzbar of F  -  f|.

    The Wirtinger derivative (d/dx + i d/dy)/2 is approximated by central
    differences of step h = 1e-5 on the evaluated F; this validates the
    evaluation code against the exact coefficient-level identity.
    """
    h = 1e-5
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ParameterDomainError("points must be a nonempty collection")
    if not np.all(np.isfinite(pts)):
        raise ParameterDomainError("points must be finite")
    wirt = (F.value(pts + h) - F.value(pts - h)
            + 1j * (F.value(pts + 1j * h) - F.value(pts - 1j * h))) / (4.0 * h)
    return float(np.max(np.abs(wirt - f(pts))))


# ---------------------------------------------------------------------------
# quadrature oracles: these re-derive the coefficient identities by numerical
# integration and are intentionally independent of the algebra above.
# ---------------------------------------------------------------------------


def defect_norm_quadrature(f: HolomorphicCoeffs, rho: float,
                           moments: MomentSequence,
                           rel_tol: float = 1e-10) -> float:
    """integral of |zbar f(rho z) - P(zbar f_rho)(z)|^2 dmu by quadrature.

    Radial-angular: the angular mean of the squared difference is exactly
    the sum of its modes' squared moduli (Parseval).  Its log joins the
    weight's log density, so the adaptive radial integral of order 0 keeps
    it on a log scale.  Must agree with :func:`defect_norm_sq`.
    """
    weight = moments.weight
    proj = project_dilated(f, rho, moments)
    # zbar z^k = r^2 z^(k-1), so mode k-1 of the difference at radius r is
    # r^(k-1) (lead_k r^2 - back_k)
    k = np.arange(f.degree + 1)
    lead = np.array(f.coeffs) * rho ** k
    back = np.zeros(len(k), dtype=complex)
    back[1:1 + len(proj.coeffs)] = proj.coeffs

    def log_density(r):  # + ln of the angular mean, by log-sum-exp over modes
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (2.0 * np.log(np.abs(np.multiply.outer(lead, r * r) - back[:, None]))
                    + np.multiply.outer(2.0 * k - 2.0, np.log(r)))
            top = logs.max(axis=0, initial=-np.inf)
            total = top + np.log(np.exp(logs - top).sum(axis=0))
        return weight.log_density(r) + np.where(top == -np.inf, -np.inf, total)

    values, shift = _radial_quad(log_density, weight.support_radius, rel_tol)
    return float(_scaled(values[0], shift[0]))


def reproduce_check(moments: MomentSequence, f: HolomorphicCoeffs, z: complex,
                    rel_tol: float = 1e-8) -> complex:
    """integral of K(z, w) f(w) dmu(w), which must reproduce f(z).

    On the circle |w| = r the angular mean of K(z, w) f(w) is exactly
    sum_k a_k z^k r^(2k) / c_k^2, since the monomials are orthogonal there.
    So the integral is sum_k a_k z^k Q_k / c_k^2, with Q_k = 2 pi int
    r^(2k+1) dmu(r) from one block of the radial integrator at ``rel_tol``
    and ln(1/c_k^2) the kernel series' coefficient, -ln c_0^2 minus the
    running sum of the log ratios: it checks the quadrature against the
    moments the kernel is summed from, to within ``rel_tol`` sum_k |a_k z^k|.
    Restricted to degree <= 10.
    """
    check_rel_tol(rel_tol)
    if f.degree > 10:
        raise ParameterDomainError(
            f"reproduce_check is restricted to degree <= 10, got {f.degree}")
    z = complex(z)
    weight = moments.weight
    if not abs(z) < weight.support_radius:
        raise ConvergenceDomainError(
            f"evaluation point must satisfy |z| < {weight.support_radius!r}, "
            f"got |z|={abs(z)!r}")
    k = np.arange(f.degree + 1)
    log_coeffs = np.cumsum(np.concatenate(
        ([-moments.log_moment(0)], -moments.log_ratio(k[:-1]))))
    values, shift = _radial_quad(weight.log_density, weight.support_radius,
                                 rel_tol, k)
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.sum(np.array(f.coeffs) * z ** k * values
                               * np.exp(shift + log_coeffs)))
    if not np.isfinite(total):
        raise UnrepresentableError("the reproducing integral overflows a double")
    return total
