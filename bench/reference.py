"""Reference values computed apart from dbarkit.

Every formula here is a closed form from the theory (Beta and Gamma
integrals, geometric and exponential series), evaluated with ``mpmath`` at
40 significant digits or with ``math.lgamma``.  Nothing imports dbarkit, and
nothing is read from a stored copy of an earlier output, so a check against
these values cannot inherit a fault of the program.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

HS = "HilbertSchmidt"
COMPACT_NOT_HS = "CompactNotHilbertSchmidt"
NON_COMPACT = "NonCompact"


# -- moments -------------------------------------------------------------------


def disc_log_moment(alpha: float, n: int) -> float:
    """ln c_n^2 for (1-|z|^2)^alpha on the disc: pi * B(n+1, alpha+1)."""
    return (math.log(math.pi) + math.lgamma(n + 1) + math.lgamma(alpha + 1)
            - math.lgamma(n + alpha + 2))


def fock_log_moment(m: float, n: int) -> float:
    """ln c_n^2 for exp(-|z|^m) on the plane: (2 pi / m) Gamma((2n+2)/m)."""
    return math.log(2 * math.pi / m) + math.lgamma((2 * n + 2) / m)


def ball_log_moment(alpha: float, n1: int, n2: int) -> float:
    """ln c_{n1,n2}^2 on the unit ball of C^2:
    pi^2 n1! n2! Gamma(alpha+1) / Gamma(n1+n2+alpha+3)."""
    return (2 * math.log(math.pi) + math.lgamma(n1 + 1) + math.lgamma(n2 + 1)
            + math.lgamma(alpha + 1) - math.lgamma(n1 + n2 + alpha + 3))


def mp_moment(family: str, param: float, n: int) -> mp.mpf:
    """c_n^2 at 40 digits for ``family`` in {"disc", "fock"}."""
    if family == "disc":
        return mp.pi * mp.beta(n + 1, mp.mpf(param) + 1)
    return 2 * mp.pi / param * mp.gamma(mp.mpf(2 * n + 2) / param)


def mp_ratio(family: str, param: float, n: int) -> mp.mpf:
    """r_n = c_{n+1}^2 / c_n^2 at 40 digits."""
    if family == "disc":
        return mp.mpf(n + 1) / (n + mp.mpf(param) + 2)
    s = mp.mpf(2) / param
    y = mp.mpf(2 * n + 2) / param
    return mp.exp(mp.loggamma(y + s) - mp.loggamma(y))


def mp_eigenvalue(family: str, param: float, n: int) -> mp.mpf:
    """lambda_n of S*S: r_0 for n = 0, r_n - r_{n-1} after."""
    if n == 0:
        return mp_ratio(family, param, 0)
    return mp_ratio(family, param, n) - mp_ratio(family, param, n - 1)


def paper_verdict(family: str, param: float) -> str:
    """Disc weights are Hilbert-Schmidt; exp(-|z|^m) is non-compact for
    m <= 2 and compact but not Hilbert-Schmidt for m > 2."""
    if family == "disc":
        return HS
    return NON_COMPACT if param <= 2 else COMPACT_NOT_HS


# -- whole spectra with closed forms -------------------------------------------


def disc_eigenvalues(alpha: float, n: np.ndarray) -> np.ndarray:
    """lambda_0 = 1/(alpha+2), lambda_n = (alpha+1)/((n+alpha+1)(n+alpha+2));
    for alpha = 1 these are 1/3 and 2/((n+2)(n+3))."""
    n = np.asarray(n, dtype=float)
    return np.where(n == 0, 1.0 / (alpha + 2.0),
                    (alpha + 1.0) / ((n + alpha + 1.0) * (n + alpha + 2.0)))


def disc_ratios(alpha: float, n: np.ndarray) -> np.ndarray:
    """r_n = (n+1)/(n+alpha+2)."""
    n = np.asarray(n, dtype=float)
    return (n + 1.0) / (n + alpha + 2.0)


def stirling_surrogate(m: float, k: int) -> mp.mpf:
    """((2k+2)/m)^(2/m) - ((2k)/m)^(2/m) at 40 digits."""
    e = mp.mpf(2) / m
    return (mp.mpf(2 * k + 2) / m) ** e - (mp.mpf(2 * k) / m) ** e


# -- reproducing kernels ---------------------------------------------------------


def disc_kernel(alpha: float, q: complex) -> complex:
    """(alpha+1)/pi * (1 - q)^(-(alpha+2)), q = z wbar, |q| < 1."""
    q = mp.mpc(q)
    return complex((alpha + 1) / mp.pi * (1 - q) ** (-(mp.mpf(alpha) + 2)))


def fock_kernel(m: float, q: complex) -> complex:
    """sum_k q^k / c_k^2 for exp(-|z|^m), m in {2, 4}.

    m = 2 gives e^q / pi.  For m = 4, c_k^2 = (pi/2) Gamma((k+1)/2), so the
    sum is (2/pi) E_{1/2,1/2}(q) = (2/pi) (1/sqrt(pi) + q e^{q^2} erfc(-q))
    through E_{a,b}(q) = 1/Gamma(b) + q E_{a,a+b}(q) and
    E_{1/2,1}(q) = e^{q^2} erfc(-q).
    """
    q = mp.mpc(q)
    if m == 2:
        return complex(mp.exp(q) / mp.pi)
    if m == 4:
        return complex(2 / mp.pi * (1 / mp.sqrt(mp.pi)
                                    + q * mp.exp(q * q) * mp.erfc(-q)))
    raise ValueError(f"no closed-form kernel for m = {m}")


def ball_kernel(alpha: float, z, w) -> complex:
    """(alpha+1)(alpha+2)/pi^2 * (1 - <z, w>)^(-(alpha+3)) on the ball of C^2."""
    t = mp.mpc(z[0]) * mp.conj(w[0]) + mp.mpc(z[1]) * mp.conj(w[1])
    a = mp.mpf(alpha)
    return complex((a + 1) * (a + 2) / mp.pi ** 2 * (1 - t) ** (-(a + 3)))


# -- the ball of C^2 ---------------------------------------------------------------


def ball_form_energy(alpha: float, n1: int, n2: int, direction: int) -> mp.mpf:
    """||S(u_{n1,n2} dzbar_direction)||^2 = (alpha+n_other+2) /
    ((alpha+n1+n2+3)(alpha+n1+n2+2))."""
    other = n2 if direction == 1 else n1
    a = mp.mpf(alpha)
    s = a + n1 + n2
    return (a + other + 2) / ((s + 3) * (s + 2))


def ball_hs_partial_sum(alpha: float, N: int) -> mp.mpf:
    """Both direction energies summed over 1 <= n1, n2 <= N, by diagonals:
    the s - 1 or 2N + 1 - s pairs on n1 + n2 = s share (2 alpha + s + 4) /
    ((alpha + s + 3)(alpha + s + 2))."""
    a = mp.mpf(alpha)
    return mp.fsum(min(s - 1, 2 * N + 1 - s) * (2 * a + s + 4)
                   / ((a + s + 3) * (a + s + 2)) for s in range(2, 2 * N + 1))


# -- plurisubharmonic weights ------------------------------------------------------


def conjugate_of_square(w) -> float:
    """p*(w) = |w|^2 / 4 for p(z) = |z|^2."""
    return float(np.sum(np.abs(np.asarray(w)) ** 2)) / 4.0


def sup_shift_of_square(z) -> float:
    """p~(z) = (|z| + 1)^2 for p(z) = |z|^2."""
    return (float(np.linalg.norm(np.asarray(z))) + 1.0) ** 2
