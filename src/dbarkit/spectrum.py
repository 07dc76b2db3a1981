"""Diagonal spectrum of S*S and its Hilbert-Schmidt / compactness verdicts.

On a radial weight the composition S*S of the canonical solution operator
with its adjoint is diagonal on the normalized monomials u_n = z^n / c_n,
with eigenvalues

    lambda_0 = c_1^2 / c_0^2,
    lambda_n = c_{n+1}^2 / c_n^2 - c_n^2 / c_{n-1}^2     (n >= 1).

The partial sums of the lambdas telescope to the moment ratio r_N =
c_{N+1}^2 / c_N^2, which makes r_N simultaneously the N-th Hilbert-Schmidt
partial sum: the operator is Hilbert-Schmidt exactly when r_n stays bounded,
and compact exactly when lambda_n tends to zero.

Eigenvalues are formed as r_{n-1} * expm1(ln r_n - ln r_{n-1}); the increment
is produced by the cancellation-free log-gamma second difference for the
exponential weights, and the disc weights use their exact rational form.
Naive subtraction of the two ratios would lose the lambda = 1 flatness of the
m = 2 case already near n = 10^3.

``eigenvalue`` and ``stirling_surrogate`` take an index or an integer ndarray
of indices; ``diagnostics``, ``classify`` and ``hs_partial_sum`` make one
array pass over their indices, and partial sums are ``np.cumsum``, which
adds in ascending n.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError, check_index, float_or_array
from .weights import MomentSequence

#: Fitted decay exponents above this value count as "lambda_n -> 0".
P_DECAY = 0.05
#: Fitted decay exponents above this value count as "sum lambda_n converges".
P_SUMMABLE = 1.25
#: A tail window of lambda_n below this counts as decayed, and a relative
#: drift of r_n below it as a settled limit.
EPS_ZERO = 1e-3
#: Moment ratios r_n at or above this count as unbounded.
BIG = 1e6


class Verdict(str, Enum):
    HILBERT_SCHMIDT = "HilbertSchmidt"
    COMPACT_NOT_HILBERT_SCHMIDT = "CompactNotHilbertSchmidt"
    NON_COMPACT = "NonCompact"


@dataclass(frozen=True)
class ClassificationEvidence:
    """Numbers the verdict was read off from; callers judge for themselves."""

    tail_window: tuple[int, int]
    lambda_tail_max: float
    lambda_tail_min: float
    ratio_tail: float
    ratio_drift: float
    decay_exponent: float


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    evidence: ClassificationEvidence

    def __str__(self) -> str:  # pragma: no cover
        e = self.evidence
        return (f"{self.verdict.value} (window {e.tail_window}, "
                f"lambda in [{e.lambda_tail_min:.3e}, {e.lambda_tail_max:.3e}], "
                f"ratio {e.ratio_tail:.6g}, drift {e.ratio_drift:.3e}, "
                f"decay exponent {e.decay_exponent:.3g})")


@dataclass(frozen=True)
class SpectralDiagnostics:
    """Arrays of lambda_n, r_n and partial sums, plus the verdict."""

    weight: object
    lambdas: np.ndarray
    ratios: np.ndarray
    partial_sums: np.ndarray
    classification: Classification | None


def stirling_surrogate(m: float, k):
    """((2k+2)/m)^(2/m) - ((2k)/m)^(2/m), the large-k stand-in for lambda_k.

    Shares the limit behavior of the exp(-|z|^m) eigenvalues (Stirling), and
    is exact for m = 2.
    """
    k = check_index(k, "k", 1)
    if not (math.isfinite(m) and m > 0.0):
        raise ParameterDomainError(f"m must be positive, got {m!r}")
    e = 2.0 / m
    return float_or_array(np.power((2.0 * k + 2.0) / m, e)
                          - np.power((2.0 * k) / m, e))


def eigenvalue(moments: MomentSequence, n):
    """lambda_n of S*S: the weight's closed form where it has one, else
    r_{n-1} * expm1(ln r_n - ln r_{n-1}) from the cached moments."""
    n = check_index(n, "n")
    if moments.weight.eigenvalue is not None:
        return moments.weight.eigenvalue(n)
    prev = np.maximum(n - 1, 0)
    lr_prev = moments.log_ratio(prev)
    step = moments.ratio(prev) * np.expm1(moments.log_ratio(n) - lr_prev)
    return float_or_array(np.where(n == 0, moments.ratio(0), step))


def hs_partial_sum(moments: MomentSequence, N: int) -> float:
    """sum_{n=0}^{N} lambda_n, accumulated in ascending n order.

    Telescopes to the moment ratio r_N = c_{N+1}^2 / c_N^2.
    """
    lams = eigenvalue(moments, np.arange(check_index(N, "N") + 1))
    return float(np.cumsum(lams)[-1])


def _decay_exponent(lam_first: float, lam_last: float, n_first: int,
                    n_last: int) -> float:
    """Power-law exponent p with lambda ~ n^(-p) fitted through two samples."""
    floor = 1e-300
    if lam_last <= floor:
        return math.inf if lam_first > floor else 0.0
    if lam_first <= floor:
        return -math.inf
    return math.log(lam_first / lam_last) / math.log(n_last / n_first)


def classify(moments: MomentSequence, tail_start: int = 1000,
             tail_len: int = 1000) -> Classification:
    """Classify the operator from the tail behavior of lambda_n and r_n.

    The mathematical criteria are: Hilbert-Schmidt iff r_n stays bounded,
    compact iff lambda_n -> 0.  Over a finite window [tail_start,
    tail_start + tail_len] these are read off as follows:

    * ``lambda_n`` is judged decaying to zero when its fitted power-law
      exponent exceeds ``P_DECAY`` or the whole window already sits below
      ``EPS_ZERO``; otherwise the verdict is NonCompact.
    * Among decaying spectra, r_n is judged to have a finite limit when it
      stays below ``BIG`` and either its relative drift over the window is
      below ``EPS_ZERO`` or the decay exponent exceeds ``P_SUMMABLE`` (so the
      remaining tail sum is finite); the verdict is then HilbertSchmidt, and
      CompactNotHilbertSchmidt otherwise.

    A window can only ever give evidence, not proof: decays slower than
    n^(-P_DECAY) (weights just beyond the compactness boundary) are reported
    NonCompact at desk scale.  The evidence record accompanies every verdict
    so callers can judge; the thresholds are the module constants above.
    """
    a = check_index(tail_start, "tail_start", 1)
    b = a + check_index(tail_len, "tail_len", 10)

    samples = np.unique(np.linspace(a, b, min(65, b - a + 1)).astype(int))
    lams = eigenvalue(moments, samples)
    ratios = moments.ratio(samples)

    lam_max = float(lams.max())
    lam_min = float(lams.min())
    r_sup = float(ratios.max())
    r_a = float(ratios[0])
    r_b = float(ratios[-1])
    drift = abs(r_b - r_a) / max(1.0, abs(r_b))
    p = _decay_exponent(float(lams[0]), float(lams[-1]), a, b)

    evidence = ClassificationEvidence(
        tail_window=(a, b), lambda_tail_max=lam_max, lambda_tail_min=lam_min,
        ratio_tail=r_b, ratio_drift=drift, decay_exponent=p)

    decaying = lam_max < EPS_ZERO or p >= P_DECAY
    if not decaying:
        return Classification(Verdict.NON_COMPACT, evidence)
    if r_sup < BIG and (drift < EPS_ZERO or p > P_SUMMABLE):
        return Classification(Verdict.HILBERT_SCHMIDT, evidence)
    return Classification(Verdict.COMPACT_NOT_HILBERT_SCHMIDT, evidence)


def diagnostics(moments: MomentSequence, n_max: int) -> SpectralDiagnostics:
    """Tabulate lambda_n, r_n and partial sums for n <= n_max.

    The classification window is fitted into [n_max // 2, n_max]; when that
    leaves fewer than 10 indices the classification is omitted.
    """
    n_max = check_index(n_max, "n_max")
    n = np.arange(n_max + 1)
    lams = eigenvalue(moments, n)
    ratios = moments.ratio(n)
    sums = np.cumsum(lams)  # sequential, in ascending n

    tail_start = max(1, n_max // 2)
    tail_len = n_max - tail_start
    classification = None
    if tail_len >= 10:
        classification = classify(moments, tail_start=tail_start, tail_len=tail_len)
    return SpectralDiagnostics(weight=moments.weight, lambdas=lams,
                               ratios=ratios, partial_sums=sums,
                               classification=classification)
