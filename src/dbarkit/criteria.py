"""Desk-scale acceptance criteria, shared by pytest and the CLI.

Each criterion checks one headline property of the toolkit at a pinned
tolerance and returns a :class:`CriterionResult` carrying a row table (the
artifact the ``reproduce`` command writes) and the list of failures, empty on
success.  The ``reproduce`` command and ``tests/test_acceptance.py`` both run
these functions, so the command-line suite and the test suite cannot drift
apart.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ball2d import (
    ball_hs_partial_sum,
    ball_kernel_closed,
    ball_kernel_series,
    ball_moment_log,
    ball_moment_quadrature,
    form_energy,
    form_energy_from_moments,
)
from .solver import (
    HolomorphicCoeffs,
    apply_solution_operator,
    dbar_residual,
    defect_norm_quadrature,
    defect_norm_sq,
    kernel_eval,
    monomial_inner_product,
    reproduce_check,
    space_norm_sq,
)
from .spectrum import (
    Verdict,
    classify,
    eigenvalue,
    hs_partial_sum,
    stirling_surrogate,
)
from .weights import (
    CustomRadial,
    DiscPolynomial,
    FockExponential,
    MomentSequence,
    moment_quadrature,
)
from .weights_nd import PshWeight, check_hilbert_schmidt_hypotheses, conjugate_transform

BUILTIN_DISC_ALPHAS = (0.0, 1.0, 2.5)
BUILTIN_FOCK_MS = (2.0, 3.0, 4.0)
DEFAULT_SEED = 20240811


def builtin_weights():
    return tuple(DiscPolynomial(a) for a in BUILTIN_DISC_ALPHAS) + \
        tuple(FockExponential(m) for m in BUILTIN_FOCK_MS)


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    rows: list
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" ({len(self.failures)} failure(s))"
        return f"{status}: {self.cid} -- {self.title}{extra} [{self.elapsed:.2f}s]"


class _Report:
    """The rows and failures of one criterion run."""

    def __init__(self):
        self.rows, self.failures = [], []

    def add(self, ok: bool, failure: str, **row) -> None:
        """Append ``row`` with its pass flag; record ``failure`` unless ok."""
        self.rows.append({**row, "pass": ok})
        if not ok:
            self.failures.append(failure)


#: The criteria by id, in the order ``reproduce`` runs them.
CRITERIA = {}


def _criterion(cid: str, title: str):
    """Register ``body(seed, report)`` as the criterion ``cid``."""
    def register(body):
        @functools.wraps(body)
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            t0 = time.perf_counter()
            report = _Report()
            body(seed, report)
            return CriterionResult(cid, title, not report.failures, report.rows,
                                   report.failures, time.perf_counter() - t0)
        CRITERIA[cid] = run
        return run
    return register


def _random_poly(rng, max_degree: int) -> HolomorphicCoeffs:
    d = int(rng.integers(0, max_degree + 1))
    coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return HolomorphicCoeffs(coeffs)


def _disc_points(rng, count: int, radius: float):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * th)


@_criterion("telescoping", "partial sums telescope to the moment ratio")
def criterion_telescoping(seed, report):
    """Partial eigenvalue sums equal the moment ratio r_N to 1e-10 relative."""
    checkpoints = (10, 100, 1000, 10000)
    for w in builtin_weights():
        ms = MomentSequence(w)
        sums = np.cumsum(eigenvalue(ms, np.arange(checkpoints[-1] + 1)))
        for n in checkpoints:
            total = float(sums[n])
            r = ms.ratio(n)
            dev = abs(total - r) / max(1.0, r)
            report.add(dev <= 1e-10, f"{w.label} N={n}: deviation {dev:.3e}",
                       weight=w.label, N=n, partial_sum=total, ratio=r, deviation=dev)


@_criterion("disc-hilbert-schmidt", "disc weights are always Hilbert-Schmidt")
def criterion_disc_hs(seed, report):
    """Every disc weight classifies Hilbert-Schmidt with partial sums -> 1."""
    for alpha in BUILTIN_DISC_ALPHAS:
        ms = MomentSequence(DiscPolynomial(alpha))
        c = classify(ms)
        s = hs_partial_sum(ms, 10000)
        dev = abs(s - 1.0)
        ok = c.verdict is Verdict.HILBERT_SCHMIDT and dev <= 2e-3
        report.add(ok, f"alpha={alpha}: verdict {c.verdict.value}, gap {dev:.3e}",
                   alpha=alpha, verdict=c.verdict.value, partial_sum_1e4=s,
                   gap_to_limit=dev)


@_criterion("fock2-flat-isometry", "Gaussian weight: unit spectrum and isometry")
def criterion_fock2_flat_isometry(seed, report):
    """m=2: flat unit spectrum, S*S = identity on inputs, non-compact."""
    ms = MomentSequence(FockExponential(2.0))
    flat_dev = float(np.max(np.abs(eigenvalue(ms, np.arange(1, 10001)) - 1.0)))
    report.add(flat_dev <= 1e-12, f"flatness deviation {flat_dev:.3e}",
               check="lambda_flatness", value=flat_dev, tolerance=1e-12)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = _random_poly(rng, 30)
        if f.degree < 0:
            f = HolomorphicCoeffs([1.0])
        ratio = defect_norm_sq(f, 1.0, ms) / space_norm_sq(f, ms)
        worst = max(worst, abs(ratio - 1.0))
    report.add(worst <= 1e-10, f"isometry deviation {worst:.3e}",
               check="isometry_ratio", value=worst, tolerance=1e-10)

    c = classify(ms)
    ok = c.verdict is Verdict.NON_COMPACT
    report.add(ok, f"verdict {c.verdict.value}, expected NonCompact",
               check="classification", value=c.verdict.value, tolerance="NonCompact")


@_criterion("fock-trichotomy", "eigenvalue trichotomy across the exponential weights")
def criterion_fock_trichotomy(seed, report):
    """The eigenvalue limit splits at m = 2; m = 4 is compact, not HS."""
    v = FockExponential(1.0).eigenvalue(10000)
    report.add(v > 1e3, f"m=1 eigenvalue {v:.4g} not above 1e3",
               check="m1_diverges", value=v, tolerance="> 1e3")

    v = FockExponential(4.0).eigenvalue(10000)
    report.add(v < 1e-2, f"m=4 eigenvalue {v:.4g} not below 1e-2",
               check="m4_vanishes", value=v, tolerance="< 1e-2")

    k = np.arange(1000, 10001)
    sur = stirling_surrogate(4.0, k)
    worst = float(np.max(np.abs(FockExponential(4.0).eigenvalue(k) - sur) / sur))
    report.add(worst <= 0.01, f"surrogate disagreement {worst:.3e}",
               check="m4_surrogate_agreement", value=worst, tolerance=0.01)

    ms = MomentSequence(FockExponential(4.0))
    c = classify(ms)
    s = hs_partial_sum(ms, 10000)
    ok = c.verdict is Verdict.COMPACT_NOT_HILBERT_SCHMIDT and s > 50.0
    report.add(ok, f"m=4: verdict {c.verdict.value}, partial sum {s:.2f}",
               check="m4_classification", value=f"{c.verdict.value}, sum={s:.2f}",
               tolerance="CompactNotHilbertSchmidt, sum > 50")


@_criterion("ball-divergence", "two-variable ball fails the Hilbert-Schmidt test")
def criterion_ball_divergence(seed, report):
    """C^2 ball: closed-form energies check out, double sum diverges."""
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        for sigma in range(1, 51):
            for n1 in range(sigma + 1):
                n2 = sigma - n1
                for direction in (1, 2):
                    if (n1 if direction == 1 else n2) < 1:
                        continue
                    fe = form_energy(alpha, n1, n2, direction)
                    fm = form_energy_from_moments(alpha, n1, n2, direction)
                    worst = max(worst, abs(fe - fm) / fe)
    report.add(worst <= 1e-12, f"energy identity deviation {worst:.3e}",
               check="energy_identity", value=worst, tolerance=1e-12)

    sums = {N: ball_hs_partial_sum(0.0, N) for N in (50, 100, 150, 200)}
    increasing = all(sums[a] < sums[b] for a, b in ((50, 100), (100, 150), (150, 200)))
    growth = sums[200] - sums[100]
    ok = increasing and growth >= 0.5
    for N, s in sums.items():
        report.add(True, "", check=f"partial_sum_N{N}", value=s, tolerance="")
    report.add(ok, f"ball partial sums: growth {growth:.3g}, increasing={increasing}",
               check="growth_100_to_200", value=growth, tolerance=">= 0.5")

    # kernel series against its closed form at an interior point pair
    z = (0.3 + 0.2j, -0.4j)
    w = (0.1 - 0.5j, 0.3 + 0.3j)
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        s = ball_kernel_series(alpha, z, w, rel_tol=1e-12)
        c = ball_kernel_closed(alpha, z, w)
        worst = max(worst, abs(s - c) / abs(c))
    report.add(worst <= 1e-10, f"ball kernel series deviation {worst:.3e}",
               check="kernel_series_vs_closed", value=worst, tolerance=1e-10)


@_criterion("solver-exactness", "solution operator: exact d-bar and orthogonality")
def criterion_solver_exactness(seed, report):
    """Structural identities of S(f) on random polynomial inputs."""
    rng = np.random.default_rng(seed)
    for w in builtin_weights():
        ms = MomentSequence(w)
        worst_orth = 0.0
        worst_dbar = 0.0
        conj_ok = True
        for _ in range(50):
            f = _random_poly(rng, 30)
            F = apply_solution_operator(f, ms)
            if F.conj_factor.coeffs != f.coeffs:
                conj_ok = False
            norm_f = math.sqrt(space_norm_sq(f, ms))
            for j in range(f.degree + 3):
                ip = monomial_inner_product(F, j, ms)
                worst_orth = max(worst_orth, abs(ip) / max(norm_f, 1e-300))
            pts = _disc_points(rng, 100, 2.0)
            fmax = float(np.max(np.abs(f(pts)))) if f.degree >= 0 else 0.0
            res = dbar_residual(F, f, pts)
            worst_dbar = max(worst_dbar, res / max(1.0, fmax))
        ok = conj_ok and worst_orth <= 1e-12 and worst_dbar <= 1e-6
        report.add(ok, f"{w.label}: conj={conj_ok}, orth={worst_orth:.3e}, "
                   f"dbar={worst_dbar:.3e}", weight=w.label, conj_factor_exact=conj_ok,
                   orthogonality=worst_orth, dbar_residual=worst_dbar)


@_criterion("norm-identity-quadrature", "defect norm identity against 2-D quadrature")
def criterion_norm_identity(seed, report):
    """Coefficient norm identity vs 2-D quadrature at 1e-8 relative."""
    rng = np.random.default_rng(seed)
    for m in (2.0, 4.0):
        ms = MomentSequence(FockExponential(m))
        for rho in (0.5, 0.9):
            polys = [HolomorphicCoeffs([1.0]), HolomorphicCoeffs([0.0, 1.0])]
            for _ in range(3):
                d = int(rng.integers(0, 6))
                polys.append(HolomorphicCoeffs(
                    rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)))
            worst = 0.0
            for f in polys:
                formula = defect_norm_sq(f, rho, ms)
                quad = defect_norm_quadrature(f, rho, ms, rel_tol=1e-10)
                worst = max(worst, abs(quad - formula) / formula)
            report.add(worst <= 1e-8, f"m={m} rho={rho}: deviation {worst:.3e}",
                       m=m, rho=rho, max_rel_dev=worst, tolerance=1e-8)


@_criterion("oracle-equivalence", "closed forms agree with the quadrature oracle")
def criterion_oracle_equivalence(seed, report):
    """Closed-form moments against the quadrature oracle; log-convexity."""
    specs = [DiscPolynomial(a) for a in (0.0, 0.5, 1.0, 3.0)] + \
        [FockExponential(m) for m in BUILTIN_FOCK_MS]
    for w in specs:
        worst = 0.0
        for n in range(51):
            worst = max(worst, abs(w.log_moment(n) - moment_quadrature(w, n)))
        report.add(worst <= 1e-9, f"{w.label}: oracle deviation {worst:.3e}",
                   check=f"1d_oracle:{w.label}", value=worst, tolerance=1e-9)

    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        for sigma in range(11):
            for n1 in range(sigma + 1):
                worst = max(worst, abs(
                    ball_moment_log(alpha, n1, sigma - n1)
                    - ball_moment_quadrature(alpha, n1, sigma - n1)))
    report.add(worst <= 1e-9, f"ball oracle deviation {worst:.3e}",
               check="ball_oracle", value=worst, tolerance=1e-9)

    for w in builtin_weights():
        ms = MomentSequence(w)
        defect = ms.log_convexity_defect(10000)
        report.add(defect <= 1e-12, f"{w.label}: convexity defect {defect:.3e}",
                   check=f"log_convexity:{w.label}", value=defect, tolerance=1e-12)
    custom = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
    ms = MomentSequence(custom)
    defect = ms.log_convexity_defect(30)
    ok = defect <= 1e-9  # quadrature-backed logs carry the oracle tolerance
    report.add(ok, f"custom: convexity defect {defect:.3e}",
               check="log_convexity:custom", value=defect, tolerance=1e-9)


@_criterion("reproducing-property", "kernel quadrature reproduces f(z)")
def criterion_reproducing(seed, report):
    """The kernel integral reproduces holomorphic inputs pointwise."""
    cases = [
        ("disc:alpha=0", MomentSequence(DiscPolynomial(0.0)),
         HolomorphicCoeffs([1.0]), 0.3 + 0.1j),
        ("disc:alpha=1", MomentSequence(DiscPolynomial(1.0)),
         HolomorphicCoeffs([0.0, 1.0]), 0.5 + 0.0j),
        ("fock:m=2", MomentSequence(FockExponential(2.0)),
         HolomorphicCoeffs([0.0, 0.0, 1.0]), 1.0 + 0.5j),
    ]
    for label, ms, f, z in cases:
        got = reproduce_check(ms, f, z, rel_tol=1e-8)
        want = f(z)
        dev = abs(got - want) / max(abs(want), 1e-300)
        report.add(dev <= 1e-6, f"{label} at z={z}: deviation {dev:.3e}", weight=label,
                   check="reproduce", z=str(z), expected=str(want), got=str(got),
                   rel_dev=dev)

    # kernel point values against closed forms (the reproducing integral
    # takes only the series' first deg f + 1 coefficients; here the whole
    # series is summed by the public evaluator)
    ms_f = MomentSequence(FockExponential(2.0))
    ms_d = MomentSequence(DiscPolynomial(0.0))
    kernel_cases = [
        ("fock:m=2", ms_f, 1.0 + 0.0j, 1.0 + 0.0j, math.e / math.pi),
        ("fock:m=2", ms_f, 0.0j, 0.0j, 1.0 / math.pi),
        ("disc:alpha=0", ms_d, 0.5 + 0.0j, 0.5 + 0.0j, 16.0 / (9.0 * math.pi)),
    ]
    for label, ms, z, w, want in kernel_cases:
        got = kernel_eval(ms, z, w, rel_tol=1e-10)
        dev = abs(got - want) / abs(want)
        ok = dev <= 1e-9
        report.add(ok, f"kernel {label} at z={z}: deviation {dev:.3e}", weight=label,
                   check="kernel_eval", z=str(z), expected=str(want), got=str(got),
                   rel_dev=dev)


@_criterion("psh-hypotheses", "several-variables weight hypothesis checks")
def criterion_psh_hypotheses(seed, report):
    """Hypothesis checker on |z|^2 (passes) and |z| (fails growth)."""
    # these rows carry their detail after the pass flag
    def add(ok, failure, weight, check, detail):
        report.add(ok, failure, weight=weight, check=check)
        report.rows[-1]["detail"] = detail

    gauss = PshWeight(1, lambda z: float(np.sum(np.abs(z) ** 2)))
    for c in check_hilbert_schmidt_hypotheses(gauss, 1.0, 2.0).checks:
        add(c.passed, f"|z|^2 failed {c.name}: {c.detail}", "|z|^2", c.name, c.detail)

    worst = 0.0
    for w in (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j):
        got = conjugate_transform(gauss, [w])
        want = abs(w) ** 2 / 4.0
        dev = abs(got - want)
        worst = max(worst, dev)
        add(dev <= 1e-3, f"p*({w}) off by {dev:.3e}", "|z|^2", f"conjugate_at_{w}",
            f"p*={got:.6g}, |w|^2/4={want:.6g}")

    linear = PshWeight(1, lambda z: float(np.sum(np.abs(z))))
    growth = check_hilbert_schmidt_hypotheses(linear, 1.0, 2.0).check("superlinear_growth")
    add(not growth.passed, "|z| unexpectedly passed the superlinear growth check",
        "|z|", "superlinear_growth_fails", growth.detail)


def run_criteria(only: str | None = None, seed: int = DEFAULT_SEED):
    """Run all criteria (or one) and return the list of results."""
    if only is not None:
        if only not in CRITERIA:
            raise KeyError(f"unknown criterion {only!r}; known: {sorted(CRITERIA)}")
        return [CRITERIA[only](seed=seed)]
    return [fn(seed=seed) for fn in CRITERIA.values()]
