"""Desk-scale acceptance criteria, shared by pytest and the CLI.

Each criterion checks one headline property of the toolkit at a pinned
tolerance and returns a :class:`CriterionResult` carrying a row table (the
artifact the ``reproduce`` command writes) and the list of failures, empty on
success.  The ``reproduce`` command and ``tests/test_acceptance.py`` both run
these functions, so the command-line suite and the test suite cannot drift
apart.
"""

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
    gamma_ratio_difference,
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


def _random_poly(rng, max_degree: int) -> HolomorphicCoeffs:
    d = int(rng.integers(0, max_degree + 1))
    coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return HolomorphicCoeffs(coeffs)


def _disc_points(rng, count: int, radius: float):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * th)


def criterion_telescoping(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Partial eigenvalue sums equal the moment ratio r_N to 1e-10 relative."""
    t0 = time.perf_counter()
    rows, failures = [], []
    checkpoints = (10, 100, 1000, 10000)
    for w in builtin_weights():
        ms = MomentSequence(w)
        total = 0.0
        next_cp = 0
        for n in range(checkpoints[-1] + 1):
            total += eigenvalue(ms, n)
            if n == checkpoints[next_cp]:
                r = ms.ratio(n)
                dev = abs(total - r) / max(1.0, r)
                ok = dev <= 1e-10
                rows.append({"weight": w.label, "N": n, "partial_sum": total,
                             "ratio": r, "deviation": dev, "pass": ok})
                if not ok:
                    failures.append(f"{w.label} N={n}: deviation {dev:.3e}")
                next_cp += 1
                if next_cp == len(checkpoints):
                    break
    return CriterionResult("telescoping", "partial sums telescope to the moment ratio",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_disc_hs(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Every disc weight classifies Hilbert-Schmidt with partial sums -> 1."""
    t0 = time.perf_counter()
    rows, failures = [], []
    for alpha in BUILTIN_DISC_ALPHAS:
        ms = MomentSequence(DiscPolynomial(alpha))
        c = classify(ms)
        s = hs_partial_sum(ms, 10000)
        dev = abs(s - 1.0)
        ok = c.verdict is Verdict.HILBERT_SCHMIDT and dev <= 2e-3
        rows.append({"alpha": alpha, "verdict": c.verdict.value,
                     "partial_sum_1e4": s, "gap_to_limit": dev, "pass": ok})
        if not ok:
            failures.append(f"alpha={alpha}: verdict {c.verdict.value}, gap {dev:.3e}")
    return CriterionResult("disc-hilbert-schmidt",
                           "disc weights are always Hilbert-Schmidt",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_fock2_flat_isometry(seed: int = DEFAULT_SEED) -> CriterionResult:
    """m=2: flat unit spectrum, S*S = identity on inputs, non-compact."""
    t0 = time.perf_counter()
    rows, failures = [], []
    ms = MomentSequence(FockExponential(2.0))
    flat_dev = max(abs(eigenvalue(ms, n) - 1.0) for n in range(1, 10001))
    ok = flat_dev <= 1e-12
    rows.append({"check": "lambda_flatness", "value": flat_dev,
                 "tolerance": 1e-12, "pass": ok})
    if not ok:
        failures.append(f"flatness deviation {flat_dev:.3e}")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = _random_poly(rng, 30)
        if f.degree < 0:
            f = HolomorphicCoeffs([1.0])
        ratio = defect_norm_sq(f, 1.0, ms) / space_norm_sq(f, ms)
        worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 1e-10
    rows.append({"check": "isometry_ratio", "value": worst,
                 "tolerance": 1e-10, "pass": ok})
    if not ok:
        failures.append(f"isometry deviation {worst:.3e}")

    c = classify(ms)
    ok = c.verdict is Verdict.NON_COMPACT
    rows.append({"check": "classification", "value": c.verdict.value,
                 "tolerance": "NonCompact", "pass": ok})
    if not ok:
        failures.append(f"verdict {c.verdict.value}, expected NonCompact")
    return CriterionResult("fock2-flat-isometry",
                           "Gaussian weight: unit spectrum and isometry",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_fock_trichotomy(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The eigenvalue limit splits at m = 2; m = 4 is compact, not HS."""
    t0 = time.perf_counter()
    rows, failures = [], []

    v = gamma_ratio_difference(1.0, 10000)
    ok = v > 1e3
    rows.append({"check": "m1_diverges", "value": v, "tolerance": "> 1e3", "pass": ok})
    if not ok:
        failures.append(f"m=1 eigenvalue {v:.4g} not above 1e3")

    v = gamma_ratio_difference(4.0, 10000)
    ok = v < 1e-2
    rows.append({"check": "m4_vanishes", "value": v, "tolerance": "< 1e-2", "pass": ok})
    if not ok:
        failures.append(f"m=4 eigenvalue {v:.4g} not below 1e-2")

    worst = 0.0
    for k in range(1000, 10001):
        sur = stirling_surrogate(4.0, k)
        lam = gamma_ratio_difference(4.0, k)
        worst = max(worst, abs(lam - sur) / sur)
    ok = worst <= 0.01
    rows.append({"check": "m4_surrogate_agreement", "value": worst,
                 "tolerance": 0.01, "pass": ok})
    if not ok:
        failures.append(f"surrogate disagreement {worst:.3e}")

    ms = MomentSequence(FockExponential(4.0))
    c = classify(ms)
    s = hs_partial_sum(ms, 10000)
    ok = c.verdict is Verdict.COMPACT_NOT_HILBERT_SCHMIDT and s > 50.0
    rows.append({"check": "m4_classification", "value": f"{c.verdict.value}, sum={s:.2f}",
                 "tolerance": "CompactNotHilbertSchmidt, sum > 50", "pass": ok})
    if not ok:
        failures.append(f"m=4: verdict {c.verdict.value}, partial sum {s:.2f}")
    return CriterionResult("fock-trichotomy",
                           "eigenvalue trichotomy across the exponential weights",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_ball_divergence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """C^2 ball: closed-form energies check out, double sum diverges."""
    t0 = time.perf_counter()
    rows, failures = [], []
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
    ok = worst <= 1e-12
    rows.append({"check": "energy_identity", "value": worst,
                 "tolerance": 1e-12, "pass": ok})
    if not ok:
        failures.append(f"energy identity deviation {worst:.3e}")

    sums = {N: ball_hs_partial_sum(0.0, N) for N in (50, 100, 150, 200)}
    increasing = all(sums[a] < sums[b] for a, b in ((50, 100), (100, 150), (150, 200)))
    growth = sums[200] - sums[100]
    ok = increasing and growth >= 0.5
    for N, s in sums.items():
        rows.append({"check": f"partial_sum_N{N}", "value": s, "tolerance": "", "pass": True})
    rows.append({"check": "growth_100_to_200", "value": growth,
                 "tolerance": ">= 0.5", "pass": ok})
    if not ok:
        failures.append(f"ball partial sums: growth {growth:.3g}, increasing={increasing}")

    # kernel series against its closed form at an interior point pair
    z = (0.3 + 0.2j, -0.4j)
    w = (0.1 - 0.5j, 0.3 + 0.3j)
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        s = ball_kernel_series(alpha, z, w, rel_tol=1e-12)
        c = ball_kernel_closed(alpha, z, w)
        worst = max(worst, abs(s - c) / abs(c))
    ok = worst <= 1e-10
    rows.append({"check": "kernel_series_vs_closed", "value": worst,
                 "tolerance": 1e-10, "pass": ok})
    if not ok:
        failures.append(f"ball kernel series deviation {worst:.3e}")
    return CriterionResult("ball-divergence",
                           "two-variable ball fails the Hilbert-Schmidt test",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_solver_exactness(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Structural identities of S(f) on random polynomial inputs."""
    t0 = time.perf_counter()
    rows, failures = [], []
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
            res = dbar_residual(F, f, pts, h=1e-5)
            worst_dbar = max(worst_dbar, res / max(1.0, fmax))
        ok = conj_ok and worst_orth <= 1e-12 and worst_dbar <= 1e-6
        rows.append({"weight": w.label, "conj_factor_exact": conj_ok,
                     "orthogonality": worst_orth, "dbar_residual": worst_dbar,
                     "pass": ok})
        if not ok:
            failures.append(f"{w.label}: conj={conj_ok}, orth={worst_orth:.3e}, "
                            f"dbar={worst_dbar:.3e}")
    return CriterionResult("solver-exactness",
                           "solution operator: exact d-bar and orthogonality",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_norm_identity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Coefficient norm identity vs 2-D quadrature at 1e-8 relative."""
    t0 = time.perf_counter()
    rows, failures = [], []
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
            ok = worst <= 1e-8
            rows.append({"m": m, "rho": rho, "max_rel_dev": worst,
                         "tolerance": 1e-8, "pass": ok})
            if not ok:
                failures.append(f"m={m} rho={rho}: deviation {worst:.3e}")
    return CriterionResult("norm-identity-quadrature",
                           "defect norm identity against 2-D quadrature",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_oracle_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form moments against the quadrature oracle; log-convexity."""
    t0 = time.perf_counter()
    rows, failures = [], []
    specs = [DiscPolynomial(a) for a in (0.0, 0.5, 1.0, 3.0)] + \
        [FockExponential(m) for m in BUILTIN_FOCK_MS]
    for w in specs:
        worst = 0.0
        for n in range(51):
            worst = max(worst, abs(w.log_moment(n) - moment_quadrature(w, n)))
        ok = worst <= 1e-9
        rows.append({"check": f"1d_oracle:{w.label}", "value": worst,
                     "tolerance": 1e-9, "pass": ok})
        if not ok:
            failures.append(f"{w.label}: oracle deviation {worst:.3e}")

    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        for sigma in range(11):
            for n1 in range(sigma + 1):
                worst = max(worst, abs(
                    ball_moment_log(alpha, n1, sigma - n1)
                    - ball_moment_quadrature(alpha, n1, sigma - n1)))
    ok = worst <= 1e-9
    rows.append({"check": "ball_oracle", "value": worst, "tolerance": 1e-9,
                 "pass": ok})
    if not ok:
        failures.append(f"ball oracle deviation {worst:.3e}")

    for w in builtin_weights():
        ms = MomentSequence(w)
        defect = ms.log_convexity_defect(10000)
        ok = defect <= 1e-12
        rows.append({"check": f"log_convexity:{w.label}", "value": defect,
                     "tolerance": 1e-12, "pass": ok})
        if not ok:
            failures.append(f"{w.label}: convexity defect {defect:.3e}")
    custom = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
    ms = MomentSequence(custom)
    defect = ms.log_convexity_defect(30)
    ok = defect <= 1e-9  # quadrature-backed logs carry the oracle tolerance
    rows.append({"check": "log_convexity:custom", "value": defect,
                 "tolerance": 1e-9, "pass": ok})
    if not ok:
        failures.append(f"custom: convexity defect {defect:.3e}")
    return CriterionResult("oracle-equivalence",
                           "closed forms agree with the quadrature oracle",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_reproducing(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The kernel integral reproduces holomorphic inputs pointwise."""
    t0 = time.perf_counter()
    rows, failures = [], []
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
        ok = dev <= 1e-6
        rows.append({"weight": label, "check": "reproduce", "z": str(z),
                     "expected": str(want), "got": str(got), "rel_dev": dev,
                     "pass": ok})
        if not ok:
            failures.append(f"{label} at z={z}: deviation {dev:.3e}")

    # kernel point values against closed forms (the same series feeds the
    # reproducing integral, but here it is summed by the public evaluator)
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
        rows.append({"weight": label, "check": "kernel_eval", "z": str(z),
                     "expected": str(want), "got": str(got), "rel_dev": dev,
                     "pass": ok})
        if not ok:
            failures.append(f"kernel {label} at z={z}: deviation {dev:.3e}")
    return CriterionResult("reproducing-property",
                           "kernel quadrature reproduces f(z)",
                           not failures, rows, failures, time.perf_counter() - t0)


def criterion_psh_hypotheses(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Hypothesis checker on |z|^2 (passes) and |z| (fails growth)."""
    t0 = time.perf_counter()
    rows, failures = [], []
    gauss = PshWeight(1, lambda z: float(np.sum(np.abs(z) ** 2)))
    report = check_hilbert_schmidt_hypotheses(gauss, 1.0, 2.0)
    for c in report.checks:
        rows.append({"weight": "|z|^2", "check": c.name, "pass": c.passed,
                     "detail": c.detail})
        if not c.passed:
            failures.append(f"|z|^2 failed {c.name}: {c.detail}")

    worst = 0.0
    for w in (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j):
        got = conjugate_transform(gauss, [w])
        want = abs(w) ** 2 / 4.0
        dev = abs(got - want)
        worst = max(worst, dev)
        rows.append({"weight": "|z|^2", "check": f"conjugate_at_{w}",
                     "pass": dev <= 1e-3, "detail": f"p*={got:.6g}, |w|^2/4={want:.6g}"})
        if dev > 1e-3:
            failures.append(f"p*({w}) off by {dev:.3e}")

    linear = PshWeight(1, lambda z: float(np.sum(np.abs(z))))
    report = check_hilbert_schmidt_hypotheses(linear, 1.0, 2.0)
    growth = report.check("superlinear_growth")
    ok = not growth.passed
    rows.append({"weight": "|z|", "check": "superlinear_growth_fails",
                 "pass": ok, "detail": growth.detail})
    if not ok:
        failures.append("|z| unexpectedly passed the superlinear growth check")
    return CriterionResult("psh-hypotheses",
                           "several-variables weight hypothesis checks",
                           not failures, rows, failures, time.perf_counter() - t0)


CRITERIA = {
    "telescoping": criterion_telescoping,
    "disc-hilbert-schmidt": criterion_disc_hs,
    "fock2-flat-isometry": criterion_fock2_flat_isometry,
    "fock-trichotomy": criterion_fock_trichotomy,
    "ball-divergence": criterion_ball_divergence,
    "solver-exactness": criterion_solver_exactness,
    "norm-identity-quadrature": criterion_norm_identity,
    "oracle-equivalence": criterion_oracle_equivalence,
    "reproducing-property": criterion_reproducing,
    "psh-hypotheses": criterion_psh_hypotheses,
}


def run_criteria(only: str | None = None, seed: int = DEFAULT_SEED):
    """Run all criteria (or one) and return the list of results."""
    if only is not None:
        if only not in CRITERIA:
            raise KeyError(f"unknown criterion {only!r}; known: {sorted(CRITERIA)}")
        return [CRITERIA[only](seed=seed)]
    return [fn(seed=seed) for fn in CRITERIA.values()]
