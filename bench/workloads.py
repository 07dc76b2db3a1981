"""The four benchmark workloads: seeded inputs, the operations of one round,
and the check of every operation's output against ``reference``.

A workload is a list of :class:`Op`.  One round runs every op once, in list
order, against a fresh :class:`Round`, so each round pays for its own
``MomentSequence`` cache fills, as every CLI call does.  Ops reach dbarkit
only through ``rd.api``, a table of its public functions that the traced
mode swaps for wrapped ones.

Tolerances are derived from each function's documented accuracy (quadrature
``rel_tol``, kernel ``rel_tol``, log-domain rounding), not from a stored
copy of earlier output; each is stated where it is used.
"""

import cmath
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

EPS = np.finfo(float).eps
WORKLOADS = ("spectrum-large", "custom-quadrature", "solver-kernel",
             "several-variables")


@dataclass
class Op:
    """One timed operation: ``run(rd)`` returns an output, ``check(output)``
    returns the list of ways the output is wrong (empty when correct)."""

    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class CliOutput:
    """Exit code of one CLI call and the file it wrote."""

    rc: int
    path: Path


class Round:
    """Per-round state: the dbarkit table, a scratch directory and the
    round's moment caches, one per weight label."""

    def __init__(self, api, workdir: Path):
        self.api = api
        self.workdir = workdir
        self._moments = {}

    def moments(self, label: str, weight):
        if label not in self._moments:
            self._moments[label] = self.api.MomentSequence(weight)
        return self._moments[label]


class Tally:
    """Counts made inside the callables the benchmark hands to dbarkit
    (densities and psh weights).  Counts only while ``active``."""

    def __init__(self):
        self.active = False
        self.counts = {}

    def add(self, key: str, n: int) -> None:
        if self.active:
            self.counts[key] = self.counts.get(key, 0) + int(n)


def _rel_err(x, y) -> float:
    return abs(x - y) / abs(y)


def build(workload: str, seed: int, api, tally: Tally) -> list:
    """The ops of ``workload`` with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    builder = {"spectrum-large": _spectrum_large,
               "custom-quadrature": _custom_quadrature,
               "solver-kernel": _solver_kernel,
               "several-variables": _several_variables}[workload]
    return builder(rng, api, tally)


# -- spectrum-large ------------------------------------------------------------
#
# `dbarkit spectrum` through cli.main at ~10^5 indices.  Only closed forms are
# involved, so special, weights (closed-form route), spectrum and the CLI's
# CSV rendering do all the work and quadrature none.

SPECTRUM_WEIGHTS = (("fock", 3.0), ("fock", 2.0), ("disc", 1.0))
SPECTRUM_SAMPLES = 64


def _spectrum_large(rng, api, tally):
    n_max = 100_000 + int(rng.integers(0, 1000))
    samples = sorted({0, 1, 2, n_max,
                      *map(int, rng.integers(3, n_max, SPECTRUM_SAMPLES))})
    ops = []
    for family, param in SPECTRUM_WEIGHTS:
        spec = f"{family}:{'m' if family == 'fock' else 'alpha'}={param:g}"
        fname = f"spectrum-{family}-{param:g}.csv"

        def run(rd, spec=spec, fname=fname):
            path = rd.workdir / fname
            rc = rd.api.cli_main(["spectrum", "--weight", spec, "--n-max",
                                  str(n_max), "--out", str(path)])
            return CliOutput(rc, path)

        def check(out, family=family, param=param):
            if out.rc != 0:
                return [f"exit code {out.rc}"]
            return check_spectrum_csv(out.path.read_text(encoding="utf-8"),
                                      family, param, n_max, samples)

        ops.append(Op(f"spectrum {spec}", run, check))
    return ops


def check_spectrum_csv(text: str, family: str, param: float, n_max: int,
                       samples) -> list:
    """Check a `dbarkit spectrum` CSV against the closed forms and mpmath."""
    lines = text.splitlines()
    header = lines[0].split(",")
    want = ["n", "lambda", "partial_sum", "ratio"]
    if family == "fock":
        want.append("stirling_surrogate")
    if header != want:
        return [f"header {header}, expected {want}"]
    body = lines[1:-1]
    if len(body) != n_max + 1:
        return [f"{len(body)} rows, expected {n_max + 1}"]
    table = np.loadtxt(body, delimiter=",", usecols=(0, 1, 2, 3))
    n, lam, psum, ratio = table.T
    fails = []
    if not np.array_equal(n, np.arange(n_max + 1)):
        fails.append("index column is not 0..n_max")

    def flag(what, bad):
        idx = np.flatnonzero(bad)
        if idx.size:
            fails.append(f"{what} wrong at {idx.size} indices, first n={idx[0]}")

    if family == "disc":
        lam_ref = ref.disc_eigenvalues(param, n)
        r_ref = ref.disc_ratios(param, n)
        # spectrum.eigenvalue forms r_{n-1} * expm1(ln r_n - ln r_{n-1}) from
        # log ratios ln(n+1) - ln(n+alpha+2) that are accurate to a few ulp
        # of the logs, so lambda_n is good to ~7 ulp(ln(n+alpha+2)) times
        # r_{n-1} in absolute terms (its relative error grows like n^2).
        r_prev = np.concatenate(([1.0], r_ref[:-1]))
        ulp_log = np.spacing(np.maximum(np.log(n + param + 2.0), 1.0))
        flag("lambda", np.abs(lam - lam_ref) > 8.0 * r_prev * ulp_log
             + 4.0 * EPS * lam_ref)
        flag("ratio", np.abs(ratio - r_ref) > 1e-13 * r_ref)
    elif param == 2.0:
        # m = 2: S*S is the identity and r_n = n + 1, flat to 1e-12
        flag("lambda (m=2 flatness)", np.abs(lam - 1.0) > 1e-12)
        flag("ratio (m=2: n+1)", np.abs(ratio - (n + 1.0)) > 1e-13 * (n + 1.0))

    # mpmath eigenvalues (Fock; the disc bound above covers every index),
    # ratios, partial sums and surrogates at the samples
    for k in samples:
        lam_k = float(ref.mp_eigenvalue(family, param, k))
        r_k = float(ref.mp_ratio(family, param, k))
        if family == "fock" and _rel_err(lam[k], lam_k) > 1e-12:
            fails.append(f"lambda_{k} = {lam[k]!r}, mpmath {lam_k!r}")
        if _rel_err(ratio[k], r_k) > 1e-13:
            fails.append(f"r_{k} = {ratio[k]!r}, mpmath {r_k!r}")
        if _rel_err(psum[k], r_k) > 1e-10:
            fails.append(f"partial sum {k} = {psum[k]!r}, mpmath r_{k} {r_k!r}")
        if family == "fock" and k >= 1:
            s_k = float(body[k].split(",")[4])
            s_ref = float(ref.stirling_surrogate(param, k))
            # a difference of two powers: a few ulp of the larger one
            top = ((2.0 * k + 2.0) / param) ** (2.0 / param)
            if abs(s_k - s_ref) > 4.0 * np.spacing(top) + 1e-12 * abs(s_ref):
                fails.append(f"stirling_surrogate_{k} = {s_k!r}, mpmath {s_ref!r}")

    # telescoping: sum_{n<=N} lambda_n = r_N at every N
    flag("telescoping partial sum", np.abs(psum - ratio) > 1e-10 * np.abs(ratio))
    # the partial sums accumulate the printed lambdas in ascending order, so
    # consecutive sums differ by lambda_n up to the rounding of the sum
    flag("partial-sum increment",
         np.abs(np.diff(psum) - lam[1:]) > 4.0 * np.spacing(psum[1:]))

    footer = lines[-1].split(",")
    verdict = ref.paper_verdict(family, param)
    window = f"window={max(1, n_max // 2)}..{n_max}"
    if footer[:3] != ["classification", verdict, window]:
        fails.append(f"classification {footer[:3]}, expected {verdict} {window}")
    return fails


# -- custom-quadrature -----------------------------------------------------------
#
# CustomRadial densities, for which quadrature is the only route: quadrature
# and the quadrature route of weights do nearly all the work, special almost
# none.  Each density carries a seeded positive scale c, which moves every
# moment by ln c and leaves the work unchanged.

# below order 216, where r^(2n+1) overflows before exp(-r^4) underflows and
# moment_quadrature reports a false DivergenceError
EXP4_ORDER = 200
# one op per order n <= 50, over all four weights: 51 ops of a few ms whose
# cost grows smoothly with n, so the median op is a mid-order one
ORACLE_WEIGHTS = (("disc", 0.0), ("disc", 1.0), ("fock", 2.0), ("fock", 3.0))
ORACLE_MAX_ORDER = 50
# moment_quadrature runs at rel_tol 1e-10, so ln c_n^2 is good to ~1e-10
LOG_MOMENT_TOL = 1e-9


def _log_moment_fails(what, logs, ref_logs, tol=LOG_MOMENT_TOL):
    logs = np.asarray(logs)
    if logs.shape != np.shape(ref_logs):
        return [f"{what}: {logs.shape[0]} moments, expected {len(ref_logs)}"]
    bad = np.flatnonzero(np.abs(logs - ref_logs) > tol)
    return [f"{what}: ln c_n^2 wrong at n={bad[0]} ({logs[bad[0]]!r} vs "
            f"{ref_logs[bad[0]]!r})"] if bad.size else []


def _custom_quadrature(rng, api, tally):
    c_disc, c_exp, c_div = rng.uniform(0.5, 2.0, 3)

    def disc_density(r):
        tally.add("weights.density_points", np.size(r))
        return c_disc * (1.0 - r * r)

    def exp4_density(r):
        tally.add("weights.density_points", np.size(r))
        return c_exp * np.exp(-r ** 4)

    def divergent_density(r):
        tally.add("weights.density_points", np.size(r))
        return c_div / (1.0 + r) ** 2

    def run_classify(rd):
        ms = rd.api.MomentSequence(rd.api.CustomRadial(disc_density, 1.0))
        c = rd.api.classify(ms)
        return {"verdict": c.verdict.value, "window": c.evidence.tail_window,
                "lambda_tail_max": c.evidence.lambda_tail_max,
                "lambda_tail_min": c.evidence.lambda_tail_min,
                "ratio_tail": c.evidence.ratio_tail,
                "log_moments": ms.log_moments}

    def check_classify(out):
        # c (1 - r^2) is c times the disc weight with alpha = 1
        a, b = out["window"]
        n = np.arange(len(out["log_moments"]))
        logs = math.log(math.pi * c_disc) - np.log(n + 1.0) - np.log(n + 2.0)
        fails = _log_moment_fails("c(1-r^2)", out["log_moments"], logs)
        if (a, b) != (1000, 2000):
            fails.append(f"classification window {(a, b)}, expected (1000, 2000)")
        if out["verdict"] != ref.paper_verdict("disc", 1.0):
            fails.append(f"verdict {out['verdict']}, expected HilbertSchmidt")
        # lambda is decreasing, so the window's max and min sit at its ends;
        # moments good to 1e-10 put ~4e-10 * r_n (r_n < 1) of absolute error
        # on lambda_n; allow ten times that
        lam_ref = ref.disc_eigenvalues(1.0, np.array([a, b]))
        for key, lr in (("lambda_tail_max", lam_ref[0]),
                        ("lambda_tail_min", lam_ref[1])):
            if abs(out[key] - lr) > 4e-9:
                fails.append(f"{key} = {out[key]!r}, expected {lr!r}")
        r_b = float(ref.disc_ratios(1.0, b))
        if _rel_err(out["ratio_tail"], r_b) > 1e-9:
            fails.append(f"ratio_tail = {out['ratio_tail']!r}, expected {r_b!r}")
        return fails

    def run_exp4(rd):
        ms = rd.api.MomentSequence(rd.api.CustomRadial(exp4_density))
        ms.ensure(EXP4_ORDER)
        return ms.log_moments

    def check_exp4(out):
        # c exp(-r^4) has c_n^2 = c (pi/2) Gamma((n+1)/2)
        logs = [math.log(c_exp) + ref.fock_log_moment(4.0, k)
                for k in range(EXP4_ORDER + 1)]
        return _log_moment_fails("c exp(-r^4)", out, logs)

    def run_divergent(rd):
        try:
            value = rd.api.moment_quadrature(
                rd.api.CustomRadial(divergent_density), 0)
        except rd.api.DivergenceError as exc:
            return {"raised": "DivergenceError", "order": exc.order}
        return {"raised": None, "value": value}

    def check_divergent(out):
        # 2 pi c int r/(1+r)^2 dr diverges logarithmically
        if out["raised"] != "DivergenceError" or out["order"] != 0:
            return [f"c/(1+r)^2 at order 0 gave {out}, expected DivergenceError"]
        return []

    big = [Op("classify c(1-r^2)", run_classify, check_classify),
           Op("ensure c exp(-r^4)", run_exp4, check_exp4),
           Op("divergent c/(1+r)^2", run_divergent, check_divergent)]

    oracle = [(api.DiscPolynomial(p) if f == "disc" else api.FockExponential(p),
               ref.disc_log_moment if f == "disc" else ref.fock_log_moment, p)
              for f, p in ORACLE_WEIGHTS]
    small = []
    for k in range(ORACLE_MAX_ORDER + 1):
        def run(rd, k=k):
            return [rd.api.moment_quadrature(weight, k) for weight, _, _ in oracle]

        def check(out, k=k):
            return _log_moment_fails(f"moment_quadrature n={k}", out,
                                     [log_ref(p, k) for _, log_ref, p in oracle])

        small.append(Op(f"moment_quadrature n={k}", run, check))
    # a third of the orders (n = i mod 3) after each of the three long ops,
    # so the short ops, where the median op lies, are timed at three places
    # in every round rather than in one stretch at its end
    ops = []
    for i, op in enumerate(big):
        ops += [op] + small[i::len(big)]
    return ops


# -- solver-kernel ----------------------------------------------------------------
#
# Many small calls, each reading the moment cache once per coefficient:
# per-call overhead in solver, spectrum.eigenvalue and MomentSequence.log_ratio
# shows here and nowhere else.

SOLVER_WEIGHTS = (("disc", 0.0), ("disc", 1.0), ("fock", 2.0), ("fock", 4.0))
POLYS_PER_WEIGHT = 8
# c_n^2 of exp(-|z|^2) is pi n!, which leaves the double range at n = 171
DEGREE = 100
LOW_DEGREE = 10          # reproduce_check accepts degree <= 10
LOW_POLYS_PER_WEIGHT = 2
RESIDUAL_POINTS = 16
# defect_norm_quadrature and reproduce_check get a fixed rho and |z|, because
# both set the quadrature's work; the seed draws coefficients and phases
LOW_RHO = 0.8
REPRODUCE_ABS_Z = {"disc": 0.5, "fock": 1.2}
# |z wbar| of the kernel points, which alone sets the series' term count, so
# the seed draws only phases.  The largest is the cap: |z|, |w| <= 0.9 on the
# disc; 100 for exp(-|z|^2) (K ~ e^100); exp(-|z|^4) has K ~ e^{|z wbar|^2},
# which leaves the double range near |z wbar| = 26.6, so 20 there
KERNEL_Q = {("disc", 0.0): (0.2, 0.4, 0.6, 0.81),
            ("disc", 1.0): (0.2, 0.4, 0.6, 0.81),
            ("fock", 2.0): (10.0, 40.0, 70.0, 100.0),
            ("fock", 4.0): (5.0, 10.0, 15.0, 20.0)}
# kernel_eval sums the series term by term, so its relative rounding error is
# about the condition number K(|q|)/|K(q)| times eps times the term count.
# Points are drawn where that number stays below e^KERNEL_LOG_COND.
KERNEL_LOG_COND = math.log(1e3)


class _SolverReference:
    """mpmath ratios, moments and eigenvalues of one weight up to DEGREE+1."""

    def __init__(self, family, param):
        self.c2 = [ref.mp_moment(family, param, k) for k in range(DEGREE + 2)]
        self.r = [ref.mp_ratio(family, param, k) for k in range(DEGREE + 1)]
        self.lam = [self.r[0]] + [self.r[k] - self.r[k - 1]
                                  for k in range(1, DEGREE + 1)]

    def norm_sq(self, coeffs, rho=1.0, lam=False):
        """sum_k |a_k|^2 c_k^2 rho^(2k) (lambda_k)."""
        total = 0
        for k, a in enumerate(coeffs):
            term = abs(a) ** 2 * self.c2[k] * ref.mp.mpf(rho) ** (2 * k)
            total += term * self.lam[k] if lam else term
        return float(total)


def _kernel_points(rng, family, param):
    """Seeded (z, w) pairs with z wbar = q, |q| from KERNEL_Q, inside the
    kernel's well-conditioned region."""
    pts = []
    for qa in KERNEL_Q[(family, param)]:
        if family == "disc":
            # (|1-q|/(1-|q|))^(alpha+2) <= (1.81/0.19)^3 < 1e3 for |q| <= 0.81
            theta, split = rng.uniform(-math.pi, math.pi), 1.0
        else:
            # condition number ~ exp(|q|^e - Re q^e) with e = m/2
            e = param / 2.0
            cos_lim = max(-1.0, 1.0 - KERNEL_LOG_COND / qa ** e)
            theta = rng.uniform(-1.0, 1.0) * math.acos(cos_lim) / e
            split = rng.uniform(0.5, 2.0)
        phase = 2 * math.pi * rng.uniform()
        z = split * math.sqrt(qa) * cmath.exp(1j * (phase + theta))
        w = math.sqrt(qa) / split * cmath.exp(1j * phase)
        pts.append((z, w))
    return pts


def _random_poly(api, rng, degree):
    a = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return api.HolomorphicCoeffs(a)


def _fd_bound(conj_coeffs, holo_coeffs, pts, h):
    """Error bound of the central-difference Wirtinger derivative of
    zbar g(z) + h(z): truncation h^2/6 times the third derivatives, plus
    rounding of ~eps * sum |terms| divided by h, both with a factor 4."""
    r = np.abs(np.asarray(pts))[:, None]
    kg = np.arange(len(conj_coeffs))
    kh = np.arange(len(holo_coeffs))
    ag = np.abs(np.asarray(conj_coeffs))
    ah = np.abs(np.asarray(holo_coeffs))
    rr = r + h
    size = (np.sum(ag * rr ** (kg + 1), axis=1) + np.sum(ah * rr ** kh, axis=1))
    third = (np.sum(ag * (kg + 1) ** 3 * rr ** np.maximum(kg - 2, 0), axis=1)
             + np.sum(ah * kh ** 3 * rr ** np.maximum(kh - 3, 0), axis=1))
    return float(np.max(4.0 * (h * h / 6.0 * third + EPS * size / h)))


def _solver_kernel(rng, api, tally):
    ops = []
    for family, param in SOLVER_WEIGHTS:
        label = f"{family}:{param:g}"
        weight = (api.DiscPolynomial(param) if family == "disc"
                  else api.FockExponential(param))
        refs = {}

        def reference(family=family, param=param, refs=refs):
            if not refs:
                refs["r"] = _SolverReference(family, param)
            return refs["r"]

        radius = 0.9 if family == "disc" else 1.5
        for _ in range(POLYS_PER_WEIGHT):
            f = _random_poly(api, rng, DEGREE)
            rho = float(rng.uniform(0.5, 0.95))
            pts = (radius * np.sqrt(rng.uniform(size=RESIDUAL_POINTS))
                   * np.exp(2j * math.pi * rng.uniform(size=RESIDUAL_POINTS)))

            def run(rd, f=f, rho=rho, pts=pts, label=label, weight=weight):
                api = rd.api
                ms = rd.moments(label, weight)
                F = api.apply_solution_operator(f, ms)
                return {
                    "conj": F.conj_factor.coeffs, "holo": F.holo_part.coeffs,
                    "norm_sq": api.space_norm_sq(f, ms),
                    "defect_1": api.defect_norm_sq(f, 1.0, ms),
                    "defect_rho": api.defect_norm_sq(f, rho, ms),
                    "inner": [api.monomial_inner_product(F, j, ms)
                              for j in range(f.degree + 2)],
                    "dbar_residual": api.dbar_residual(F, f, pts),
                    "bound": api.bound_constant(ms, f.degree),
                }

            def check(out, f=f, rho=rho, pts=pts, reference=reference,
                      param=param, family=family):
                R = reference()
                a = f.coeffs
                fails = []
                if out["conj"] != a:
                    fails.append("dbar S(f) != f at coefficient level")
                holo_ref = [-a[k] * R.r[k - 1] for k in range(1, len(a))]
                if len(out["holo"]) != len(holo_ref) or any(
                        abs(h - complex(hr)) > 1e-12 * abs(complex(hr))
                        for h, hr in zip(out["holo"], holo_ref)):
                    fails.append("holomorphic part differs from -a_k r_{k-1}")
                nf = R.norm_sq(a)
                for key, want in (("norm_sq", nf),
                                  ("defect_1", R.norm_sq(a, lam=True)),
                                  ("defect_rho", R.norm_sq(a, rho, lam=True))):
                    if _rel_err(out[key], want) > 1e-12:
                        fails.append(f"{key} = {out[key]!r}, mpmath {want!r}")
                if family == "fock" and param == 2.0 and \
                        _rel_err(out["defect_1"], out["norm_sq"]) > 1e-12:
                    fails.append("m=2 isometry ||S f||^2 = ||f||^2 fails")
                for j, ip in enumerate(out["inner"]):
                    # <S f, z^j> = c_j^2 (a_{j+1} r_j + h_j): zero up to the
                    # rounding of the two terms
                    scale = 0.0
                    if j < len(holo_ref):
                        scale = float(R.c2[j] * 2 * abs(a[j + 1]) * R.r[j])
                    if abs(ip) > 1e-12 * scale:
                        fails.append(f"<S f, z^{j}> = {ip!r} is not 0")
                        break
                bound = _fd_bound(a, [complex(h) for h in holo_ref], pts, 1e-5)
                if not 0.0 <= out["dbar_residual"] <= bound:
                    fails.append(f"dbar residual {out['dbar_residual']!r} "
                                 f"exceeds {bound!r}")
                lam_max = float(max(R.lam))
                if _rel_err(out["bound"], lam_max) > 1e-12:
                    fails.append(f"bound_constant {out['bound']!r}, mpmath "
                                 f"{lam_max!r}")
                return fails

            ops.append(Op(f"solver pipeline {label}", run, check))

        for _ in range(LOW_POLYS_PER_WEIGHT):
            g = _random_poly(api, rng, LOW_DEGREE)
            rho = LOW_RHO
            z0 = REPRODUCE_ABS_Z[family] * cmath.exp(2j * math.pi * rng.uniform())

            def run_defect(rd, g=g, rho=rho, label=label, weight=weight):
                return rd.api.defect_norm_quadrature(g, rho, rd.moments(label, weight))

            def check_defect(out, g=g, rho=rho, reference=reference):
                # defect_norm_quadrature integrates at rel_tol 1e-10
                want = reference().norm_sq(g.coeffs, rho, lam=True)
                if _rel_err(out, want) > 1e-8:
                    return [f"defect_norm_quadrature {out!r}, mpmath {want!r}"]
                return []

            def run_reproduce(rd, g=g, z0=z0, label=label, weight=weight):
                return rd.api.reproduce_check(rd.moments(label, weight), g, z0)

            def check_reproduce(out, g=g, z0=z0):
                # the reproducing integral runs at rel_tol 1e-8
                want = complex(ref.mp.polyval(list(reversed(g.coeffs)), z0))
                scale = sum(abs(c) * abs(z0) ** k for k, c in enumerate(g.coeffs))
                if abs(out - want) > 1e-6 * scale:
                    return [f"reproduce_check {out!r}, f(z) = {want!r}"]
                return []

            ops.append(Op(f"defect_norm_quadrature {label}", run_defect, check_defect))
            ops.append(Op(f"reproduce_check {label}", run_reproduce, check_reproduce))

        for z, w in _kernel_points(rng, family, param):
            def run_kernel(rd, z=z, w=w, label=label, weight=weight):
                return rd.api.kernel_eval(rd.moments(label, weight), z, w)

            def check_kernel(out, z=z, w=w, family=family, param=param):
                q = z * w.conjugate()
                want = (ref.disc_kernel(param, q) if family == "disc"
                        else ref.fock_kernel(param, q))
                if _rel_err(out, want) > 1e-9:
                    return [f"K({z}, {w}) = {out!r}, closed form {want!r}"]
                return []

            ops.append(Op(f"kernel_eval {label}", run_kernel, check_kernel))
    return ops


# -- several-variables ------------------------------------------------------------
#
# ball2d and weights_nd, which do all their work here and none elsewhere.

BALL_ALPHA = 1.0
BALL_N = 300
FORM_PAIRS = 200
BALL_KERNEL_POINTS = 6
# small sigma = n1 + n2, fixed because the indices set the nested
# quadrature's work
BALL_QUAD_PAIRS = ((0, 0), (1, 0), (0, 2), (2, 1))
PSH_POINTS = 4
PSH_GRID_2D = 16        # the default 64 means 64^4 points in dimension 2
_NUM = r"[-+0-9.eE]+|inf|nan"


def _detail_numbers(detail: str) -> list:
    """The numbers a hypothesis report prints after the colon of a detail."""
    return [float(x) for x in re.findall(_NUM, detail.split(":", 1)[1])]


def _several_variables(rng, api, tally):
    # fixed, because alpha sets the kernel series' term count
    alpha = BALL_ALPHA

    def square(z):
        z = np.asarray(z)
        tally.add("weights_nd.weight_points", z.shape[0] if z.ndim == 2 else 1)
        return np.sum(np.abs(z) ** 2, axis=-1)

    def square_scalar(z):
        tally.add("weights_nd.weight_points", 1)
        return float(np.sum(np.abs(z) ** 2))

    def modulus_scalar(z):
        tally.add("weights_nd.weight_points", 1)
        return float(np.sum(np.abs(z)))

    def run_grid(rd):
        return rd.api.BallMomentGrid.build(alpha, BALL_N).log_moments

    def check_grid(out):
        n1, n2 = np.meshgrid(np.arange(BALL_N + 1), np.arange(BALL_N + 1),
                             indexing="ij")
        want = np.vectorize(lambda a, b: ref.ball_log_moment(alpha, a, b))(n1, n2)
        # the grid accumulates n1 + n2 + 2 logs; allow 4 ulp of |ln c^2| each
        tol = 4.0 * (n1 + n2 + 3) * np.spacing(np.maximum(np.abs(want), 1.0))
        fails = []
        if out.shape != want.shape:
            return [f"ball grid shape {out.shape}"]
        bad = np.argwhere(np.abs(out - want) > tol)
        if bad.size:
            i, j = bad[0]
            fails.append(f"ball ln c^2({i},{j}) = {out[i, j]!r}, expected {want[i, j]!r}")
        if not np.array_equal(out, out.T):
            fails.append("ball moment grid is not symmetric")
        return fails

    def run_hs(rd):
        return rd.api.ball_hs_partial_sum(alpha, BALL_N)

    def check_hs(out):
        want = float(ref.ball_hs_partial_sum(alpha, BALL_N))
        return [] if _rel_err(out, want) <= 1e-12 else \
            [f"ball HS partial sum {out!r}, expected {want!r}"]

    pairs = [tuple(map(int, p)) for p in rng.integers(1, 201, (FORM_PAIRS, 2))]

    def run_forms(rd):
        return [(rd.api.form_energy(alpha, a, b, d),
                 rd.api.form_energy_from_moments(alpha, a, b, d))
                for a, b in pairs for d in (1, 2)]

    def check_forms(out):
        fails = []
        for (closed, moments), (a, b, d) in zip(
                out, [(a, b, d) for a, b in pairs for d in (1, 2)]):
            want = float(ref.ball_form_energy(alpha, a, b, d))
            if _rel_err(closed, want) > 1e-14 or _rel_err(moments, want) > 1e-13:
                fails.append(f"form energy ({a},{b}) dir {d}: {closed!r}, "
                             f"{moments!r}, expected {want!r}")
                break
        return fails

    ops = [Op("ball grid", run_grid, check_grid),
           Op("ball hs partial sum", run_hs, check_hs),
           Op("ball form energies", run_forms, check_forms)]

    # |z_i| = |w_i| = 0.8/sqrt(2): the same term count for every seed
    kernel_points = [tuple(0.8 / math.sqrt(2) * np.exp(2j * math.pi * rng.uniform(size=2))
                           for _ in range(2)) for _ in range(BALL_KERNEL_POINTS)]

    def run_kernels(rd):
        return [rd.api.ball_kernel_series(alpha, z, w) for z, w in kernel_points]

    def check_kernels(out):
        for value, (z, w) in zip(out, kernel_points):
            want = ref.ball_kernel(alpha, z, w)
            if _rel_err(value, want) > 1e-9:
                return [f"ball kernel at {z}, {w}: {value!r}, closed form {want!r}"]
        return []

    ops.append(Op("ball kernel series", run_kernels, check_kernels))

    for n1, n2 in BALL_QUAD_PAIRS:

        def run_quad(rd, n1=n1, n2=n2):
            return rd.api.ball_moment_quadrature(alpha, n1, n2)

        def check_quad(out, n1=n1, n2=n2):
            return _log_moment_fails(f"ball ({n1},{n2})", [out],
                                     [ref.ball_log_moment(alpha, n1, n2)])

        ops.append(Op("ball moment quadrature", run_quad, check_quad))

    hypotheses = (
        ("|z|^2 dim 1, scalar p", 1, square_scalar, {}, True),
        ("|z|^2 dim 2, batched p", 2, square, {"grid": PSH_GRID_2D}, True),
        ("|z| dim 1, scalar p", 1, modulus_scalar, {}, False),
    )
    for what, dim, p, kw, superlinear in hypotheses:
        def run_hyp(rd, dim=dim, p=p, kw=kw):
            report = rd.api.check_hilbert_schmidt_hypotheses(
                rd.api.PshWeight(dim, p), 1.0, 2.0, **kw)
            return {c.name: (c.passed, c.detail) for c in report.checks}

        def check_hyp(checks, what=what, dim=dim, superlinear=superlinear, kw=kw):
            want = {"conjugate_finite": True, "superlinear_growth": superlinear,
                    "shift_ratio_to_one": True, "integrability": True}
            fails = [f"{what}: {name} passed={checks[name][0]}, expected {v}"
                     for name, v in want.items() if checks[name][0] != v]
            if fails:
                return fails
            # int exp(-p) over C^dim: pi^dim for |z|^2, 2 pi for |z| (dim 1);
            # the report prints 6 significant digits
            integral = math.pi ** dim if superlinear else 2 * math.pi
            if any(_rel_err(v, integral) > 1e-5
                   for v in _detail_numbers(checks["integrability"][1])):
                fails.append(f"{what}: integrability estimate, expected {integral!r}")
            if superlinear:
                # p*(w) = |w|^2/4 at the probes |w| = 1/2, within the grid
                # resolution: search radius 12, so a final spacing of
                # 24/(grid-1)/64 and a quadratic error below dim * spacing^2
                h = 24.0 / (kw.get("grid", 64) - 1) / 64.0
                if any(abs(v - 0.0625) > dim * h * h + 5e-7
                       for v in _detail_numbers(checks["conjugate_finite"][1])):
                    fails.append(f"{what}: p* at the probes, expected 0.0625")
            return fails

        ops.append(Op(f"hypotheses {what}", run_hyp, check_hyp))

    batched = api.PshWeight(1, square)
    conj_points = [4.0 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                   for _ in range(PSH_POINTS)]
    shift_points = [8.0 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                    for _ in range(PSH_POINTS)]

    def run_conj(rd):
        return [rd.api.conjugate_transform(batched, [w]) for w in conj_points]

    def check_conj(out):
        for value, w in zip(out, conj_points):
            # default grid 64 over radius R = 8(1+|w|), two zoom rounds of /8:
            # final spacing 2R/63/64 and a quadratic error below spacing^2
            h = 16.0 * (1.0 + abs(w)) / 63.0 / 64.0
            want = ref.conjugate_of_square([w])
            if abs(value - want) > h * h:
                return [f"p*({w}) = {value!r}, expected |w|^2/4 = {want!r}"]
        return []

    def run_shift(rd):
        return [rd.api.sup_shift(batched, [z]) for z in shift_points]

    def check_shift(out):
        for value, z in zip(out, shift_points):
            # default grid 64 over the unit ball, two zoom rounds of /8: the
            # angular miss of the boundary maximum is below the final spacing
            # 2/63/64, costing at most (|z|+1) * spacing^2
            h = 2.0 / 63.0 / 64.0
            want = ref.sup_shift_of_square([z])
            if abs(value - want) > (abs(z) + 1.0) * h * h * 4.0:
                return [f"p~({z}) = {value!r}, expected (|z|+1)^2 = {want!r}"]
        return []

    ops.append(Op("conjugate_transform", run_conj, check_conj))
    ops.append(Op("sup_shift", run_shift, check_shift))
    return ops
