"""The solution operator: coefficient algebra and its quadrature oracles."""

import cmath
import math
import time

import mpmath as mp
import numpy as np
import pytest

from dbarkit.errors import (
    ConvergenceDomainError,
    DbarKitError,
    ParameterDomainError,
    UnrepresentableError,
)
from dbarkit.solver import (
    HolomorphicCoeffs,
    HybridFunction,
    apply_solution_operator,
    bound_constant,
    dbar_residual,
    defect_norm_quadrature,
    defect_norm_sq,
    kernel_eval,
    monomial_inner_product,
    project_dilated,
    reproduce_check,
    space_norm_sq,
)
from dbarkit.weights import (
    CustomRadial,
    DiscPolynomial,
    FockExponential,
    MomentSequence,
)


@pytest.fixture(scope="module")
def disc0():
    return MomentSequence(DiscPolynomial(0.0))


@pytest.fixture(scope="module")
def disc1():
    return MomentSequence(DiscPolynomial(1.0))


@pytest.fixture(scope="module")
def fock2():
    return MomentSequence(FockExponential(2.0))


@pytest.fixture(scope="module")
def fock4():
    return MomentSequence(FockExponential(4.0))


def random_poly(rng, max_degree=30):
    d = int(rng.integers(0, max_degree + 1))
    return HolomorphicCoeffs(rng.standard_normal(d + 1)
                             + 1j * rng.standard_normal(d + 1))


class TestHolomorphicCoeffs:
    def test_trailing_zeros_stripped(self):
        f = HolomorphicCoeffs([1.0, 2.0, 0.0, 0.0])
        assert f.coeffs == (1 + 0j, 2 + 0j)
        assert f.degree == 1

    def test_zero_polynomial(self):
        f = HolomorphicCoeffs([0.0, 0.0])
        assert f.degree == -1
        assert f(0.7 + 0.1j) == 0j

    def test_evaluation(self):
        f = HolomorphicCoeffs([1.0, 0.0, 1.0])  # 1 + z^2
        assert f(2.0j) == pytest.approx(-3.0 + 0j)
        vals = f(np.array([0.0, 1.0, 1.0j]))
        assert vals == pytest.approx(np.array([1.0, 2.0, 0.0]))

    @pytest.mark.parametrize("coeffs", [[math.nan, 1.0], [1.0, complex(0.0, math.inf)]])
    def test_non_finite_coefficients(self, coeffs):
        with pytest.raises(ParameterDomainError, match="finite"):
            HolomorphicCoeffs(coeffs)


class TestApply:
    def test_constant_input(self, fock2):
        # S(1) = zbar: the correction sum is empty
        F = apply_solution_operator(HolomorphicCoeffs([1.0]), fock2)
        assert F.conj_factor.coeffs == (1 + 0j,)
        assert F.holo_part.coeffs == ()
        assert F.value(2.0 + 1.0j) == pytest.approx(2.0 - 1.0j)

    def test_linear_fock(self, fock2):
        # c_1^2/c_0^2 = 1, so S(z) = |z|^2 - 1
        F = apply_solution_operator(HolomorphicCoeffs([0.0, 1.0]), fock2)
        assert F.holo_part.coeffs == pytest.approx((-1 + 0j,))
        assert F.value(1.0j) == pytest.approx(0.0 + 0j)

    def test_linear_disc(self, disc0):
        F = apply_solution_operator(HolomorphicCoeffs([0.0, 1.0]), disc0)
        assert F.holo_part.coeffs == pytest.approx((-0.5 + 0j,))

    def test_conj_factor_identical(self, fock4):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_poly(rng)
            F = apply_solution_operator(f, fock4)
            assert F.conj_factor.coeffs == f.coeffs  # exact, not approx
            assert F.dbar.coeffs == f.coeffs

    def test_overflowing_coefficient_is_typed(self, fock2):
        # a_2 c_2^2 / c_1^2 = 2e308 leaves the double range: an overflow,
        # not a bad input
        with pytest.raises(UnrepresentableError):
            apply_solution_operator(HolomorphicCoeffs([1e308] * 3), fock2)


class TestKernel:
    def test_origin(self, fock2):
        assert kernel_eval(fock2, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_gaussian_exponential(self, fock2):
        # sum q^k / (pi k!) = e^q / pi
        got = kernel_eval(fock2, 1.0, 1.0, rel_tol=1e-12)
        assert got == pytest.approx(math.e / math.pi, rel=1e-11)
        got = kernel_eval(fock2, 1.0 + 0.5j, 0.3 - 0.2j, rel_tol=1e-12)
        q = (1.0 + 0.5j) * (0.3 + 0.2j)
        assert got == pytest.approx(np.exp(q) / math.pi, rel=1e-11)

    def test_disc_closed_form(self, disc0):
        # sum (k+1) q^k / pi = 1 / (pi (1-q)^2)
        got = kernel_eval(disc0, 0.5, 0.5, rel_tol=1e-12)
        assert got == pytest.approx(16.0 / (9.0 * math.pi), rel=1e-11)

    def test_disc_domain(self, disc0):
        with pytest.raises(ConvergenceDomainError):
            kernel_eval(disc0, 1.0, 0.5)
        with pytest.raises(ConvergenceDomainError):
            kernel_eval(disc0, 0.5, 1.2)

    def test_rel_tol_domain(self, disc0):
        with pytest.raises(ParameterDomainError):
            kernel_eval(disc0, 0.1, 0.1, rel_tol=1.0)

    def test_custom_support_domain(self):
        # the point is rejected from the support radius, before any moment
        # quadrature runs
        ms = MomentSequence(CustomRadial(lambda r: np.ones_like(r), 1.0))
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceDomainError):
            kernel_eval(ms, 1.5, 1.5)
        with pytest.raises(ConvergenceDomainError):
            kernel_eval(ms, 0.5, 1.0)
        assert time.perf_counter() - t0 < 1.0

    def test_term_budget(self, disc0, monkeypatch):
        import dbarkit.special as special_mod
        from dbarkit.errors import SeriesTruncationError
        monkeypatch.setattr(special_mod, "_SERIES_TERM_BUDGET", 50)
        with pytest.raises(SeriesTruncationError):
            kernel_eval(disc0, 0.999, 0.999, rel_tol=1e-10)

    def test_boundary_budget_is_typed_and_fast(self):
        # |z wbar| = 1 - 2e-10 needs far more than the 10^6-term budget; the
        # growth x c_k / c_{k+1} can only fall and is still above 1 at the
        # budget's last term, so the series says so after one block (measured
        # 0.5 ms, where summing the budget took 1.7 s)
        from dbarkit.errors import SeriesTruncationError
        for alpha in (0.0, 10.0):
            ms = MomentSequence(DiscPolynomial(alpha))
            t0 = time.perf_counter()
            with pytest.raises(SeriesTruncationError):
                kernel_eval(ms, 0.9999999999, 0.9999999999)
            assert time.perf_counter() - t0 < 0.05
            assert ms.computed_upto < 64  # one block of the moment cache

    def test_log_terms_are_the_running_sum(self, disc1, fock4):
        # the block sums add ln(x c_k / c_{k+1}) in ascending k, bit for bit
        from dbarkit.special import _log_series_terms
        for ms, x in ((disc1, 0.9), (fock4, 15.0), (fock4, 0.0)):
            logs = _log_series_terms(ms.log_moment(0), ms.log_ratio, x)
            log_x = math.log(x) if x else -math.inf
            want = [-ms.log_moment(0)]
            for k in range(len(logs) - 1):
                want.append(want[-1] + (log_x - ms.log_ratio(k)))
            assert logs.tolist() == want

    def test_out_of_range_is_typed_and_fast(self, fock2, fock4):
        # K = e^729 / pi on exp(-|z|^2) and about e^1296 on exp(-|z|^4)
        for ms, z in ((fock2, 27.0), (fock4, 6.0)):
            t0 = time.perf_counter()
            with pytest.raises(UnrepresentableError):
                kernel_eval(ms, z, z)
            assert time.perf_counter() - t0 < 1.0
        # K(0, 0) = 1 / c_0^2 = e^-864 on exp(-|z|^0.01)
        with pytest.raises(UnrepresentableError):
            kernel_eval(MomentSequence(FockExponential(0.01)), 0.0, 0.0)

    def test_cancellation_is_typed(self, fock2):
        # e^q / pi at q = -30, -20 is e^-60, e^-40 of the terms' magnitude
        # sum, far below the eps / rel_tol = 2.2e-6 the default rel_tol allows
        for z in (-30.0, -20.0):
            with pytest.raises(UnrepresentableError):
                kernel_eval(fock2, z, 1.0)

    def test_phase_sweep_against_closed_forms(self, disc0, disc1, fock2, fock4):
        # wherever the condition number K(|q|) / |K(q)| stays below 1e3 the
        # sum must match the closed form far below the default rel_tol
        def closed(ms, q):
            q = mp.mpc(q)
            weight = ms.weight
            if isinstance(weight, DiscPolynomial):
                a = mp.mpf(weight.alpha)
                return (a + 1) / mp.pi * (1 - q) ** (-(a + 2))
            if weight.m == 2.0:
                return mp.exp(q) / mp.pi
            return 2 / mp.pi * (1 / mp.sqrt(mp.pi) + q * mp.exp(q * q) * mp.erfc(-q))

        cases = ((disc0, (0.3, 0.6, 0.9)), (disc1, (0.3, 0.6, 0.9)),
                 (fock2, (1.0, 10.0, 40.0, 100.0)), (fock4, (1.0, 5.0, 10.0, 20.0)))
        with mp.workdps(30):
            for ms, radii in cases:
                for r in radii:
                    for j in range(32):
                        theta = math.pi * (j + 0.5) / 16 - math.pi
                        want = closed(ms, r * cmath.exp(1j * theta))
                        if abs(closed(ms, r)) >= 1e3 * abs(want):
                            continue
                        z = math.sqrt(r) * cmath.exp(1j * theta)
                        got = kernel_eval(ms, z, math.sqrt(r))
                        assert abs(got - want) <= 1e-11 * abs(want), (ms.weight, r, theta)


class TestProjectDilated:
    def test_constant_maps_to_zero(self, fock2):
        out = project_dilated(HolomorphicCoeffs([1.0]), 0.5, fock2)
        assert out.degree == -1

    def test_linear_fock(self, fock2):
        out = project_dilated(HolomorphicCoeffs([0.0, 1.0]), 0.5, fock2)
        assert out.coeffs == pytest.approx((0.5 + 0j,))

    def test_quadratic_disc(self, disc0):
        out = project_dilated(HolomorphicCoeffs([0.0, 0.0, 1.0]), 0.9, disc0)
        assert out.coeffs == pytest.approx((0j, 0.81 * (2.0 / 3.0) + 0j))

    def test_rho_domain(self, disc0):
        f = HolomorphicCoeffs([1.0])
        for rho in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterDomainError):
                project_dilated(f, rho, disc0)

    def test_overflowing_coefficient_is_typed(self, fock2):
        with pytest.raises(UnrepresentableError):
            project_dilated(HolomorphicCoeffs([1e308] * 3), 0.9, fock2)


class TestDefectNorm:
    def test_constant(self, disc1):
        # |a_0|^2 c_1^2 regardless of rho
        want = math.exp(disc1.log_moment(1))
        for rho in (0.3, 0.8, 1.0):
            got = defect_norm_sq(HolomorphicCoeffs([1.0]), rho, disc1)
            assert got == pytest.approx(want, rel=1e-13)

    def test_linear_fock(self, fock2):
        got = defect_norm_sq(HolomorphicCoeffs([0.0, 1.0]), 1.0, fock2)
        assert got == pytest.approx(math.pi, rel=1e-13)

    def test_linear_disc(self, disc0):
        got = defect_norm_sq(HolomorphicCoeffs([0.0, 1.0]), 1.0, disc0)
        assert got == pytest.approx(math.pi / 12.0, rel=1e-13)

    def test_overflow_is_typed(self, fock2):
        # c_k^2 = pi k! overflows a double from k = 171 on
        f = HolomorphicCoeffs([1.0] * 300)
        with pytest.raises(UnrepresentableError):
            defect_norm_sq(f, 1.0, fock2)
        with pytest.raises(UnrepresentableError):
            space_norm_sq(f, fock2)

    def test_norm_consistency_basis_route(self, fock4):
        # independent accumulation through the basis coordinates b_k = a_k c_k
        from dbarkit.spectrum import eigenvalue
        rng = np.random.default_rng(7)
        f = random_poly(rng, 20)
        direct = defect_norm_sq(f, 1.0, fock4)
        via_basis = 0.0
        for k, a in enumerate(f):
            b = a * math.exp(0.5 * fock4.log_moment(k))
            via_basis += eigenvalue(fock4, k) * abs(b) ** 2
        assert direct == pytest.approx(via_basis, rel=1e-12)

    def test_gaussian_isometry(self, fock2):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_poly(rng)
            ratio = defect_norm_sq(f, 1.0, fock2) / space_norm_sq(f, fock2)
            assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_l2_bound_with_constant_four(self, fock2):
        # the solution obeys ||S(f)||^2 <= 4 ||f||^2; with the isometry the
        # actual constant is 1
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_poly(rng)
            assert defect_norm_sq(f, 1.0, fock2) <= 4.0 * space_norm_sq(f, fock2)

    def test_rho_domain(self, disc0):
        with pytest.raises(ParameterDomainError):
            defect_norm_sq(HolomorphicCoeffs([1.0]), 0.0, disc0)
        with pytest.raises(ParameterDomainError):
            defect_norm_sq(HolomorphicCoeffs([1.0]), 1.2, disc0)

    def test_dilation_bound(self, fock4):
        # defect(f, rho) <= bound_constant * ||f||^2 uniformly in rho
        rng = np.random.default_rng(17)
        for _ in range(5):
            f = random_poly(rng, 15)
            c = bound_constant(fock4, max(f.degree, 1))
            norm2 = space_norm_sq(f, fock4)
            for rho in (0.1, 0.5, 0.9, 1.0):
                assert defect_norm_sq(f, rho, fock4) <= c * norm2 * (1 + 1e-12)


class TestBoundConstant:
    def test_gaussian(self, fock2):
        assert bound_constant(fock2, 100) == pytest.approx(1.0, abs=1e-12)

    def test_disc(self, disc0):
        assert bound_constant(disc0, 100) == pytest.approx(0.5, rel=1e-14)

    def test_fock4(self, fock4):
        want = 1.0 / math.sqrt(math.pi)  # lambda_0 = Gamma(1)/Gamma(1/2)
        assert bound_constant(fock4, 10) == pytest.approx(want, rel=1e-13)
        # and lambda_0 really dominates the first ten eigenvalues
        from dbarkit.spectrum import eigenvalue
        assert all(eigenvalue(fock4, k) <= want for k in range(1, 11))

    def test_domain(self, fock2):
        with pytest.raises(ParameterDomainError):
            bound_constant(fock2, 0)


class TestOrthogonality:
    def test_pure_conjugate_monomial(self, disc0):
        F = HybridFunction(HolomorphicCoeffs([1.0]), HolomorphicCoeffs([]))
        for j in range(5):
            assert monomial_inner_product(F, j, disc0) == 0j

    def test_operator_output_exactly_orthogonal(self, fock2):
        F = apply_solution_operator(HolomorphicCoeffs([0.0, 1.0]), fock2)
        assert monomial_inner_product(F, 0, fock2) == 0j

    def test_seeded_random_inputs(self):
        rng = np.random.default_rng(101)
        for w in (DiscPolynomial(2.0), FockExponential(2.0), FockExponential(4.0)):
            ms = MomentSequence(w)
            for _ in range(10):
                f = random_poly(rng, 30)
                F = apply_solution_operator(f, ms)
                norm_f = math.sqrt(space_norm_sq(f, ms))
                for j in range(f.degree + 3):
                    assert abs(monomial_inner_product(F, j, ms)) <= 1e-12 * norm_f

    def test_general_hybrid_is_not_orthogonal(self, fock2):
        F = HybridFunction(HolomorphicCoeffs([0.0, 1.0]), HolomorphicCoeffs([5.0]))
        assert abs(monomial_inner_product(F, 0, fock2)) > 1.0


class TestDbarResidual:
    def test_zbar_case(self, fock2):
        F = HybridFunction(HolomorphicCoeffs([1.0]), HolomorphicCoeffs([]))
        pts = [0.1 + 0.2j, -1.0j, 2.0, 0.5 - 0.5j]
        assert dbar_residual(F, HolomorphicCoeffs([1.0]), pts) <= 1e-9

    def test_quadratic(self, fock2):
        rng = np.random.default_rng(5)
        pts = 2.0 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
            2j * math.pi * rng.uniform(0, 1, 100))
        f = HolomorphicCoeffs([0.0, 1.0])
        F = apply_solution_operator(f, fock2)
        assert dbar_residual(F, f, pts) <= 1e-6

    def test_seeded_degree_20(self, fock4):
        rng = np.random.default_rng(23)
        pts = 2.0 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
            2j * math.pi * rng.uniform(0, 1, 100))
        f = HolomorphicCoeffs(rng.standard_normal(21) + 1j * rng.standard_normal(21))
        F = apply_solution_operator(f, fock4)
        fmax = float(np.max(np.abs(f(pts))))
        assert dbar_residual(F, f, pts) <= 1e-6 * max(1.0, fmax)

    def test_points_domain(self, fock2):
        F = HybridFunction(HolomorphicCoeffs([1.0]), HolomorphicCoeffs([]))
        with pytest.raises(ParameterDomainError):
            dbar_residual(F, HolomorphicCoeffs([1.0]), [])
        with pytest.raises(ParameterDomainError):
            dbar_residual(F, HolomorphicCoeffs([1.0]), [complex("nan")])


class TestQuadratureOracles:
    def test_defect_quadrature_matches_formula(self, fock4):
        f = HolomorphicCoeffs([0.5, -1.0 + 0.25j, 0.0, 0.75j])
        for rho in (0.5, 0.9):
            quad = defect_norm_quadrature(f, rho, fock4, rel_tol=1e-10)
            formula = defect_norm_sq(f, rho, fock4)
            assert quad == pytest.approx(formula, rel=1e-8)

    def test_defect_quadrature_disc(self, disc1):
        f = HolomorphicCoeffs([1.0, 2.0j])
        quad = defect_norm_quadrature(f, 0.7, disc1, rel_tol=1e-10)
        formula = defect_norm_sq(f, 0.7, disc1)
        assert quad == pytest.approx(formula, rel=1e-8)

    def test_reproduce_constant(self, disc0):
        got = reproduce_check(disc0, HolomorphicCoeffs([1.0]), 0.3 + 0.1j)
        assert got == pytest.approx(1.0 + 0j, rel=1e-6)

    def test_reproduce_linear(self, disc1):
        got = reproduce_check(disc1, HolomorphicCoeffs([0.0, 1.0]), 0.5)
        assert got == pytest.approx(0.5 + 0j, rel=1e-6)

    def test_reproduce_quadratic_fock(self, fock2):
        z = 1.0 + 0.5j
        got = reproduce_check(fock2, HolomorphicCoeffs([0.0, 0.0, 1.0]), z)
        assert got == pytest.approx(z * z, rel=1e-6)

    def test_reproduce_degree_cap(self, disc0):
        with pytest.raises(ParameterDomainError):
            reproduce_check(disc0, HolomorphicCoeffs([0.0] * 11 + [1.0]), 0.1)

    def test_reproduce_domain(self, disc0):
        with pytest.raises(ConvergenceDomainError):
            reproduce_check(disc0, HolomorphicCoeffs([1.0]), 1.5)

    def test_defect_quadrature_peak_past_clamp_is_typed_and_fast(self):
        # c_0^2 = exp(864.4) on exp(-|z|^0.01), whose integrand peaks far past
        # the end of s at r ~ 1e12: the probes refuse before any quadrature
        ms = MomentSequence(FockExponential(0.01))
        t0 = time.perf_counter()
        with pytest.raises(DbarKitError):
            defect_norm_quadrature(HolomorphicCoeffs([1.0]), 0.5, ms)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("weight, z", [(DiscPolynomial(0.0), 0.99),
                                           (DiscPolynomial(5.0), 0.99),
                                           (FockExponential(4.0), 3.0)])
    def test_reproduce_one_near_the_edge(self, weight, z):
        # the kernel's modes past deg f average to exactly 0 on each circle,
        # so none of them can alias onto f = 1, however slowly K decays
        got = reproduce_check(MomentSequence(weight), HolomorphicCoeffs([1.0]), z)
        assert abs(got - 1.0) < 1e-8

    def test_reproduce_degree_10_far_out(self, fock2):
        rng = np.random.default_rng(0)
        f = HolomorphicCoeffs(rng.standard_normal(11) + 1j * rng.standard_normal(11))
        z = 10.0
        scale = sum(abs(a) * z ** k for k, a in enumerate(f))
        assert abs(reproduce_check(fock2, f, z) - f(z)) < 1e-8 * scale

    def test_reproduce_overflow_is_typed(self, fock2):
        # z^10 at |z| = 1e31 is past the double range
        with pytest.raises(UnrepresentableError):
            reproduce_check(fock2, HolomorphicCoeffs([0] * 10 + [1]), 1e31)

    def test_reproduce_at_a_zero_of_a_monomial(self):
        # only the z^10 term is left, and it is 0 at z = 0 whatever c_10^2 is
        f = HolomorphicCoeffs([0] * 10 + [1])
        assert reproduce_check(MomentSequence(FockExponential(0.5)), f, 0) == 0

    def test_defect_quadrature_past_the_linear_scale(self):
        # z^40 on exp(-|z|^0.5): near r = 2e4, where the integrand peaks, the
        # angular mean alone is e^758, past the double range, so it is formed
        # as a log; the norm is 1.457e276
        ms = MomentSequence(FockExponential(0.5))
        f = HolomorphicCoeffs([0] * 40 + [1])
        want = defect_norm_sq(f, 0.5, ms)
        assert defect_norm_quadrature(f, 0.5, ms) == pytest.approx(want, rel=1e-8)

    def test_reproduce_at_a_zero_of_f_is_fast(self):
        # f = z at z = 0: the value must vanish to within rel_tol of the
        # integral of |K f| = r / c_0^2, which is int |w| dmu / c_0^2: 2/3 on
        # the unit disc, Gamma(10) / Gamma(20/3) on exp(-|z|^0.3)
        for weight, floor in ((DiscPolynomial(0.0), 2.0 / 3.0),
                              (FockExponential(0.3),
                               math.exp(math.lgamma(10.0) - math.lgamma(20.0 / 3.0)))):
            t0 = time.perf_counter()
            got = reproduce_check(MomentSequence(weight), HolomorphicCoeffs([0, 1]), 0)
            assert time.perf_counter() - t0 < 1.0
            assert abs(got) <= 1e-8 * floor

    def test_reproduce_where_k_f_underflows_at_the_inner_end(self):
        # near r = 0 the disc's map probes radii 6e-176 and 4e-65, where the
        # integrand of order 3 lies far below the double range: its log still
        # decays outward there, and exp of it counts as 0
        f = HolomorphicCoeffs([0, 0, 0, 1])
        for alpha in (0.0, 2.5):
            got = reproduce_check(MomentSequence(DiscPolynomial(alpha)), f, 0.1)
            assert abs(got - 1e-3) < 1e-14

    def test_oracles_past_the_double_range(self):
        # 1e300 on the disc of radius 1e10: c_0^2 = pi 1e320, and the defect
        # integral passes the double range too; the kernel's coefficient
        # 1/c_1^2 meets the radial integral on a log scale, so K f integrates
        # to f(1) = 1 within rel_tol
        ms = MomentSequence(CustomRadial(lambda r: np.full_like(r, 1e300), 1e10))
        f = HolomorphicCoeffs([0, 1])
        for call in (defect_norm_sq, defect_norm_quadrature):
            with pytest.raises(UnrepresentableError):
                call(f, 0.5, ms)
        assert abs(reproduce_check(ms, f, 1.0) - 1.0) < 1e-8

    def test_reproduce_custom_support_domain(self):
        ms = MomentSequence(CustomRadial(lambda r: np.ones_like(r), 2.0))
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceDomainError):
            reproduce_check(ms, HolomorphicCoeffs([1.0]), 2.5)
        assert time.perf_counter() - t0 < 1.0
