"""The C^2 unit-ball example: moments, energies, divergence, kernel."""

import math
import time

import numpy as np
import pytest

from dbarkit.ball2d import (
    BallMomentGrid,
    ball_hs_partial_sum,
    ball_kernel_closed,
    ball_kernel_series,
    ball_moment_log,
    ball_moment_quadrature,
    form_energy,
    form_energy_from_moments,
)
from dbarkit.errors import (
    ConvergenceDomainError,
    ParameterDomainError,
    SeriesTruncationError,
    UnrepresentableError,
)
from dbarkit.solver import kernel_eval
from dbarkit.weights import DiscPolynomial, MomentSequence

PI2 = math.pi ** 2


class TestMoments:
    def test_base_values(self):
        assert ball_moment_log(0.0, 0, 0) == pytest.approx(math.log(PI2 / 2), rel=1e-14)
        assert ball_moment_log(0.0, 1, 0) == pytest.approx(math.log(PI2 / 6), rel=1e-14)

    def test_symmetry_of_formula(self):
        for alpha in (0.0, 1.0, 2.5):
            for n1, n2 in ((0, 3), (2, 5), (7, 1)):
                assert ball_moment_log(alpha, n1, n2) == \
                    ball_moment_log(alpha, n2, n1)

    def test_grid_matches_termwise(self):
        g = BallMomentGrid.build(2.0, 40)
        for n1 in range(0, 41, 8):
            for n2 in range(0, 41, 8):
                assert g.log_moment(n1, n2) == ball_moment_log(2.0, n1, n2)

    def test_grid_is_the_closed_form_on_index_arrays(self):
        for alpha, n_max in ((0.0, 0), (0.5, 17), (2.0, 40), (7.3, 120)):
            n = np.arange(n_max + 1)
            want = ball_moment_log(alpha, n[:, None], n[None, :])
            assert np.array_equal(BallMomentGrid.build(alpha, n_max).log_moments, want)
            assert want[n_max, 0] == ball_moment_log(alpha, n_max, 0)

    def test_grid_exact_symmetry(self):
        g = BallMomentGrid.build(1.5, 30)
        assert np.array_equal(g.log_moments, g.log_moments.T)

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomainError):
            ball_moment_log(-0.1, 0, 0)


class TestFormEnergy:
    def test_examples(self):
        assert form_energy(0.0, 1, 1, 1) == pytest.approx(3.0 / 20.0, rel=1e-15)
        assert form_energy(0.0, 1, 1, 2) == pytest.approx(3.0 / 20.0, rel=1e-15)
        assert form_energy(1.0, 2, 0, 1) == pytest.approx(0.1, rel=1e-15)

    def test_direction_swap(self):
        for alpha in (0.0, 2.0):
            assert form_energy(alpha, 3, 1, 1) == form_energy(alpha, 1, 3, 2)

    def test_against_moment_route(self):
        worst = 0.0
        for alpha in (0.0, 1.0, 2.0):
            for sigma in range(1, 51):
                for n1 in range(1, sigma + 1):
                    n2 = sigma - n1
                    fe = form_energy(alpha, n1, n2, 1)
                    fm = form_energy_from_moments(alpha, n1, n2, 1)
                    worst = max(worst, abs(fe - fm) / fe)
        assert worst <= 1e-12

    def test_against_raw_log_differences(self):
        # ratios formed from stored log moments carry eps * |log| noise, so
        # the tolerance here is looser than the compensated route above
        alpha = 1.0
        g = BallMomentGrid.build(alpha, 30)
        for n1 in range(1, 29):
            for n2 in range(0, 29 - n1):
                r1 = math.exp(g.log_moment(n1 + 1, n2) - g.log_moment(n1, n2))
                r0 = math.exp(g.log_moment(n1, n2) - g.log_moment(n1 - 1, n2))
                assert form_energy(alpha, n1, n2, 1) == pytest.approx(
                    r1 - r0, rel=1e-10)

    def test_direction_domain(self):
        with pytest.raises(ParameterDomainError):
            form_energy(0.0, 1, 1, 3)


class TestPartialSums:
    def test_single_cell(self):
        assert ball_hs_partial_sum(0.0, 1) == pytest.approx(0.3, rel=1e-14)

    def test_empty_sum(self):
        assert ball_hs_partial_sum(0.0, 0) == 0.0

    def test_divergence_profile(self):
        values = {N: ball_hs_partial_sum(0.0, N) for N in (50, 100, 200, 500)}
        assert values[50] < values[100] < values[200] < values[500]
        assert values[200] - values[100] >= 0.5
        # the log-divergent lower envelope: S(N) - 4 ln N keeps growing
        gaps = [values[N] - 4.0 * math.log(N) for N in (50, 100, 200, 500)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestKernel:
    def test_center_value(self):
        for alpha in (0.0, 3.0):
            got = ball_kernel_series(alpha, (0, 0), (0, 0))
            want = (alpha + 1.0) * (alpha + 2.0) / PI2
            assert got == pytest.approx(want, rel=1e-13)
            assert got == pytest.approx(
                math.exp(-ball_moment_log(alpha, 0, 0)), rel=1e-13)

    def test_axis_reduction_to_classical_form(self):
        # z = w = (1/2, 0): the series must match 2/pi^2 (1 - 1/4)^(-3)
        got = ball_kernel_series(0.0, (0.5, 0.0), (0.5, 0.0), rel_tol=1e-12)
        want = 2.0 / PI2 * (4.0 / 3.0) ** 3
        assert got == pytest.approx(want, rel=1e-11)

    def test_series_coefficients_are_reciprocal_moments(self):
        # along the first axis K(x, x) = sum_n x^(2n) / c_{n,0}^2
        alpha = 1.0
        x = 0.4
        want = sum(math.exp(-ball_moment_log(alpha, n, 0)) * x ** (2 * n)
                   for n in range(80))
        got = ball_kernel_series(alpha, (x, 0.0), (x, 0.0), rel_tol=1e-12)
        assert got == pytest.approx(want, rel=1e-11)

    def test_series_matches_closed_form(self):
        z = (0.3 + 0.2j, -0.4j)
        w = (0.1 - 0.5j, 0.3 + 0.3j)
        for alpha in (0.0, 1.0, 2.5):
            s = ball_kernel_series(alpha, z, w, rel_tol=1e-12)
            c = ball_kernel_closed(alpha, z, w)
            assert s == pytest.approx(c, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ConvergenceDomainError):
            ball_kernel_series(0.0, (0.8, 0.7), (0.1, 0.0))

    @pytest.mark.parametrize("kernel", [ball_kernel_series, ball_kernel_closed])
    @pytest.mark.parametrize("z,w", [
        ([0.1], [0.1, 0.2]),             # one coordinate short
        ([0.1, 0.2, 0.9], [0.1, 0.2]),   # one coordinate too many
        ([0.1, math.nan], [0.1, 0.2])])
    def test_malformed_point_is_typed(self, kernel, z, w):
        with pytest.raises(ParameterDomainError, match="2 finite coordinates"):
            kernel(1.0, z, w)

    def test_ill_conditioned_point_is_typed(self):
        # q1 = -q2 = 0.45 gives t = 0, where K is the center value
        x = math.sqrt(0.45)
        got = ball_kernel_series(4.0, (x, x), (x, -x))
        assert got == pytest.approx(5.0 * 6.0 / PI2, rel=1e-13)
        # t = -0.9: the terms sum to (1.9/0.1)^7, about 9e8 times |K|, so
        # their rounding error exceeds the default rel_tol 1e-10
        y = math.sqrt(0.9)
        t0 = time.perf_counter()
        with pytest.raises(UnrepresentableError):
            ball_kernel_series(4.0, (0.0, y), (0.0, -y))
        assert time.perf_counter() - t0 < 1.0

    def test_term_budget_is_typed_and_fast(self):
        # t = 0 and t = 0.9995^2, about 4e4 terms, have values
        for z, w in (((0.7, 0.7), (0.7, -0.7)), ((0.9995, 0.0), (0.9995, 0.0))):
            t0 = time.perf_counter()
            got = ball_kernel_series(1.0, z, w)
            assert got == pytest.approx(ball_kernel_closed(1.0, z, w), rel=1e-12)
            assert time.perf_counter() - t0 < 1.0
        # t = 0.999999^2 needs more than the 10^6 terms of the budget, which
        # the closed-form log ratio tells after the first block
        t0 = time.perf_counter()
        with pytest.raises(SeriesTruncationError):
            ball_kernel_series(1.0, (0.999999, 0.0), (0.999999, 0.0))
        assert time.perf_counter() - t0 < 0.1

    def test_reduces_to_the_disc_kernel(self):
        # 1/c_{sigma,0}^2 = (alpha+1)/pi / c_sigma^2 for the disc weight
        # (1-|z|^2)^(alpha+1), so K_ball(z, w) = (alpha+1)/pi K_disc(t) with
        # t = <z, w>, taken here at the disc points t/sqrt|t| and sqrt|t|
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            alpha = rng.uniform(0.0, 10.0)
            z, w = 0.7 * np.sqrt(rng.uniform(size=(2, 2))) * np.exp(
                2j * np.pi * rng.uniform(size=(2, 2)))
            t = complex(np.vdot(w, z))
            got = ball_kernel_series(alpha, z, w)
            r = math.sqrt(abs(t))
            disc = kernel_eval(MomentSequence(DiscPolynomial(alpha + 1.0)), t / r, r)
            worst = max(worst, abs(got - (alpha + 1.0) / math.pi * disc) / abs(got))
        assert worst <= 3e-11


class TestQuadratureOracle:
    def test_small_orders(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for n1, n2 in ((0, 0), (1, 0), (0, 2), (2, 3)):
                assert abs(ball_moment_quadrature(alpha, n1, n2)
                           - ball_moment_log(alpha, n1, n2)) <= 1e-9

    def test_rel_tol_domain(self):
        with pytest.raises(ParameterDomainError):
            ball_moment_quadrature(0.0, 0, 0, rel_tol=1.0)
