"""Weight specifications, closed-form moments and the quadrature oracle."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from dbarkit import quadrature
from dbarkit.errors import (
    DivergenceError,
    ParameterDomainError,
    QuadratureError,
    UnrepresentableError,
)
from dbarkit.weights import (
    CustomRadial,
    DiscPolynomial,
    FockExponential,
    MomentSequence,
    moment_quadrature,
)

LOG_PI = math.log(math.pi)


class TestClosedForms:
    def test_disc_trivial_area(self):
        # integral of 1 over the unit disc is pi
        assert DiscPolynomial(0.0).log_moment(0) == pytest.approx(LOG_PI, rel=1e-15)

    def test_disc_examples(self):
        disc0, disc1 = DiscPolynomial(0.0), DiscPolynomial(1.0)
        assert disc0.log_moment(1) == pytest.approx(math.log(math.pi / 2), rel=1e-14)
        assert disc0.log_moment(2) == pytest.approx(math.log(math.pi / 3), rel=1e-14)
        assert disc1.log_moment(0) == pytest.approx(math.log(math.pi / 2), rel=1e-14)

    def test_fock_examples(self):
        # c_n^2 = (2 pi / m) Gamma((2n+2)/m); for m = 2 that is pi * n!
        fock2 = FockExponential(2.0)
        assert fock2.log_moment(0) == pytest.approx(LOG_PI, rel=1e-14)
        assert fock2.log_moment(1) == pytest.approx(LOG_PI, rel=1e-14)
        assert fock2.log_moment(3) == pytest.approx(math.log(6 * math.pi), rel=1e-14)
        assert FockExponential(4.0).log_moment(0) == pytest.approx(
            math.log(math.pi ** 1.5 / 2.0), rel=1e-14)

    def test_parameter_domains(self):
        with pytest.raises(ParameterDomainError):
            DiscPolynomial(-0.5).log_moment(0)
        with pytest.raises(ParameterDomainError):
            FockExponential(0.0).log_moment(0)
        with pytest.raises(ParameterDomainError):
            DiscPolynomial(0.0).log_moment(-1)
        with pytest.raises(ParameterDomainError):
            DiscPolynomial(-1.0)
        with pytest.raises(ParameterDomainError):
            FockExponential(-2.0)
        with pytest.raises(ParameterDomainError):
            CustomRadial(lambda r: r, support_radius=0.0)

    def test_disc_eigenvalue_against_mpmath(self):
        # lambda_n = r_n - r_{n-1} with r_n = (n+1)/(n+alpha+2), in 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for alpha in (0.0, 1.0, 2.5, 7.3, 1e200):
                a = mpmath.mpf(alpha)
                w = DiscPolynomial(alpha)
                for n in (0, 1, 2, 7, 100, 999, 12345, 99999, 100000):
                    want = (n + 1) / (n + a + 2) - (n / (n + a + 1) if n else 0)
                    assert abs(w.eigenvalue(n) / want - 1) <= 1e-15

    # the next two pin the worst error measured against 40-digit mpmath
    # references, rounded up by less than a factor of 2
    def test_fock_eigenvalue_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for m in np.linspace(0.5, 7.0, 27):
                w = FockExponential(float(m))
                for n in (0, 1, 2, 3, 5, 10, 33, 100, 314, 999, 1000, 3162,
                          12345, 31623, 54321, 99999, 100000):
                    y, s = mpmath.mpf(2 * n + 2) / w.m, mpmath.mpf(2) / w.m
                    want = mpmath.exp(mpmath.loggamma(y + s) - mpmath.loggamma(y))
                    if n:
                        want -= mpmath.exp(mpmath.loggamma(y)
                                           - mpmath.loggamma(y - s))
                    worst = max(worst, abs(w.eigenvalue(n) / float(want) - 1))
        assert worst <= 8e-15  # measured 5.2e-15

    @staticmethod
    def _disc_log_moment(mpmath, alpha, n):
        # ln c_n^2 = ln pi + ln Gamma(n+1) + ln Gamma(alpha+1) - ln Gamma(alpha+n+2)
        a = mpmath.mpf(alpha)
        return float(mpmath.log(mpmath.pi) + mpmath.loggamma(n + 1)
                     + mpmath.loggamma(a + 1) - mpmath.loggamma(a + n + 2))

    def test_disc_log_moment_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for alpha in (0.0, 0.5, 1.0, 2.5, 7.3, 10.0, 33.3, 100.0):
                w = DiscPolynomial(alpha)
                for n in (0, 1, 2, 7, 50, 100, 999, 2000, 3000):
                    worst = max(worst, abs(w.log_moment(n)
                                           - self._disc_log_moment(mpmath, alpha, n)))
            assert worst <= 2e-13  # measured 1.1e-13
            ref = self._disc_log_moment(mpmath, 0.5, 30000)
            # measured 1.2e-16
            assert abs(DiscPolynomial(0.5).log_moment(30000) - ref) <= 5e-16 * abs(ref)
            # the closed form holds for huge alpha, where ln Gamma(alpha+1) alone
            # is of size 5e202
            ref = float(mpmath.log(mpmath.pi) + mpmath.loggamma(6) - sum(
                mpmath.log(mpmath.mpf(1e200) + j) for j in range(1, 7)))
            assert abs(DiscPolynomial(1e200).log_moment(5) - ref) <= 1e-15 * abs(ref)

    def test_disc_log_moment_at_large_n(self):
        # ln n! and ln Gamma(alpha+n+2) are of size 2.7e7 at n = 2e6, where one
        # ulp is ~4e-9; their difference is taken as one log-gamma ratio
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for alpha in (0.0, 0.5, 1.0, 2.5):
                w = DiscPolynomial(alpha)
                for n in (200_000, 1_000_000, 2_000_000):
                    worst = max(worst, abs(w.log_moment(n)
                                           - self._disc_log_moment(mpmath, alpha, n)))
        assert worst <= 1e-13  # measured 7.1e-15

    def test_disc_log_moment_is_o1(self):
        t0 = time.perf_counter()
        DiscPolynomial(0.5).log_moment(10 ** 6)
        assert time.perf_counter() - t0 < 0.05  # measured 0.2 ms
        assert DiscPolynomial(2.5).log_moment(1) == LOG_PI - math.log(3.5 * 4.5)

    def test_closed_forms_take_index_arrays(self):
        # an index array gives, bit for bit, what the scalar calls give
        n = np.array([0, 1, 2, 7, 19, 20, 21, 100, 12345, 100000])
        for w in (DiscPolynomial(0.0), DiscPolynomial(2.5), FockExponential(0.5),
                  FockExponential(2.0), FockExponential(3.0), FockExponential(7.0)):
            for method in (w.log_ratio, w.eigenvalue):
                got = method(n)
                assert isinstance(got, np.ndarray)
                assert got.tolist() == [method(int(k)) for k in n]
                assert all(isinstance(method(int(k)), float) for k in n[:3])

    def test_bad_index_in_an_array_is_typed(self):
        for w in (DiscPolynomial(1.0), FockExponential(3.0)):
            for bad in (np.array([0, -1]), np.array([1.0, 2.0]), np.array([True])):
                with pytest.raises(ParameterDomainError):
                    w.eigenvalue(bad)
                with pytest.raises(ParameterDomainError):
                    w.log_ratio(bad)

    def test_moment_log_is_pure(self):
        for w in (DiscPolynomial(1.5), FockExponential(2.5)):
            for n in (0, 7, 40):
                assert w.log_moment(n) == w.log_moment(n)  # bit-identical


class TestQuadratureOracle:
    def test_disc_oracle_spot(self):
        got = moment_quadrature(DiscPolynomial(0.0), 1, rel_tol=1e-10)
        assert got == pytest.approx(math.log(math.pi / 2), abs=1e-10)

    def test_fock_oracle_spot(self):
        got = moment_quadrature(FockExponential(2.0), 5, rel_tol=1e-10)
        assert got == pytest.approx(math.log(math.pi * 120.0), abs=1e-10)

    def test_custom_unit_density(self):
        w = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
        assert moment_quadrature(w, 0) == pytest.approx(LOG_PI, abs=1e-9)

    def test_oracle_equivalence_sample(self):
        # full n <= 50 sweep runs in the acceptance suite
        for w in (DiscPolynomial(0.0), DiscPolynomial(0.5), DiscPolynomial(3.0),
                  FockExponential(2.0), FockExponential(3.0), FockExponential(4.0)):
            for n in (0, 3, 17, 50):
                assert abs(w.log_moment(n) - moment_quadrature(w, n)) <= 1e-9

    def test_custom_scalar_callable_adapted(self):
        w = CustomRadial(lambda r: 1.0, support_radius=1.0)
        assert moment_quadrature(w, 0) == pytest.approx(LOG_PI, abs=1e-9)

    def test_rel_tol_domain(self):
        with pytest.raises(ParameterDomainError):
            moment_quadrature(DiscPolynomial(0.0), 0, rel_tol=0.5)
        with pytest.raises(ParameterDomainError):
            moment_quadrature(DiscPolynomial(0.0), 0, rel_tol=1e-15)

    def test_divergent_custom_density_overflow(self):
        w = CustomRadial(lambda r: np.exp(r), support_radius=math.inf)
        with pytest.raises(DivergenceError) as info:
            moment_quadrature(w, 2)
        assert info.value.order == 2

    def test_divergent_custom_density_slow(self):
        # r/(1+r) -> 1, so every moment diverges; the probes at the ends of s,
        # taken before the quadrature, must notice
        w = CustomRadial(lambda r: 1.0 / (1.0 + r), support_radius=math.inf)
        t0 = time.perf_counter()
        with pytest.raises(DivergenceError) as info:
            moment_quadrature(w, 0)
        assert info.value.order == 0
        assert time.perf_counter() - t0 < 1.0

    def test_high_order_custom_moments_in_log_scale(self):
        # r^(2n+1) overflows long before these densities underflow, and so
        # does the integrand on a linear scale at n = 170 of exp(-r^2)
        gauss = CustomRadial(lambda r: np.exp(-r * r))
        for n in (110, 170, 400):
            assert moment_quadrature(gauss, n) == pytest.approx(
                LOG_PI + math.lgamma(n + 1.0), abs=1e-9)
        quartic = CustomRadial(lambda r: np.exp(-r ** 4))
        assert moment_quadrature(quartic, 250) == pytest.approx(
            math.log(math.pi / 2) + math.lgamma(125.5), abs=1e-9)
        for m, n in ((3.0, 400), (0.7, 60)):
            w = FockExponential(m)
            assert moment_quadrature(w, n) == pytest.approx(w.log_moment(n), abs=1e-9)

    def test_underflowed_custom_density_is_named(self):
        # the caller's exp(-r^2) is 0 in double past r = 27.3, short of the
        # peak of r^2001 exp(-r^2) at r = 31.6
        gauss = CustomRadial(lambda r: np.exp(-r * r))
        t0 = time.perf_counter()
        with pytest.raises(UnrepresentableError, match="underflows") as info:
            moment_quadrature(gauss, 1000)
        assert info.value.order == 1000
        assert time.perf_counter() - t0 < 1.0

    def test_disc_at_a_million_orders(self):
        # the mass of r^(2n+1) lies within ~1/n of r = 1: the value matches
        # the closed form, or the rounding of r next to 1 is named
        for alpha in (0.5, 1.0):
            w = DiscPolynomial(alpha)
            for n in (10 ** 6, 2 * 10 ** 6):
                try:
                    got = moment_quadrature(w, n)
                except UnrepresentableError as exc:
                    assert "rounding r" in str(exc) and exc.order == n
                    continue
                assert abs(got - w.log_moment(n)) <= 1e-9

    def test_jump_density(self):
        # 1[r >= 1/2] on the unit disc: c_n^2 = 2 pi (1 - 4^-(n+1)) / (2n+2);
        # the panels must find the jump at s = -ln ln 2
        ms = MomentSequence(CustomRadial(lambda r: (r >= 0.5).astype(float), 1.0))
        ms.ensure(1000)
        n = np.arange(1001)
        want = np.log(2.0 * np.pi * (1.0 - 4.0 ** -(n + 1.0)) / (2.0 * n + 2.0))
        assert np.abs(ms.log_moments - want).max() <= 1e-9

    def test_power_law_tails_converge(self):
        # 2 pi int r (1+r)^-3 dr = pi and 2 pi int r (1+r^2)^-1.5 dr = 2 pi:
        # r f(r) is still far from negligible at r = 1e8, and decays as 1/r
        w = CustomRadial(lambda r: (1.0 + r) ** -3.0)
        assert moment_quadrature(w, 0) == pytest.approx(LOG_PI, abs=1e-9)
        w = CustomRadial(lambda r: (1.0 + r * r) ** -1.5)
        assert moment_quadrature(w, 0) == pytest.approx(
            math.log(2.0 * math.pi), abs=1e-9)

    def test_fock_peak_past_clamp_is_typed(self):
        # the integrand of m = 0.05 peaks near r = 1e26, past the end of s at
        # r = 1e12; for m = 1e-3 the peak radius overflows a double
        for m in (0.05, 1e-3):
            with pytest.raises(DivergenceError) as info:
                moment_quadrature(FockExponential(m), 0)
            assert info.value.order == 0

    def test_invalid_custom_density_values(self):
        for bad in (np.nan, -1.0):
            w = CustomRadial(lambda r, bad=bad: np.where(r < 0.5, bad, 1.0),
                             support_radius=1.0)
            with pytest.raises(ParameterDomainError):
                moment_quadrature(w, 0)


class TestMomentSequence:
    def test_lazy_cache(self):
        ms = MomentSequence(DiscPolynomial(0.0))
        assert ms.computed_upto == -1
        ms.log_moment(5)
        upto = ms.computed_upto
        assert upto >= 5
        logs = ms.log_moments
        ms.log_moment(2)  # no shrink, no recompute
        assert ms.computed_upto == upto
        assert ms.log_moments.tolist() == logs.tolist()
        # a quadrature-backed cache stops exactly at the request
        custom = MomentSequence(CustomRadial(lambda r: np.ones_like(r),
                                             support_radius=1.0))
        custom.log_moment(5)
        assert custom.computed_upto == 5
        custom.log_moment(2)
        assert custom.computed_upto == 5
        assert len(custom.log_moments) == 6

    def test_custom_cache_fills_in_blocks_within_memory(self):
        # 2002 orders of 1 - r^2 in blocks of 64 per pass
        tracemalloc.start()
        try:
            ms = MomentSequence(CustomRadial(lambda r: 1.0 - r * r, 1.0))
            ms.ensure(2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        n = np.arange(2002)
        want = np.log(np.pi / ((n + 1.0) * (n + 2.0)))
        assert np.abs(ms.log_moments - want).max() <= 1e-9

    def test_custom_failure_keeps_earlier_orders(self):
        # 2 pi int r^(2n+1) (1+r)^-5 dr is finite for n = 0, 1 only
        ms = MomentSequence(CustomRadial(lambda r: (1.0 + r) ** -5.0))
        with pytest.raises(DivergenceError) as info:
            ms.ensure(4)
        assert info.value.order == 2
        assert ms.computed_upto == 1

    def test_custom_budget_failure_keeps_earlier_orders(self, monkeypatch):
        # at 51 panels the block of exp(-r^2) orders 0..63 leaves one above 0 open
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 51)
        ms = MomentSequence(CustomRadial(lambda r: np.exp(-r * r)))
        with pytest.raises(QuadratureError) as info:
            ms.ensure(63)
        assert info.value.order > 0
        assert ms.computed_upto == info.value.order - 1
        log_factorials = np.cumsum(np.log(np.maximum(np.arange(info.value.order), 1)))
        assert np.abs(ms.log_moments - LOG_PI - log_factorials).max() < 1e-9

    def test_disc_values_match_closed_form(self):
        ms = MomentSequence(DiscPolynomial(2.5))
        for n in range(60):
            assert ms.log_moment(n) == DiscPolynomial(2.5).log_moment(n)

    def test_one_route_bit_for_bit(self):
        n = np.arange(3000)
        for w in (DiscPolynomial(0.0), DiscPolynomial(0.5), DiscPolynomial(2.5),
                  FockExponential(2.0), FockExponential(3.0)):
            want = [w.log_moment(int(k)) for k in n]
            assert MomentSequence(w).log_moment(n).tolist() == want
            ms = MomentSequence(w)
            assert [ms.log_moment(int(k)) for k in n] == want
            assert w.log_moment(n).tolist() == want

    def test_closed_form_cache_grows_in_blocks(self, monkeypatch):
        for cls, p in ((DiscPolynomial, 1.0), (FockExponential, 3.0)):
            calls = []
            log_moment = cls.log_moment
            monkeypatch.setattr(cls, "log_moment",
                                lambda self, n: calls.append(n) or log_moment(self, n))
            ms = MomentSequence(cls(p))
            ms.ensure(10 ** 5)
            assert ms.computed_upto >= 10 ** 5
            assert len(calls) <= 12

    def test_custom_log_moment_takes_arrays(self):
        w = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
        n = np.array([[0, 3], [1, 2]])
        got = w.log_moment(n)
        assert got.shape == (2, 2)
        assert got.tolist() == [[w.log_moment(int(k)) for k in row] for row in n]
        assert isinstance(w.log_moment(3), float)
        with pytest.raises(ParameterDomainError):
            w.log_moment(np.array([1, -1]))

    def test_fock_values_match_closed_form(self):
        ms = MomentSequence(FockExponential(3.0))
        for n in (0, 1, 13, 100):
            assert ms.log_moment(n) == FockExponential(3.0).log_moment(n)

    def test_ratios_consistent_with_logs(self):
        for w in (DiscPolynomial(1.0), FockExponential(2.0)):
            ms = MomentSequence(w)
            for n in range(20):
                assert ms.log_ratio(n) == pytest.approx(
                    ms.log_moment(n + 1) - ms.log_moment(n), abs=1e-12)

    def test_log_ratio_cache_serves_scalars_and_arrays_alike(self):
        n = np.arange(300)
        for w in (DiscPolynomial(1.0), FockExponential(3.0)):
            scalar = [MomentSequence(w).log_ratio(int(k)) for k in n[::37]]
            ms = MomentSequence(w)
            scalar_first = [ms.log_ratio(int(k)) for k in n]  # grows it step by step
            assert scalar_first == MomentSequence(w).log_ratio(n).tolist()
            assert scalar_first[::37] == scalar
            assert scalar_first == w.log_ratio(n).tolist()
            assert ms.ratio(n).tolist() == [ms.ratio(int(k)) for k in n]
        custom = MomentSequence(CustomRadial(lambda r: np.ones_like(r),
                                             support_radius=1.0))
        lr = custom.log_ratio(np.arange(8))
        assert custom.computed_upto == 8  # no quadrature past the request
        assert lr.tolist() == [custom.log_moment(k + 1) - custom.log_moment(k)
                               for k in range(8)]

    def test_array_ratio_overflow_is_typed(self):
        # ln r_n of exp(-|z|^0.02) passes ln DBL_MAX from n = 11 on
        ms = MomentSequence(FockExponential(0.02))
        assert np.isfinite(ms.ratio(np.arange(11))).all()
        with pytest.raises(UnrepresentableError):
            ms.ratio(np.arange(12))
        with pytest.raises(UnrepresentableError):
            ms.ratio(11)
        with pytest.raises(ParameterDomainError):
            ms.log_ratio(np.array([3, -1]))

    def test_overflow_is_typed(self):
        # c_1^2 / c_0^2 = Gamma(4000) / Gamma(2000) and c_300^2 = pi 300!
        with pytest.raises(UnrepresentableError):
            MomentSequence(FockExponential(1e-3)).ratio(0)
        with pytest.raises(UnrepresentableError):
            MomentSequence(FockExponential(2.0)).moment(300)

    def test_disc_ratio_monotone_and_bounded(self):
        # c_{n+1}^2/c_n^2 = (n+1)/(alpha+n+2): strictly increasing, below 1
        for alpha in (0.0, 1.0, 2.5):
            ms = MomentSequence(DiscPolynomial(alpha))
            ratios = [ms.ratio(n) for n in range(200)]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            assert all(r < 1.0 for r in ratios)
            for n in (0, 10, 199):
                assert ratios[n] == pytest.approx(
                    (n + 1.0) / (alpha + n + 2.0), rel=1e-13)

    def test_log_convexity(self):
        for w in (DiscPolynomial(0.0), DiscPolynomial(2.5),
                  FockExponential(2.0), FockExponential(4.0)):
            ms = MomentSequence(w)
            assert ms.log_convexity_defect(2000) <= 1e-12

    def test_log_convexity_custom(self):
        w = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
        ms = MomentSequence(w)
        # quadrature-backed logs carry the oracle tolerance, not 1e-12
        assert ms.log_convexity_defect(25) <= 1e-9

    def test_custom_matches_disc(self):
        custom = MomentSequence(CustomRadial(lambda r: np.ones_like(r),
                                             support_radius=1.0))
        for n in range(10):
            assert custom.log_moment(n) == pytest.approx(
                DiscPolynomial(0.0).log_moment(n), abs=1e-9)
