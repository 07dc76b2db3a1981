"""Conjugate transform, shifted supremum and the hypothesis checker."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbarkit.errors import DbarKitError, InconclusiveSupremumError, ParameterDomainError
from dbarkit.weights_nd import (
    PshWeight,
    check_hilbert_schmidt_hypotheses,
    conjugate_transform,
    sup_shift,
)


def quadratic():
    return PshWeight(1, lambda z: float(np.sum(np.abs(z) ** 2)))


def quartic():
    return PshWeight(1, lambda z: float(np.sum(np.abs(z) ** 4)))


def radial_power(dim, power):
    """p = |z|^power as a batched weight."""
    return PshWeight(dim, lambda z: np.sum(np.abs(z) ** 2, axis=-1) ** (power / 2))


#: final spacing of the benchmark's sup_shift check, whose bound is (|z|+1) 4 h^2
SHIFT_H = 2.0 / 63.0 / 64.0


class TestConjugateTransform:
    def test_quadratic_closed_form(self):
        # p = |z|^2 has p*(w) = |w|^2 / 4
        pw = quadratic()
        assert conjugate_transform(pw, [2.0]) == pytest.approx(1.0, abs=1e-3)
        assert conjugate_transform(pw, [1.0 + 1.0j]) == pytest.approx(0.5, abs=1e-3)

    def test_at_zero(self):
        assert conjugate_transform(quadratic(), [0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_scaling(self):
        # (tau p)*(w) = tau p*(w / tau) for p = |z|^2
        for tau in (0.5, 2.0):
            pw = PshWeight(1, lambda z, t=tau: t * float(np.sum(np.abs(z) ** 2)))
            w = 1.5 + 0.0j
            got = conjugate_transform(pw, [w])
            want = tau * (abs(w / tau) ** 2 / 4.0)
            assert got == pytest.approx(want, abs=1e-3)

    def test_double_transform_recovers_quadratic(self):
        # batch-capable p makes the nested optimization affordable
        pw = PshWeight(1, lambda z: np.sum(np.abs(z) ** 2, axis=-1))

        def p_star(w):
            return conjugate_transform(pw, w, search_radius=10.0,
                                       grid=24, refine_rounds=4)

        star = PshWeight(1, p_star)
        for radius in (0.5, 1.0, 2.0):
            got = conjugate_transform(star, [radius + 0.0j],
                                      search_radius=12.0, grid=12,
                                      refine_rounds=4)
            assert got == pytest.approx(radius ** 2, abs=1e-3)

    def test_double_transform_recovers_quartic(self):
        pw = PshWeight(1, lambda z: np.sum(np.abs(z) ** 4, axis=-1))

        def p_star(w):
            return conjugate_transform(pw, w, search_radius=8.0,
                                       grid=24, refine_rounds=5)

        star = PshWeight(1, p_star)
        for radius in (0.5, 1.0, 2.0):
            # the maximizing w for the outer transform sits near |w| = 32
            # when radius = 2, so the search ball needs headroom beyond it
            got = conjugate_transform(star, [radius + 0.0j],
                                      search_radius=56.0, grid=16,
                                      refine_rounds=5)
            assert got == pytest.approx(radius ** 4, abs=1e-3)

    def test_batch_and_scalar_paths_agree(self):
        scalar = quadratic()
        batch = PshWeight(1, lambda z: np.sum(np.abs(z) ** 2, axis=-1))
        w = [1.3 - 0.4j]
        a = conjugate_transform(scalar, w, grid=16, refine_rounds=3)
        b = conjugate_transform(batch, w, grid=16, refine_rounds=3)
        assert a == b

    def test_boundary_peak_detected(self):
        # p = |z| with |w| > 1: the supremand grows along a ray forever
        pw = PshWeight(1, lambda z: float(np.sum(np.abs(z))))
        with pytest.raises(InconclusiveSupremumError):
            conjugate_transform(pw, [2.0], search_radius=5.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_search_radius_domain(self, radius):
        with pytest.raises(ParameterDomainError, match="search_radius"):
            conjugate_transform(quadratic(), [1.0], search_radius=radius)

    def test_grid_cost_guard(self):
        pw = PshWeight(2, lambda z: float(np.sum(np.abs(z) ** 2)))
        with pytest.raises(ParameterDomainError):
            conjugate_transform(pw, [0.0, 0.0], grid=64)

    def test_zoom_grid_cost_guard(self):
        # in C^3 a coarse grid of 4^6 points passes, but each zoom round would
        # take 17^6 = 24.1 M points: refused before any point is evaluated
        t0 = time.perf_counter()
        with pytest.raises(ParameterDomainError, match="24137569 points"):
            conjugate_transform(radial_power(3, 2), [1.0, 0.0, 0.0], grid=4)
        assert time.perf_counter() - t0 < 1.0


class TestSupShift:
    def test_outward_shift(self):
        assert sup_shift(quadratic(), [3.0]) == pytest.approx(16.0, abs=1e-3)

    def test_at_origin(self):
        assert sup_shift(quadratic(), [0.0]) == pytest.approx(1.0, abs=1e-6)

    def test_ratio_trend(self):
        pw = quadratic()
        got = sup_shift(pw, [1000.0]) / 1000.0 ** 2
        assert got == pytest.approx(1.002001, abs=1e-6)

    def test_dominates_center_value(self):
        pw = quartic()
        for z in (0.3, 1.0, 2.0 + 1.0j):
            assert sup_shift(pw, [z]) >= pw.evaluate([z])

    # p = phi(|z|) with phi increasing and convex has p~(z) = phi(|z| + 1); the
    # benchmark's bound is scaled by phi'(s) / (2 s) at s = |z| + 1
    @pytest.mark.parametrize("dim,grid", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("power", [2, 4])
    def test_radial_closed_form(self, dim, grid, power):
        rng = np.random.default_rng(10 * dim + power)
        pw = radial_power(dim, power)
        for _ in range(10):
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            z *= 1024.0 * rng.uniform() / np.linalg.norm(z)
            s = np.linalg.norm(z) + 1.0
            bound = s * 4.0 * SHIFT_H ** 2 * (power / 2) * s ** (power - 2)
            assert abs(sup_shift(pw, z, grid=grid) - s ** power) <= bound

    def test_radial_closed_form_dimension_3(self):
        z = np.array([3.0, 1.0j, -2.0 + 1.0j])
        s = np.linalg.norm(z) + 1.0
        got = sup_shift(radial_power(3, 2), z, grid=4)
        assert abs(got - s ** 2) <= s * 4.0 * SHIFT_H ** 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lower_bound_for_non_psh_weight(self, dim):
        # p = -|z|^2 peaks inside the ball when |z| < 1, where
        # p~(z) = -max(|z| - 1, 0)^2; the sphere search sees -(|z| - 1)^2
        pw = PshWeight(dim, lambda z: -np.sum(np.abs(z) ** 2, axis=-1))
        for r in (0.0, 0.5, 0.9, 2.0, 5.0):
            z = np.full(dim, r / math.sqrt(dim), dtype=complex)
            got = sup_shift(pw, z, grid=16)
            assert got <= -max(r - 1.0, 0.0) ** 2 + 1e-12
            assert got == pytest.approx(-(r - 1.0) ** 2, abs=(r + 1.0) * 4.0 * SHIFT_H ** 2)

    @pytest.mark.parametrize("dim,grid,points", [
        (1, 64, 64 + 1 + 4 * 17),              # coarse circle, center, 4 zooms
        (2, 16, 16 ** 3 + 1 + 4 * 17 ** 3)])   # grid^3 Hopf angles, 17^3 per zoom
    def test_points_per_call(self, dim, grid, points):
        seen = []

        def p(z):
            seen.append(len(z))
            return np.sum(np.abs(z) ** 2, axis=-1)

        sup_shift(PshWeight(dim, p), np.full(dim, 2.0 + 1.0j), grid=grid)
        assert sum(seen) == points

    def test_grid_cost_guard(self):
        with pytest.raises(ParameterDomainError):
            sup_shift(radial_power(3, 2), [0.0, 0.0, 0.0], grid=32)


def _w1():
    return radial_power(1, 2)


# malformed grids, zoom rounds and points: each raises ParameterDomainError
# naming what is wrong, not a raw TypeError or ValueError, or blames p
@pytest.mark.parametrize("call,match", [
    (lambda: conjugate_transform(_w1(), [1.0], grid=4.5), "grid must be an integer"),
    (lambda: check_hilbert_schmidt_hypotheses(_w1(), 1, 2, grid=4.5),
     "grid must be an integer"),
    (lambda: sup_shift(_w1(), [1.0], grid=4.5), "grid must be an integer"),
    (lambda: sup_shift(_w1(), [1.0], refine_rounds=1.5), "refine_rounds must be"),
    (lambda: sup_shift(_w1(), [1.0, 2.0]), "1 finite coordinates"),
    (lambda: sup_shift(_w1(), [math.nan]), "1 finite coordinates"),
    (lambda: conjugate_transform(_w1(), [1.0, 2.0]), "1 finite coordinates")])
def test_malformed_input_is_typed(call, match):
    with pytest.raises(ParameterDomainError, match=match):
        call()


class TestPshWeight:
    def test_dimension_guard(self):
        with pytest.raises(ParameterDomainError):
            PshWeight(4, lambda z: 0.0)

    def test_shape_contract(self):
        pw = quadratic()
        assert isinstance(pw.evaluate([1.0 + 1.0j]), float)
        assert pw.evaluate([[1.0], [2.0], [3.0]]).shape == (3,)
        assert pw.evaluate(np.ones((4, 5, 1))).shape == (4, 5)

    def test_array_for_one_point_is_typed(self):
        # answers a batch, but a one-element array for one point
        pw = PshWeight(1, lambda z: np.sum(np.abs(np.atleast_2d(z)) ** 2, axis=-1))
        assert np.array_equal(pw.evaluate([[1.0], [2.0], [3.0]]), [1.0, 4.0, 9.0])
        with pytest.raises(ParameterDomainError, match="one point"):
            pw.evaluate([0.5])

    def test_batch_of_dimension_points_is_per_point(self):
        # given the (2, 2) batch, this p would read its rows as coordinates
        # and answer [10, 20] in the batch's shape
        pw = PshWeight(2, lambda z: abs(z[0]) ** 2 + abs(z[1]) ** 2)
        assert np.array_equal(pw.evaluate([[1, 2], [3, 4]]), [5.0, 25.0])


class TestHypothesisChecker:
    def test_quadratic_passes_all(self):
        report = check_hilbert_schmidt_hypotheses(quadratic(), 1.0, 2.0)
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == ["conjugate_finite", "superlinear_growth",
                         "shift_ratio_to_one", "integrability"]

    def test_linear_fails_growth(self):
        pw = PshWeight(1, lambda z: float(np.sum(np.abs(z))))
        report = check_hilbert_schmidt_hypotheses(pw, 1.0, 2.0)
        assert not report.check("superlinear_growth").passed
        assert not report.all_passed

    def test_overflowing_integral_is_reported_not_raised(self):
        # exp(-(|z|^2 - 1000)) integrates to pi e^1000, past the double range
        pw = PshWeight(1, lambda z: np.abs(z[..., 0]) ** 2 - 1000.0)
        check = check_hilbert_schmidt_hypotheses(pw, 1.0, 2.0).check("integrability")
        assert not check.passed
        assert "overflows a double" in check.detail

    def test_tau_sigma_order(self):
        with pytest.raises(ParameterDomainError):
            check_hilbert_schmidt_hypotheses(quadratic(), 2.0, 1.0)
        with pytest.raises(ParameterDomainError):
            check_hilbert_schmidt_hypotheses(quadratic(), 1.0, 1.0)

    def test_integrability_estimate_is_gaussian_area(self):
        # tau - sigma = -1 on |z|^2 integrates to pi
        report = check_hilbert_schmidt_hypotheses(quadratic(), 1.0, 2.0)
        detail = report.check("integrability").detail
        assert "3.14159" in detail

    @pytest.mark.parametrize("dim,grid", [(1, 64), (2, 16)])
    def test_integrability_estimates_are_gaussian_integral(self, dim, grid):
        report = check_hilbert_schmidt_hypotheses(radial_power(dim, 2), 1.0, 2.0, grid=grid)
        detail = report.check("integrability").detail
        values = [float(v) for v in detail.split(":", 1)[1].split(",")]
        assert len(values) == dim + 1
        assert all(abs(v - math.pi ** dim) <= 1e-5 for v in values)

    def test_divergent_tail_fails_integrability(self):
        # int exp(-p) diverges, but exp(-p) underflows long before |z| = 3e3:
        # only the probes at the ends of s, up to |z| = 1e12, see p turn
        # negative
        def p(z):
            r = np.linalg.norm(z, axis=-1)
            return np.where(r < 3e3, r * r, -r)

        start = time.perf_counter()
        report = check_hilbert_schmidt_hypotheses(PshWeight(1, p), 1.0, 2.0)
        assert time.perf_counter() - start < 1.0
        assert [c.passed for c in report.checks] == [True, True, True, False]

    def test_nonfinite_weight_fails_integrability_only(self):
        # the probes at the ends of s sample p up to |z| = 1e12, the other
        # checks only to 1025; ParameterDomainError is typed, so reported
        def p(z):
            inside = np.linalg.norm(z, axis=-1) < 2e3
            return np.where(inside, np.sum(np.abs(z) ** 2, axis=-1), np.inf)

        report = check_hilbert_schmidt_hypotheses(PshWeight(1, p), 1.0, 2.0)
        assert [c.passed for c in report.checks] == [True, True, True, False]
        assert "non-finite" in report.check("integrability").detail

    def test_weight_bug_propagates(self):
        def p(z):
            if np.linalg.norm(z) >= 2e3:
                raise ValueError("weight bug")
            return float(np.sum(np.abs(z) ** 2))

        with pytest.raises(ValueError, match="weight bug") as info:
            check_hilbert_schmidt_hypotheses(PshWeight(1, p), 1.0, 2.0)
        assert not isinstance(info.value, DbarKitError)


def _batches(dim):
    coords = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False)
    return st.lists(st.lists(coords, min_size=dim, max_size=dim),
                    min_size=1, max_size=20).map(lambda rows: np.array(rows, dtype=complex))


def _scalar_cube(z):
    # math.fsum of an array row raises TypeError, so a batch falls back per point
    return math.fsum(abs(c) ** 3 for c in z)


class TestProperties:
    @settings(derandomize=True, deadline=1000, max_examples=60)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_evaluate_matches_points(self, data, dim):
        pts = data.draw(_batches(dim))
        for p in (_scalar_cube, lambda z: np.sum(np.abs(z) ** 3, axis=-1)):
            pw = PshWeight(dim, p)
            got = pw.evaluate(pts)
            assert got.shape == (len(pts),)
            want = [pw.evaluate(pt) for pt in pts]
            assert all(isinstance(v, float) for v in want)
            assert np.array_equal(got, want)
            assert np.array_equal(got, [p(pt) for pt in pts])

    @settings(derandomize=True, deadline=1000, max_examples=60)
    @given(data=st.data(), dim=st.integers(1, 3),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_nonfinite_weight_raises(self, data, dim, bad):
        pts = data.draw(_batches(dim))
        k = data.draw(st.integers(0, len(pts) - 1))

        def batched(z):
            return np.where(np.all(z == pts[k], axis=-1), bad,
                            np.sum(np.abs(z) ** 2, axis=-1))

        def scalar(z):
            return bad if np.all(z == pts[k]) else float(np.sum(np.abs(z) ** 2))

        for p in (batched, scalar):
            with pytest.raises(ParameterDomainError):
                PshWeight(dim, p).evaluate(pts)

    # tolerances as documented for the bench checks, scaled by a: two zoom
    # rounds of /8 leave p* a final spacing h of one 64th of the coarse cell
    @settings(derandomize=True, deadline=1000, max_examples=40)
    @given(a=st.floats(0.25, 4.0), w=st.complex_numbers(max_magnitude=4.0))
    def test_conjugate_of_scaled_square(self, a, w):
        pw = PshWeight(1, lambda z: a * np.sum(np.abs(z) ** 2, axis=-1))
        h = 16.0 * (1.0 + abs(w)) / 63.0 / 64.0
        assert abs(conjugate_transform(pw, [w]) - abs(w) ** 2 / (4.0 * a)) <= a * h * h

    @settings(derandomize=True, deadline=1000, max_examples=40)
    @given(a=st.floats(0.25, 4.0), z=st.complex_numbers(max_magnitude=8.0))
    def test_shift_of_scaled_square(self, a, z):
        pw = PshWeight(1, lambda z: a * np.sum(np.abs(z) ** 2, axis=-1))
        want = a * (abs(z) + 1.0) ** 2
        assert abs(sup_shift(pw, [z]) - want) <= a * (abs(z) + 1.0) * SHIFT_H ** 2 * 4.0
