"""Eigenvalues of S*S, telescoping sums and the classification."""

import math

import numpy as np
import pytest

from dbarkit.errors import ParameterDomainError
from dbarkit.spectrum import (
    Verdict,
    classify,
    diagnostics,
    eigenvalue,
    hs_partial_sum,
    stirling_surrogate,
)
from dbarkit.weights import CustomRadial, DiscPolynomial, FockExponential, MomentSequence


@pytest.fixture(scope="module")
def disc0():
    return MomentSequence(DiscPolynomial(0.0))


@pytest.fixture(scope="module")
def fock2():
    return MomentSequence(FockExponential(2.0))


class TestEigenvalue:
    def test_disc_examples(self, disc0):
        assert eigenvalue(disc0, 0) == pytest.approx(0.5, rel=1e-14)
        assert eigenvalue(disc0, 1) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_fock2_flat(self, fock2):
        for n in (1, 2, 17, 1000, 10000):
            assert eigenvalue(fock2, n) == pytest.approx(1.0, abs=1e-12)

    def test_disc_closed_form_oracle(self):
        # rational closed form (n+1)/(a+n+2) - n/(a+n+1) is the test oracle
        for alpha in (0.0, 1.0, 2.5):
            ms = MomentSequence(DiscPolynomial(alpha))
            for n in range(1, 1001):
                want = (n + 1.0) / (alpha + n + 2.0) - n / (alpha + n + 1.0)
                assert abs(eigenvalue(ms, n) - want) <= 1e-12

    def test_nonnegative(self):
        for w in (DiscPolynomial(0.0), DiscPolynomial(2.5),
                  FockExponential(2.0), FockExponential(3.0), FockExponential(4.0)):
            ms = MomentSequence(w)
            assert all(eigenvalue(ms, n) >= -1e-12 for n in range(0, 10001, 7))

    def test_custom_weight_goes_through_log_ratios(self):
        ms = MomentSequence(CustomRadial(lambda r: np.ones_like(r),
                                         support_radius=1.0))
        assert eigenvalue(ms, 1) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_domain(self, disc0):
        with pytest.raises(ParameterDomainError):
            eigenvalue(disc0, -1)


class TestPartialSums:
    def test_disc_example(self, disc0):
        # 1/2 + 1/6 + 1/12 = 3/4 = c_3^2 / c_2^2
        assert hs_partial_sum(disc0, 2) == pytest.approx(0.75, rel=1e-14)

    def test_fock2_example(self, fock2):
        assert hs_partial_sum(fock2, 9) == pytest.approx(10.0, rel=1e-13)

    def test_single_term(self, disc0):
        assert hs_partial_sum(disc0, 0) == eigenvalue(disc0, 0)

    def test_telescoping_identity(self):
        for w in (DiscPolynomial(0.0), DiscPolynomial(1.0), DiscPolynomial(2.5),
                  FockExponential(2.0), FockExponential(3.0), FockExponential(4.0)):
            ms = MomentSequence(w)
            for N in (10, 100, 1000):
                s = hs_partial_sum(ms, N)
                r = ms.ratio(N)
                assert abs(s - r) <= 1e-10 * max(1.0, r)


class TestAsymptotics:
    def test_surrogate_values(self):
        assert stirling_surrogate(2.0, 5) == 1.0
        assert stirling_surrogate(1.0, 100) == pytest.approx(804.0, rel=1e-12)
        assert stirling_surrogate(4.0, 10 ** 4) == pytest.approx(
            math.sqrt(5000.5) - math.sqrt(5000.0), rel=1e-12)

    def test_gamma_ratio_difference_values(self):
        # lambda_k of exp(-|z|^m) is Gamma((2k+4)/m)/Gamma((2k+2)/m)
        # - Gamma((2k+2)/m)/Gamma(2k/m); m=2 collapses to consecutive
        # integer ratios
        assert FockExponential(2.0).eigenvalue(7) == pytest.approx(1.0, abs=1e-13)
        # m=1, k=1: Gamma(6)/Gamma(4) - Gamma(4)/Gamma(2) = 20 - 6
        assert FockExponential(1.0).eigenvalue(1) == pytest.approx(14.0, rel=1e-13)
        # m=4, k=2: 2/sqrt(pi) - sqrt(pi)/2 (high-precision value 0.2421522...)
        want = 2.0 / math.sqrt(math.pi) - math.sqrt(math.pi) / 2.0
        assert FockExponential(4.0).eigenvalue(2) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(0.24215224164275462, rel=1e-15)

    def test_matches_eigenvalue_for_fock(self):
        for m in (2.0, 3.0, 4.0):
            ms = MomentSequence(FockExponential(m))
            ks = np.array([1, 5, 50])
            assert list(eigenvalue(ms, ks)) == [
                FockExponential(m).eigenvalue(int(k)) for k in ks]

    def test_trichotomy_desk_scale(self):
        k = 10 ** 4
        assert FockExponential(1.0).eigenvalue(k) > 1e3
        assert FockExponential(2.0).eigenvalue(k) == pytest.approx(1.0, abs=1e-12)
        v4 = FockExponential(4.0).eigenvalue(k)
        assert v4 < 1e-2
        assert v4 == pytest.approx(stirling_surrogate(4.0, k), rel=0.01)

    def test_surrogate_takes_index_arrays(self):
        k = np.arange(1, 400)
        assert stirling_surrogate(3.0, k).tolist() == [
            stirling_surrogate(3.0, int(j)) for j in k]
        with pytest.raises(ParameterDomainError):
            stirling_surrogate(3.0, np.array([1, 0]))

    def test_domains(self):
        with pytest.raises(ParameterDomainError):
            stirling_surrogate(-1.0, 5)
        with pytest.raises(ParameterDomainError):
            stirling_surrogate(2.0, 0)
        with pytest.raises(ParameterDomainError):
            FockExponential(0.0).eigenvalue(5)
        with pytest.raises(ParameterDomainError):
            FockExponential(2.0).eigenvalue(-1)


class TestClassification:
    def test_disc_always_hilbert_schmidt(self):
        for alpha in (0.0, 1.0, 2.5):
            c = classify(MomentSequence(DiscPolynomial(alpha)))
            assert c.verdict is Verdict.HILBERT_SCHMIDT

    def test_fock_gaussian_not_compact(self, fock2):
        c = classify(fock2)
        assert c.verdict is Verdict.NON_COMPACT
        assert c.evidence.lambda_tail_min > 0.99

    def test_fock_m4_compact_not_hs(self):
        c = classify(MomentSequence(FockExponential(4.0)))
        assert c.verdict is Verdict.COMPACT_NOT_HILBERT_SCHMIDT
        assert 0.4 < c.evidence.decay_exponent < 0.6

    def test_fock_m1_unbounded_diagonal(self):
        c = classify(MomentSequence(FockExponential(1.0)))
        assert c.verdict is Verdict.NON_COMPACT
        assert c.evidence.decay_exponent < 0.0

    def test_custom_weight_window(self):
        ms = MomentSequence(CustomRadial(lambda r: np.ones_like(r),
                                         support_radius=1.0))
        c = classify(ms, tail_start=40, tail_len=40)
        assert c.verdict is Verdict.HILBERT_SCHMIDT

    def test_evidence_fields(self, fock2):
        c = classify(fock2, tail_start=100, tail_len=50)
        assert c.evidence.tail_window == (100, 150)
        assert c.evidence.ratio_tail == pytest.approx(151.0, rel=1e-12)

    def test_verdict_lattice(self):
        # a HilbertSchmidt verdict always implies compactness: the verdicts
        # are mutually exclusive stages of one chain, so it suffices that
        # the HS branch is only reachable through the decaying branch
        c = classify(MomentSequence(DiscPolynomial(0.0)))
        assert c.verdict in (Verdict.HILBERT_SCHMIDT,
                             Verdict.COMPACT_NOT_HILBERT_SCHMIDT,
                             Verdict.NON_COMPACT)

    def test_parameters(self, disc0):
        with pytest.raises(ParameterDomainError):
            classify(disc0, tail_len=5)
        with pytest.raises(ParameterDomainError):
            classify(disc0, tail_start=0)


class TestDiagnostics:
    def test_structure(self, disc0):
        d = diagnostics(disc0, 200)
        assert d.lambdas.shape == (201,)
        assert d.partial_sums[-1] == pytest.approx(d.ratios[-1], rel=1e-10)
        assert d.classification is not None
        assert d.classification.verdict is Verdict.HILBERT_SCHMIDT

    def test_small_window_skips_classification(self, disc0):
        d = diagnostics(disc0, 15)
        assert d.classification is None

    def test_partial_sums_are_the_ascending_sum(self):
        # np.cumsum adds in ascending n, exactly as a running Python sum
        for w in (DiscPolynomial(1.0), FockExponential(3.0), FockExponential(0.5)):
            ms = MomentSequence(w)
            d = diagnostics(ms, 3000)
            total, sums = 0.0, []
            for lam in d.lambdas.tolist():
                total += lam
                sums.append(total)
            assert d.partial_sums.tolist() == sums
            assert hs_partial_sum(ms, 3000) == sums[-1]

    def test_columns_match_scalar_calls(self):
        n = np.arange(0, 2001, 97)
        for w in (DiscPolynomial(2.5), FockExponential(4.0),
                  CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)):
            ms = MomentSequence(w)
            d = diagnostics(ms, 2000 if w.eigenvalue else 40)
            idx = n[n < d.lambdas.size]
            assert d.lambdas[idx].tolist() == [eigenvalue(ms, int(k)) for k in idx]
            assert d.ratios[idx].tolist() == [ms.ratio(int(k)) for k in idx]
            assert eigenvalue(ms, idx).tolist() == d.lambdas[idx].tolist()
