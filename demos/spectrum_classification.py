#!/usr/bin/env python3
"""Spectrum of S*S and the Hilbert-Schmidt / compactness verdicts.

On a radial weight, S*S is diagonal on the normalized monomials with
eigenvalues lambda_n = c_(n+1)^2/c_n^2 - c_n^2/c_(n-1)^2.  The partial sums
of the lambdas telescope to the moment ratio, so one number answers two
questions: the operator is Hilbert-Schmidt iff the ratios stay bounded, and
compact iff the eigenvalues die out.

The exponential weights exp(-|z|^m) split three ways as m crosses 2:

    m < 2   eigenvalues blow up            -> not even compact
    m = 2   eigenvalues identically 1      -> not compact, S*S = identity
    m > 2   eigenvalues decay like k^(2/m - 1) -> compact, never Hilbert-Schmidt

while every disc weight (1-|z|^2)^alpha has summable eigenvalues and is
Hilbert-Schmidt.
"""

import numpy as np

from dbarkit import (
    DiscPolynomial,
    FockExponential,
    MomentSequence,
    classify,
    eigenvalue,
    hs_partial_sum,
    stirling_surrogate,
)


def main():
    print("eigenvalues at a few indices:")
    weights = [DiscPolynomial(0.0), DiscPolynomial(2.5),
               FockExponential(1.0), FockExponential(2.0),
               FockExponential(3.0), FockExponential(4.0)]
    header = f"{'weight':>14}" + "".join(f"{f'lambda_{n}':>14}" for n in (1, 10, 100, 10000))
    print(header)
    for w in weights:
        ms = MomentSequence(w)
        vals = "".join(f"{eigenvalue(ms, n):>14.6g}" for n in (1, 10, 100, 10000))
        print(f"{w.label:>14}" + vals)

    print("\ntelescoping: partial sums vs the moment ratio r_N (m = 3, N = 1000):")
    ms = MomentSequence(FockExponential(3.0))
    s = hs_partial_sum(ms, 1000)
    print(f"  sum of eigenvalues = {s:.12g}")
    print(f"  c_1001^2/c_1000^2  = {ms.ratio(1000):.12g}")

    print("\nlarge-k eigenvalues against the power-law surrogate (m = 4):")
    ks = np.array([100, 1000, 10000])
    # both take index arrays and answer elementwise
    lams = FockExponential(4.0).eigenvalue(ks)
    surs = stirling_surrogate(4.0, ks)
    for k, lam, sur in zip(ks, lams, surs):
        print(f"  k = {k:>6}: eigenvalue {lam:.6e}, surrogate {sur:.6e}, "
              f"rel dev {abs(lam-sur)/sur:.2e}")

    print("\nverdicts over the default tail window:")
    for w in weights:
        c = classify(MomentSequence(w))
        print(f"  {w.label:>14}: {c}")


if __name__ == "__main__":
    main()
