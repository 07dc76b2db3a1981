#!/usr/bin/env python3
"""Moment sequences of radial weights, and the quadrature oracle.

The squared norms c_n^2 of the monomials z^n are the only data the whole
toolkit runs on.  This script walks the three weight families:

* the disc weight (1 - |z|^2)^alpha, whose moments are pi n! / prod(alpha+j);
* the exponential weight exp(-|z|^m), whose moments are (2 pi/m) Gamma((2n+2)/m);
* a custom radial density, where adaptive quadrature is the only route.

Every closed form is cross-checked against the independent adaptive
quadrature of the defining integral 2 pi * int r^(2n+1) density(r) dr.
"""

import math

import numpy as np

from dbarkit import (
    CustomRadial,
    DiscPolynomial,
    FockExponential,
    MomentSequence,
    moment_quadrature,
)


def show_family(weight, n_max=8):
    print(f"\n--- {weight.label} ---")
    ms = MomentSequence(weight)
    print(f"{'n':>3} {'c_n^2':>22} {'ratio c_(n+1)^2/c_n^2':>24} {'|closed - quadrature|':>22}")
    for n in range(n_max + 1):
        dev = abs(weight.log_moment(n) - moment_quadrature(weight, n))
        print(f"{n:>3} {ms.moment(n):>22.15g} {ms.ratio(n):>24.15g} {dev:>22.3e}")


def main():
    print("disc weight, alpha = 0: moments are pi/(n+1)")
    show_family(DiscPolynomial(0.0))

    print("\nGaussian weight, m = 2: moments are pi * n!")
    show_family(FockExponential(2.0))

    print("\nexponential weight, m = 4: moments involve Gamma((2n+2)/4)")
    show_family(FockExponential(4.0))

    print("\ncustom density 1 on [0,1] (same space as disc alpha = 0):")
    custom = CustomRadial(lambda r: np.ones_like(r), support_radius=1.0)
    ms = MomentSequence(custom)
    for n in range(4):
        print(f"  c_{n}^2 = {ms.moment(n):.12g}   (pi/(n+1) = {math.pi/(n+1):.12g})")

    print("\nlog-convexity defect of the cached sequences (must be <= ~1e-12):")
    for w in (DiscPolynomial(1.0), FockExponential(3.0)):
        ms = MomentSequence(w)
        print(f"  {w.label}: {ms.log_convexity_defect(500):.3e}")


if __name__ == "__main__":
    main()
