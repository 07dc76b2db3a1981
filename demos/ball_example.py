#!/usr/bin/env python3
"""The two-variable unit ball: where the Hilbert-Schmidt property dies.

On the ball in C^2 with weight (1 - |z1|^2 - |z2|^2)^alpha the solution
operator acts on (0,1)-forms with holomorphic coefficients.  Each basis form
contributes an energy ~ 1/(n1+n2), and summing both form directions over the
integer quadrant diverges for every alpha -- in contrast to the disc, where
the one-variable sums always converge.
"""

import math

from dbarkit import (
    BallMomentGrid,
    ball_hs_partial_sum,
    ball_kernel_closed,
    ball_kernel_series,
    ball_moment_log,
    ball_moment_quadrature,
    form_energy,
)


def main():
    alpha = 0.0
    print("ball moments at alpha = 0 (c_(0,0)^2 = pi^2/2, c_(1,0)^2 = pi^2/6):")
    for n1, n2 in ((0, 0), (1, 0), (2, 3)):
        closed = ball_moment_log(alpha, n1, n2)
        quad = ball_moment_quadrature(alpha, n1, n2)
        print(f"  c_({n1},{n2})^2 = {math.exp(closed):.12g}   "
              f"|closed - quadrature| = {abs(closed - quad):.2e}")

    print("\nper-form energies (direction 1):")
    for n1, n2 in ((1, 1), (5, 5), (20, 20)):
        print(f"  ||S(u_({n1},{n2}) dzbar_1)||^2 = {form_energy(alpha, n1, n2, 1):.6g}")

    print("\npartial double sums keep growing (no Hilbert-Schmidt bound):")
    for N in (25, 50, 100, 200, 400):
        print(f"  N = {N:>4}: {ball_hs_partial_sum(alpha, N):>12.4f}")

    print("\nkernel: 1-D series in <z,w> vs (a+1)(a+2)/pi^2 (1 - <z,w>)^-(a+3):")
    z = (0.3 + 0.2j, -0.4j)
    w = (0.1 - 0.5j, 0.3 + 0.3j)
    for a in (0.0, 1.0, 2.5):
        s = ball_kernel_series(a, z, w)
        c = ball_kernel_closed(a, z, w)
        print(f"  alpha = {a}: series {s:.10g}, closed {c:.10g}")

    grid = BallMomentGrid.build(1.0, 12)
    sym = abs(grid.log_moments - grid.log_moments.T).max()
    print(f"\nmoment grid symmetry residue (exact by construction): {sym}")


if __name__ == "__main__":
    main()
