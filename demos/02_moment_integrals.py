#!/usr/bin/env python3
"""Exact moment integrals vs the narrow-packet closed forms.

The spin-mixing weight of a boosted generalized Gaussian packet
p^n exp(-p^2 / 2 sigma^2) is carried by the momentum moments (I1, I3) of the
Wigner half-angle.  Gauss-Hermite quadrature evaluates them exactly; in
the regime sigma/m << 1 they collapse to (1 - F, F) with

    F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2.

This demo shows the agreement, the fourth-order truncation scaling, and
the allowed range of the exponent n.
"""

import numpy as np

from boostcoh import (
    boost_from_beta,
    f_factor,
    moments_quadrature,
    n_bounds,
)
from boostcoh.integrals import N_LOWER

boost = boost_from_beta(0.95)

# Every function takes a column of sigma/m values and returns one value or
# row per point: moments_quadrature gives (I1, I3) rows and, per point,
# None or the error of a point that failed.
print("=" * 72)
print("Quadrature moments vs closed form (beta = 0.95, mass = 1)")
print("=" * 72)
print(f"{'n':>3} {'sigma/m':>8} {'I3 (quadrature)':>17} {'F (closed form)':>17} {'|I3 - F|':>11}")
eps = np.array([0.01, 0.05, 0.1])
for n in (0, 2, 4):
    moments, errors = moments_quadrature(n, boost, eps)
    assert not errors.any()
    for e, (_, i3), f in zip(eps, moments, f_factor(n, boost, eps)):
        print(f"{n:3d} {e:8.2f} {i3:17.10e} {f:17.10e} {abs(i3 - f):11.2e}")

print()
print("The gap shrinks like (sigma/m)^4: halving sigma cuts it 16x.")

print()
print("=" * 72)
print("Truncation scaling at n = 2")
print("=" * 72)
print(f"{'sigma/m':>8} {'|I3 - F| / (sigma/m)^4':>24}")
eps = np.array([0.02, 0.04, 0.08, 0.16])
moments, _ = moments_quadrature(2, boost, eps)
for e, ratio in zip(eps, np.abs(moments[:, 1] - f_factor(2, boost, eps)) / eps**4):
    print(f"{e:8.2f} {ratio:24.6f}")
print("a flat column confirms the fourth-order remainder")

print()
print("=" * 72)
print("The odd moment and the normalization")
print("=" * 72)
moments, _ = moments_quadrature(2, boost, np.array([0.1]))
i1, i3 = moments[0]
print("I2 = int |psi|^2 sin(phi/2) cos(phi/2) dp is not evaluated: |psi(p)|^2 is")
print("even in momentum and the integrand odd, so it vanishes for every packet.")
print(f"I1 + I3 - 1 at n = 2, sigma/m = 0.1: {i1 + i3 - 1.0:.1e}")

print()
print("=" * 72)
print("Allowed exponent range (keeps 0 <= coherence <= 1)")
print("=" * 72)
eps = np.array([0.05, 0.1, 0.3])
# n_bounds takes the number of boosted particles; the lower bound is open
for e, up_s, up_d in zip(eps, n_bounds(eps, 1), n_bounds(eps, 2)):
    print(f"sigma/m = {e:4.2f}:  one boost  n in ({N_LOWER}, {up_s:.1f}]   "
          f"two boosts  n in ({N_LOWER}, {up_d:.1f}]")
