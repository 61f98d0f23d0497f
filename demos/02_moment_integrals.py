#!/usr/bin/env python3
"""Exact moment integrals vs the narrow-packet closed forms.

The spin-mixing weight of a boosted generalized Gaussian packet
p^n exp(-p^2 / 2 sigma^2) is carried by three momentum moments of the
Wigner half-angle.  Gauss-Hermite quadrature evaluates them exactly; in
the regime sigma/m << 1 they collapse to (1 - F, 0, F) with

    F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2.

This demo shows the agreement, the fourth-order truncation scaling, and
the allowed range of the exponent n.
"""

from boostcoh import (
    WavePacket,
    boost_from_beta,
    f_factor,
    moments_quadrature,
    n_bounds,
)

boost = boost_from_beta(0.95)

print("=" * 72)
print("Quadrature moments vs closed form (beta = 0.95, mass = 1)")
print("=" * 72)
print(f"{'n':>3} {'sigma/m':>8} {'I3 (quadrature)':>17} {'F (closed form)':>17} {'|I3 - F|':>11}")
for n in (0, 2, 4):
    for eps in (0.01, 0.05, 0.1):
        m = moments_quadrature(WavePacket(n, eps, 1.0), boost)
        f = f_factor(n, boost, eps).f
        print(f"{n:3d} {eps:8.2f} {m.i3:17.10e} {f:17.10e} {abs(m.i3 - f):11.2e}")

print()
print("The gap shrinks like (sigma/m)^4: halving sigma cuts it 16x.")

print()
print("=" * 72)
print("Truncation scaling at n = 2")
print("=" * 72)
print(f"{'sigma/m':>8} {'|I3 - F| / (sigma/m)^4':>24}")
for eps in (0.02, 0.04, 0.08, 0.16):
    m = moments_quadrature(WavePacket(2, eps, 1.0), boost)
    f = f_factor(2, boost, eps).f
    print(f"{eps:8.2f} {abs(m.i3 - f) / eps**4:24.6f}")
print("a flat column confirms the fourth-order remainder")

print()
print("=" * 72)
print("The odd moment")
print("=" * 72)
m = moments_quadrature(WavePacket(2, 0.1, 1.0), boost)
print(f"I2 from quadrature at integer n:      {m.i2!r}")
print("(the integrand is odd in momentum, so symmetric nodes cancel it exactly)")

print()
print("=" * 72)
print("Allowed exponent range (keeps 0 <= coherence <= 1)")
print("=" * 72)
for eps in (0.05, 0.1, 0.3):
    lo_s, hi_s = n_bounds(eps, "single_boost")
    lo_d, hi_d = n_bounds(eps, "dual_boost")
    print(f"sigma/m = {eps:4.2f}:  one boost  n in ({lo_s}, {hi_s:.1f}]   "
          f"two boosts  n in ({lo_d}, {hi_d:.1f}]")
