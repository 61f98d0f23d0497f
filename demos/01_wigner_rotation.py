#!/usr/bin/env python3
"""Walk through the Wigner rotation of a boosted spin-1/2 particle.

A particle moving along x with momentum p, watched from a frame boosted
along z, picks up a momentum-dependent spin rotation about y.  This demo
prints the boost kinematics and the half-angle quantities that the
density-matrix pipeline integrates over momentum.
"""

import math

from boostcoh import boost_from_beta, half_angle_perp

print("=" * 72)
print("Boost kinematics")
print("=" * 72)
for beta in (0.0, 0.3, 0.8, 0.95):
    b = boost_from_beta(beta)
    print(f"beta = {beta:4.2f}:  alpha = {b.alpha:8.5f}   "
          f"sinh = {b.sinh_alpha:8.5f}   cosh = {b.cosh_alpha:8.5f}")

print()
print("=" * 72)
print("Half-angle quantities vs momentum (beta = 0.95, boost z, motion x)")
print("=" * 72)
boost = boost_from_beta(0.95)
print(f"{'p/m':>6} {'cos^2(phi/2)':>14} {'sin^2(phi/2)':>14} {'sin*cos':>12} {'phi [rad]':>10}")
for x in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
    t = half_angle_perp(boost, x)
    phi = 2 * math.atan2(t.sincos_half / math.sqrt(t.cos2_half), math.sqrt(t.cos2_half))
    print(f"{x:6.2f} {t.cos2_half:14.9f} {t.sin2_half:14.9f} {t.sincos_half:12.9f} {phi:10.6f}")

print()
print("The rotation never saturates: even at p/m -> infinity the angle")
print("stays below pi because the half-angle cosine is bounded away from 0.")
