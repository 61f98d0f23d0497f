#!/usr/bin/env python3
"""Walk through the Wigner rotation of a boosted spin-1/2 particle.

A particle moving along x with momentum p, watched from a frame boosted
along z, picks up a momentum-dependent spin rotation about y.  This demo
prints the boost kinematics and the half-angle quantities that the
density-matrix pipeline integrates over momentum.
"""

import math

import numpy as np

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
p_over_m = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
# one row (cos^2, sin^2, sin*cos) of phi/2 per p/m
rows = half_angle_perp(boost, p_over_m)
print(f"{'p/m':>6} {'cos^2(phi/2)':>14} {'sin^2(phi/2)':>14} {'sin*cos':>12} {'phi [rad]':>10}")
for x, (cos2, sin2, sincos) in zip(p_over_m, rows):
    phi = 2 * math.atan2(sincos / math.sqrt(cos2), math.sqrt(cos2))
    print(f"{x:6.2f} {cos2:14.9f} {sin2:14.9f} {sincos:12.9f} {phi:10.6f}")

print()
print("The rotation never saturates: even at p/m -> infinity the angle")
print("stays below pi because the half-angle cosine is bounded away from 0.")
