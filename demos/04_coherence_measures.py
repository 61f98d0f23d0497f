#!/usr/bin/env python3
"""How the two coherence measures respond to Lorentz boosts.

The l1 measure (sum of off-diagonal magnitudes) is blind to the boost:
the mixing moves weight between the X blocks but the off-diagonal total
stays sin(2 theta).  The Frobenius measure (spectral distance from the
maximally mixed state) decays with the boost, the packet width, and the
exponent n -- and twice as fast when both particles are boosted.

Every function takes a column (one F, sigma/m or state per point) and
returns one value or row per point.
"""

import math

import numpy as np

from boostcoh import (
    boost_from_beta,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    hermitian_eigenvalues,
    rho_single_boost_perturbative,
    spectrum_dual_boost,
    spectrum_single_boost,
)

MASS = 939.36  # neutron rest mass, MeV

print("=" * 72)
print("l1 coherence ignores the boost (theta = pi/6)")
print("=" * 72)
theta = math.pi / 6
print(f"{'F':>8} {'c_l1':>20} {'sin(2 theta)':>14}")
factors = np.array([0.0, 0.01, 0.1, 0.4])
for f, value in zip(factors, c_l1(rho_single_boost_perturbative(theta, factors))):
    print(f"{f:8.2f} {value:20.15f} {math.sin(2 * theta):14.10f}")

print()
print("=" * 72)
print("Frobenius coherence decays (n = 2, sigma = 100 MeV, neutron mass)")
print("=" * 72)
eps = np.array([100.0 / MASS])
print(f"{'beta':>6} {'one boost':>12} {'both boosted':>13}")
for beta in (0.0, 0.3, 0.8, 0.95):
    b = boost_from_beta(beta)
    (single,) = c_frobenius_perturbative(2, (b,), eps)
    (dual,) = c_frobenius_perturbative(2, (b, b), eps)
    print(f"{beta:6.2f} {single:12.8f} {dual:13.8f}")
print("the two-boost deficit is exactly twice the one-boost deficit")

print()
print("=" * 72)
print("Closed-form spectra vs the Jacobi eigensolver")
print("=" * 72)
f = np.array([0.0037121883650715856])
fast = (boost_from_beta(0.95),)  # one boosted particle
spec = spectrum_single_boost(theta, f)
jac = hermitian_eigenvalues(rho_single_boost_perturbative(theta, f))
print("analytic:", [f"{v:.10f}" for v in spec[0]])
print("jacobi:  ", [f"{v:.10f}" for v in jac[0]])
print(f"c_F from the spectrum: {c_frobenius(spec)[0]:.10f}")
print(f"closed-form c_F:       {c_frobenius_perturbative(2, fast, eps)[0]:.10f}")
print("the two differ at O(F^2), far below the leading decay")

print()
print("=" * 72)
print("Growth with the exponent n (beta = 0.95)")
print("=" * 72)
print(f"{'n':>3} {'c_F (one boost)':>16}")
for n in (0, 1, 2, 4, 8):
    print(f"{n:3d} {c_frobenius_perturbative(n, fast, eps)[0]:16.8f}")
print("wider effective packets (larger n) lose coherence faster")

print()
print("At first order the dual-boost Frobenius measure depends only on F1 + F2:")
total = 0.006
f1 = np.array([0.0, 0.25, 0.5]) * total
f2 = total - f1
for a, b, value in zip(f1, f2, c_frobenius(spectrum_dual_boost(theta, f1, f2))):
    print(f"  F1 = {a:.4f}, F2 = {b:.4f}:  c_F = {value:.12f}")
