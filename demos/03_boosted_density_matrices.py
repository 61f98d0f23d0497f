#!/usr/bin/env python3
"""Reduced spin density matrices of the boosted entangled pair.

Starting from sin(theta)|01> + cos(theta)|10>, boosting one or both
particles and tracing momentum leaves X-shaped 4x4 spin states.  This
demo prints them, reduces them to single-particle 2x2 states, and shows
that a maximally entangled pair hides the boost from each marginal.

The constructors take one F, or one (I1, I3) moment row, per point and
return a stack of states; this demo builds stacks of one point.
"""

import math

import numpy as np

from boostcoh import (
    WavePacket,
    boost_from_beta,
    f_factor,
    moments_quadrature,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)



def marginal_diagonal(rho, keep):
    """Diagonal of the 2x2 state of one spin of the first point: the other spin traced out."""
    blocks = rho.entries[0].real.reshape(2, 2, 2, 2)  # (spin 1, spin 2) x (spin 1, spin 2)
    return np.einsum("ikik->i" if keep == "first" else "kiki->i", blocks)


theta = math.pi / 6
pkt = WavePacket(n=2, sigma=100.0, mass=939.36)
b1 = boost_from_beta(0.95)
b2 = boost_from_beta(0.8)
eps = np.array([pkt.sigma_over_m])
f1 = f_factor(pkt.n, b1, eps)
f2 = f_factor(pkt.n, b2, eps)

print("=" * 72)
print(f"One boosted particle (theta = pi/6, beta = 0.95, F = {f1[0]:.6f})")
print("=" * 72)
rho1 = rho_single_boost_perturbative(theta, f1)
print(np.array_str(rho1.entries[0].real, precision=6, suppress_small=True))
print("basis order |00>, |01>, |10>, |11>; the X shape separates the")
print("{|00>,|11>} corner block from the {|01>,|10>} inner block")

print()
print("=" * 72)
print("Quadrature-fed matrix (same point, no expansion)")
print("=" * 72)
m1, _ = moments_quadrature(pkt.n, b1, eps)
rho1_exact = rho_single_boost_general(theta, m1)
gap = np.max(np.abs(rho1_exact.entries - rho1.entries))
print(f"largest entrywise gap to the closed form: {gap:.3e}")
print(f"(fourth-order in sigma/m = {pkt.sigma_over_m:.4f}: about {pkt.sigma_over_m**4:.1e})")

print()
print("=" * 72)
print(f"Both particles boosted (F1 = {f1[0]:.6f}, F2 = {f2[0]:.6f})")
print("=" * 72)
rho12 = rho_dual_boost_perturbative(theta, f1, f2)
print(np.array_str(rho12.entries[0].real, precision=6, suppress_small=True))
m2, _ = moments_quadrature(pkt.n, b2, eps)
rho12_exact = rho_dual_boost_general(theta, m1, m2)
print(f"gap to the moment-exact construction: "
      f"{np.max(np.abs(rho12_exact.entries - rho12.entries)):.3e}")

print()
print("=" * 72)
print("Single-particle reductions")
print("=" * 72)
print("keep first spin: ", np.array_str(marginal_diagonal(rho12, "first"), precision=6))
print("keep second spin:", np.array_str(marginal_diagonal(rho12, "second"), precision=6))
print("each marginal is diagonal; off-diagonals vanish identically")

print()
print("At maximal entanglement (theta = pi/4) the marginals forget the boost:")
rho_max = rho_dual_boost_perturbative(math.pi / 4, f1, f2)
print("keep first spin: ", np.array_str(marginal_diagonal(rho_max, "first"), precision=12))
print("a non-maximal angle is required for the boost to leave a mark here.")
