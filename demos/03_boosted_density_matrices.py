#!/usr/bin/env python3
"""Reduced spin density matrices of the boosted entangled pair.

Starting from sin(theta)|01> + cos(theta)|10>, boosting one or both
particles and tracing momentum leaves X-shaped 4x4 spin states: two real
2x2 blocks, on (|00>, |11>) and (|01>, |10>), and zeros elsewhere.  This
demo prints the blocks, reduces the states to single-particle 2x2 states,
and shows that a maximally entangled pair hides the boost from each
marginal.

The constructors take one F, or one (I1, I3) moment row, per point and
return a stack of states, each held as its blocks' (a, d, c) numbers for
[[a, c], [c, d]]; this demo builds stacks of one point.
"""

import math

import numpy as np

from boostcoh import (
    boost_from_beta,
    f_factor,
    moments_quadrature,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)


def print_blocks(rho):
    """The two blocks of the first point's state, as 2x2 matrices."""
    for name, (a, d, c) in zip(("{|00>,|11>}", "{|01>,|10>}"), rho.blocks[0]):
        print(f"{name} block:")
        print(np.array_str(np.array([[a, c], [c, d]]), precision=6, suppress_small=True))


def marginal_diagonal(rho, keep):
    """Diagonal of the 2x2 state of one spin of the first point: the other spin traced out.

    The diagonal of the 4x4 state is (a0, a1, d1, d0) on |00>, |01>, |10>,
    |11>; the entries off it that a partial trace collects lie off the X,
    so both marginals are diagonal.
    """
    (a0, d0, _), (a1, d1, _) = rho.blocks[0]
    if keep == "first":
        return np.array([a0 + a1, d1 + d0])
    return np.array([a0 + d1, a1 + d0])


theta = math.pi / 6
n, sigma, mass = 2, 100.0, 939.36  # packet exponent, width (MeV), neutron mass (MeV)
b1 = boost_from_beta(0.95)
b2 = boost_from_beta(0.8)
eps = np.array([sigma / mass])
f1 = f_factor(n, b1, eps)
f2 = f_factor(n, b2, eps)

print("=" * 72)
print(f"One boosted particle (theta = pi/6, beta = 0.95, F = {f1[0]:.6f})")
print("=" * 72)
rho1 = rho_single_boost_perturbative(theta, f1)
print_blocks(rho1)
print("every entry of the 4x4 state outside these two blocks is zero")

print()
print("=" * 72)
print("Quadrature-fed matrix (same point, no expansion)")
print("=" * 72)
m1, _ = moments_quadrature(n, b1, eps)
rho1_exact = rho_single_boost_general(theta, m1)
gap = np.max(np.abs(rho1_exact.blocks - rho1.blocks))
print(f"largest entrywise gap to the closed form: {gap:.3e}")
print(f"(fourth-order in sigma/m = {eps[0]:.4f}: about {eps[0]**4:.1e})")

print()
print("=" * 72)
print(f"Both particles boosted (F1 = {f1[0]:.6f}, F2 = {f2[0]:.6f})")
print("=" * 72)
rho12 = rho_dual_boost_perturbative(theta, f1, f2)
print_blocks(rho12)
m2, _ = moments_quadrature(n, b2, eps)
rho12_exact = rho_dual_boost_general(theta, m1, m2)
print(f"gap to the moment-exact construction: "
      f"{np.max(np.abs(rho12_exact.blocks - rho12.blocks)):.3e}")

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
