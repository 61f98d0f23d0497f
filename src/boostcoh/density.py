"""Boosted reduced spin density matrices for the entangled pair.

Starting from sin(theta)|01> + cos(theta)|10>, boosting one particle mixes
the spin amplitudes through the Wigner half-angle, and tracing out momentum
leaves a 4x4 spin state whose entries are bilinear in the moment integrals.
Boosting both particles does the same per particle.

Two constructor families are provided:

* general (moment-based): entries carry the full (I1, I2, I3) or the
  per-particle (J, K, L) triples, so quadrature-fed matrices can be
  compared against the closed forms;
* perturbative (F-based): the integer-n forms where the odd moments vanish
  and the matrix is X-shaped.

Each one-boost constructor is the two-boost one with particle 1 at rest.

Basis ordering is |00>, |01>, |10>, |11> throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DensityMatrix
from .integrals import MomentIntegrals, PerturbativeFactor, check_factor_sum

__all__ = [
    "rho_single_boost_general",
    "rho_single_boost_perturbative",
    "rho_dual_boost_general",
    "rho_dual_boost_perturbative",
]

# Moments of a particle at rest: no Wigner rotation, cos^2(phi/2) = 1.
REST = MomentIntegrals(i1=1.0, i2=0.0, i3=0.0)


def rho_single_boost_general(theta: float, m) -> DensityMatrix:
    """One-boost reduced state: :func:`rho_dual_boost_general` with particle 1 at rest.

    Entries are the moment-weighted outer product of the (C, A, D, B)
    amplitudes; nonzero I2 populates the off-X positions.
    """
    return rho_dual_boost_general(theta, REST, m)


def rho_single_boost_perturbative(theta: float, f) -> DensityMatrix:
    """X-shaped one-boost state at integer n (I2 = 0, I3 = F), for F in [0, 1/2)."""
    return rho_dual_boost_perturbative(theta, PerturbativeFactor(0.0), f)


def _per_point(*args) -> tuple:
    """Whether every argument is one value, then each argument as per-point rows.

    An argument is one value or an array with one row per point: F for a
    :class:`PerturbativeFactor`, (I1, I2, I3) for a :class:`MomentIntegrals`.
    A lone value is repeated to the length of the arrays.
    """
    lone = [isinstance(a, (MomentIntegrals, PerturbativeFactor)) for a in args]
    lengths = {len(a) for a, one in zip(args, lone) if not one}
    if len(lengths) > 1:
        raise ValueError("per-point arguments must have the same length")
    count = lengths.pop() if lengths else 1
    rows = [
        np.full(count, a.f) if isinstance(a, PerturbativeFactor)
        else np.tile([a.i1, a.i2, a.i3], (count, 1)) if isinstance(a, MomentIntegrals)
        else np.asarray(a, dtype=float)
        for a in args
    ]
    return (all(lone), *rows)


def rho_dual_boost_perturbative(theta: float, f1, f2) -> DensityMatrix:
    """X-shaped reduced state with both particles boosted (integer n).

    Corner block carries sin^2(theta) F1 + cos^2(theta) F2 and its swap;
    the inner block keeps weight 1 - F1 - F2.  Requires F1 + F2 < 1/2 so
    the first-order matrix stays positive semidefinite.

    ``f1`` and ``f2`` are each a :class:`PerturbativeFactor` or an array of
    F, one per point; with an array the result is the stack of the points'
    states, else one state.  A lone factor is shared by all points.
    """
    lone, g1, g2 = _per_point(f1, f2)
    inside = check_factor_sum(g1, g2)
    if not inside.all():  # the first point outside raises its own error
        k = int(np.argmin(inside))
        check_factor_sum(PerturbativeFactor(g1[k].item()), PerturbativeFactor(g2[k].item()))
    st, ct = math.sin(theta), math.cos(theta)
    # Products, not powers: they round like the einsum in rho_dual_boost_general,
    # so the one-boost forms agree bit for bit.
    s2, c2, sc = st * st, ct * ct, st * ct
    rest = 1.0 - g1 - g2
    rho = np.zeros((len(g1), 4, 4), dtype=complex)
    rho[:, 0, 0] = s2 * g1 + c2 * g2
    rho[:, 0, 3] = rho[:, 3, 0] = -sc * (g1 + g2)
    rho[:, 1, 1] = s2 * rest
    rho[:, 1, 2] = rho[:, 2, 1] = sc * rest
    rho[:, 2, 2] = c2 * rest
    rho[:, 3, 3] = s2 * g2 + c2 * g1
    return DensityMatrix(rho[0] if lone else rho)


# Coefficient tables for the bilinear expansion of the two-boost state: the
# amplitude of each basis state is sum_ij C[state, i, j] u_i v_j with
# u = (cos(phi1/2), sin(phi1/2)) and v = (cos(phi2/2), sin(phi2/2)).
def _dual_coefficient_table(theta: float) -> np.ndarray:
    st, ct = math.sin(theta), math.cos(theta)
    table = np.zeros((4, 2, 2))
    table[0, 0, 1] = st  # P
    table[0, 1, 0] = ct
    table[1, 0, 0] = st  # Q
    table[1, 1, 1] = -ct
    table[2, 1, 1] = -st  # R
    table[2, 0, 0] = ct
    table[3, 1, 0] = -st  # S
    table[3, 0, 1] = -ct
    return table


def _moment_matrices(moments: np.ndarray) -> np.ndarray:
    """Per (I1, I2, I3) row, the symmetric 2x2 moment matrix [[I1, I2], [I2, I3]]."""
    return moments[:, [0, 1, 1, 2]].reshape(-1, 2, 2)


def rho_dual_boost_general(theta: float, m1, m2) -> DensityMatrix:
    """Dual-boost reduced state with both moment triples retained.

    Each entry is the exact bilinear polynomial in the six per-particle
    moments obtained by integrating the outer product of the (P, Q, R, S)
    amplitudes.  This extends the X-shaped closed form: nonzero odd moments
    populate the off-X positions, and products like (1 - F1) F2 are kept
    instead of their first-order truncations.

    The argument order follows the corner convention of
    :func:`rho_dual_boost_perturbative` -- ``m1`` weights sin^2(theta) in
    the |00><00| corner -- so for X-shaped inputs (i2 = 0) the two
    constructors agree entry by entry up to O(i3_1 * i3_2).  In that
    convention the one-boost state is ``rho_dual_boost_general(theta, REST, m)``,
    which :func:`rho_single_boost_general` returns; the opposite limit is
    the same matrix conjugated by the qubit swap at theta -> pi/2 - theta.

    ``m1`` and ``m2`` are each a :class:`MomentIntegrals` or a
    (points x 3) array of (I1, I2, I3) rows, such as the block form of
    :func:`~boostcoh.integrals.moments_quadrature` returns, as for
    :func:`rho_dual_boost_perturbative`.  The rows are not checked as
    triples; the :class:`DensityMatrix` checks of the result apply.
    """
    table = _dual_coefficient_table(theta)
    lone, m1s, m2s = _per_point(m1, m2)
    mom1, mom2 = _moment_matrices(m1s), _moment_matrices(m2s)
    # m1 feeds the second amplitude slot (and m2 the first): that is what
    # aligns the bilinear expansion with the closed-form corner layout.
    rho = np.einsum("aij,bkl,pik,pjl->pab", table, table, mom2, mom1).astype(complex)
    return DensityMatrix(rho[0] if lone else rho)
