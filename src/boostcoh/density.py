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
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import DensityMatrix
from .integrals import MomentIntegrals, PerturbativeFactor, check_factor_sum

__all__ = [
    "SpinAmplitudesSingle",
    "SpinAmplitudesDual",
    "amplitudes_single",
    "amplitudes_dual",
    "rho_single_boost_general",
    "rho_single_boost_perturbative",
    "rho_dual_boost_general",
    "rho_dual_boost_perturbative",
    "partial_trace",
]

# Moments of a particle at rest: no Wigner rotation, cos^2(phi/2) = 1.
REST = MomentIntegrals(i1=1.0, i2=0.0, i3=0.0, method="perturbative")


@dataclass(frozen=True)
class SpinAmplitudesSingle:
    """Amplitudes (A, B, C, D) of |01>, |11>, |00>, |10> after one boost."""

    a_coef: float
    b_coef: float
    c_coef: float
    d_coef: float

    def __post_init__(self) -> None:
        total = self.a_coef**2 + self.b_coef**2 + self.c_coef**2 + self.d_coef**2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, sum of squares = {total}")


@dataclass(frozen=True)
class SpinAmplitudesDual:
    """Amplitudes (P, Q, R, S) of |00>, |01>, |10>, |11> after two boosts."""

    p_coef: float
    q_coef: float
    r_coef: float
    s_coef: float

    def __post_init__(self) -> None:
        total = self.p_coef**2 + self.q_coef**2 + self.r_coef**2 + self.s_coef**2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, sum of squares = {total}")


def _check_half_angle(pair, name: str) -> tuple[float, float]:
    c, s = float(pair[0]), float(pair[1])
    if abs(c * c + s * s - 1.0) > 1e-10:
        raise ValueError(f"{name}: cos^2 + sin^2 = {c * c + s * s}, expected 1 within 1e-10")
    return c, s


def amplitudes_single(theta: float, phi_half) -> SpinAmplitudesSingle:
    """Spin amplitudes when one particle is boosted.

    ``phi_half`` is the (cos(phi/2), sin(phi/2)) pair of its Wigner
    rotation:

        A = sin(theta) cos(phi/2)    B = -sin(theta) sin(phi/2)
        C = cos(theta) sin(phi/2)    D = cos(theta) cos(phi/2)
    """
    c, s = _check_half_angle(phi_half, "phi_half")
    return SpinAmplitudesSingle(
        a_coef=math.sin(theta) * c,
        b_coef=-math.sin(theta) * s,
        c_coef=math.cos(theta) * s,
        d_coef=math.cos(theta) * c,
    )


def amplitudes_dual(theta: float, phi1_half, phi2_half) -> SpinAmplitudesDual:
    """Spin amplitudes when both particles are boosted.

    With phi2 = 0 this reduces to the single-boost amplitudes under the
    mapping P -> C, Q -> A, R -> D, S -> B.
    """
    c1, s1 = _check_half_angle(phi1_half, "phi1_half")
    c2, s2 = _check_half_angle(phi2_half, "phi2_half")
    st, ct = math.sin(theta), math.cos(theta)
    return SpinAmplitudesDual(
        p_coef=st * c1 * s2 + ct * s1 * c2,
        q_coef=st * c1 * c2 - ct * s1 * s2,
        r_coef=-(st * s1 * s2 - ct * c1 * c2),
        s_coef=-(st * s1 * c2 + ct * c1 * s2),
    )


def rho_single_boost_general(theta: float, m) -> DensityMatrix:
    """One-boost reduced state: :func:`rho_dual_boost_general` with particle 1 at rest.

    Entries are the moment-weighted outer product of the (C, A, D, B)
    amplitudes; nonzero I2 populates the off-X positions.
    """
    return rho_dual_boost_general(theta, REST, m)


def rho_single_boost_perturbative(theta: float, f) -> DensityMatrix:
    """X-shaped one-boost state at integer n (I2 = 0, I3 = F), for F in [0, 1/2)."""
    return rho_dual_boost_perturbative(theta, PerturbativeFactor(0.0), f)


def _per_point(*args) -> tuple[bool, list, ...]:
    """Whether every argument is one value, then each argument as a per-point list.

    An argument is one value or a sequence of them, one per point; a lone
    value is repeated to the length of the sequences.
    """
    lists = [None if isinstance(a, (MomentIntegrals, PerturbativeFactor)) else list(a)
             for a in args]
    count = max((len(x) for x in lists if x is not None), default=1)
    if any(x is not None and len(x) != count for x in lists):
        raise ValueError("per-point arguments must have the same length")
    lone = all(x is None for x in lists)
    return (lone, *([a] * count if x is None else x for a, x in zip(args, lists)))


def rho_dual_boost_perturbative(theta: float, f1, f2) -> DensityMatrix:
    """X-shaped reduced state with both particles boosted (integer n).

    Corner block carries sin^2(theta) F1 + cos^2(theta) F2 and its swap;
    the inner block keeps weight 1 - F1 - F2.  Requires F1 + F2 < 1/2 so
    the first-order matrix stays positive semidefinite.

    ``f1`` and ``f2`` are each a :class:`PerturbativeFactor` or a sequence
    of them, one per point; with a sequence the result is the stack of the
    points' states, else one state.  A lone factor is shared by all points.
    """
    lone, f1s, f2s = _per_point(f1, f2)
    for pair in zip(f1s, f2s):
        check_factor_sum(*pair)
    st, ct = math.sin(theta), math.cos(theta)
    # Products, not powers: they round like the einsum in rho_dual_boost_general,
    # so the one-boost forms agree bit for bit.
    s2, c2, sc = st * st, ct * ct, st * ct
    g1 = np.array([f.f for f in f1s])
    g2 = np.array([f.f for f in f2s])
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


def _moment_matrices(ms: list) -> np.ndarray:
    """Per point, the symmetric 2x2 moment matrix [[I1, I2], [I2, I3]]."""
    return np.array([[m.i1, m.i2, m.i2, m.i3] for m in ms]).reshape(-1, 2, 2)


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

    ``m1`` and ``m2`` are each a :class:`MomentIntegrals` or a sequence of
    them, one per point, as for :func:`rho_dual_boost_perturbative`.
    """
    table = _dual_coefficient_table(theta)
    lone, m1s, m2s = _per_point(m1, m2)
    mom1, mom2 = _moment_matrices(m1s), _moment_matrices(m2s)
    # m1 feeds the second amplitude slot (and m2 the first): that is what
    # aligns the bilinear expansion with the closed-form corner layout.
    rho = np.einsum("aij,bkl,pik,pjl->pab", table, table, mom2, mom1).astype(complex)
    return DensityMatrix(rho[0] if lone else rho)


def partial_trace(rho4: DensityMatrix, keep: Literal["first", "second"]) -> DensityMatrix:
    """Trace out one qubit of a 4x4 state in the fixed product basis."""
    if rho4.dim != 4:
        raise ValueError(f"partial trace needs a 4x4 state, got dim {rho4.dim}")
    blocks = rho4.entries.reshape(2, 2, 2, 2)
    if keep == "first":
        reduced = np.einsum("ikjk->ij", blocks)
    elif keep == "second":
        reduced = np.einsum("kikj->ij", blocks)
    else:
        raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
    return DensityMatrix(reduced)
