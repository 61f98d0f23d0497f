"""Boosted reduced spin density matrices for the entangled pair.

Starting from sin(theta)|01> + cos(theta)|10>, boosting one particle mixes
the spin amplitudes through the Wigner half-angle, and tracing out momentum
leaves a 4x4 spin state whose entries are bilinear in the moment integrals.
Boosting both particles does the same per particle.  |psi(p)|^2 is even
in p for every packet, so the odd moment I2 vanishes and the state is a
real X-state: two 2x2 blocks, on (|00>, |11>) and (|01>, |10>), which are
all the constructors build.

Two constructor families are provided:

* general (moment-based): entries carry the exact products of the
  (I1, I3) or per-particle (J, L) moments, so quadrature-fed matrices can
  be compared against the closed forms;
* perturbative (F-based): the integer-n first-order forms.

Each one-boost constructor is the two-boost one with particle 1 at rest.
Every constructor takes one F or one (I1, I3) row per point and returns
the stack of the points' states.

Basis ordering is |00>, |01>, |10>, |11> throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DensityMatrix
from .integrals import check_factor_sum

__all__ = [
    "rho_single_boost_general",
    "rho_single_boost_perturbative",
    "rho_dual_boost_general",
    "rho_dual_boost_perturbative",
]

# The (I1, I3) row of a particle at rest: no Wigner rotation, cos^2(phi/2) = 1.
REST = np.array([1.0, 0.0])


def rho_single_boost_general(theta: float, m: np.ndarray) -> DensityMatrix:
    """One-boost reduced state: :func:`rho_dual_boost_general` with particle 1 at rest.

    Entries are the moment-weighted outer product of the (C, A, D, B)
    amplitudes.
    """
    m = np.asarray(m, dtype=float)
    return rho_dual_boost_general(theta, np.broadcast_to(REST, m.shape), m)


def rho_single_boost_perturbative(theta: float, f: np.ndarray) -> DensityMatrix:
    """X-shaped one-boost states at integer n (I3 = F), for F in [0, 1/2)."""
    f = np.asarray(f, dtype=float)
    return rho_dual_boost_perturbative(theta, np.zeros_like(f), f)


def _checked_rows(shape: tuple, what: str, *args) -> list[np.ndarray]:
    """Each argument as a float array of one row per point, all of the same length.

    ``shape`` is a row's shape, ``what`` names the rows in the error.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    for a in arrays:
        if a.ndim != 1 + len(shape) or a.shape[1:] != shape:
            raise ValueError(f"{what} must have one row per point, got shape {a.shape}")
    if len({len(a) for a in arrays}) > 1:
        raise ValueError("per-point arguments must have the same length")
    return arrays


def rho_dual_boost_perturbative(theta: float, f1: np.ndarray, f2: np.ndarray) -> DensityMatrix:
    """X-shaped reduced states with both particles boosted (integer n).

    Corner block carries sin^2(theta) F1 + cos^2(theta) F2 and its swap;
    the inner block keeps weight 1 - F1 - F2.  ``f1`` and ``f2`` are F
    columns, one value per point.  The closed forms hold for F1 + F2 < 1/2,
    so a point outside raises ``ValueError``, which names the first one.
    """
    g1, g2 = _checked_rows((), "F columns", f1, f2)
    inside = check_factor_sum(g1, g2)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(f"F1 + F2 must be < 1/2, got {g1[k] + g2[k]} at point {k}")
    st, ct = math.sin(theta), math.cos(theta)
    # Products, not powers: they round like the entries of
    # rho_dual_boost_general, so the one-boost forms agree bit for bit.
    s2, c2, sc = st * st, ct * ct, st * ct
    rest = 1.0 - g1 - g2
    blocks = np.empty((len(g1), 2, 3))
    blocks[:, 0, 0] = s2 * g1 + c2 * g2
    blocks[:, 0, 1] = s2 * g2 + c2 * g1
    blocks[:, 0, 2] = -sc * (g1 + g2)
    blocks[:, 1, 0] = s2 * rest
    blocks[:, 1, 1] = c2 * rest
    blocks[:, 1, 2] = sc * rest
    return DensityMatrix(blocks)


def rho_dual_boost_general(theta: float, m1: np.ndarray, m2: np.ndarray) -> DensityMatrix:
    """Dual-boost reduced states with both particles' moments retained.

    Each entry is the exact bilinear polynomial in the per-particle
    moments obtained by integrating the outer product of the (P, Q, R, S)
    amplitudes; products like (1 - F1) F2 are kept instead of their
    first-order truncations.  I2 is zero, so an entry is two terms
    ((coef J) I), coef one of s^2, c^2, +/-sc (s, c = sin, cos theta), J
    a moment of ``m2`` and I of ``m1``, added to a zero start (a -0.0 sum
    becomes +0.0): the bits of the full contraction, signed zeros included.

    The argument order follows the corner convention of
    :func:`rho_dual_boost_perturbative` -- ``m1`` weights sin^2(theta) in
    the |00><00| corner -- so the two constructors agree entry by entry up
    to O(i3_1 * i3_2).  In that convention the one-boost state is
    ``rho_dual_boost_general(theta, REST, m)``, which
    :func:`rho_single_boost_general` returns; the opposite limit is the
    same matrix conjugated by the qubit swap at theta -> pi/2 - theta.

    ``m1`` and ``m2`` are (points x 2) arrays of (I1, I3) rows, such as
    :func:`~boostcoh.integrals.moments_quadrature` returns.  The rows are
    not checked as moments: the :class:`DensityMatrix` checks of the
    result apply, so a row that is not finite raises ``ValueError``.
    """
    m1s, m2s = _checked_rows((2,), "moments", m1, m2)
    st, ct = math.sin(theta), math.cos(theta)
    s2, c2, sc = st * st, ct * ct, st * ct
    (i1, i3), (j1, j3) = m1s.T, m2s.T
    blocks = np.empty((len(m1s), 2, 3))
    blocks[:, 0, 0] = ((s2 * j1) * i3 + (c2 * j3) * i1) + 0.0
    blocks[:, 0, 1] = ((c2 * j1) * i3 + (s2 * j3) * i1) + 0.0
    blocks[:, 0, 2] = ((-sc * j1) * i3 + (-sc * j3) * i1) + 0.0
    blocks[:, 1, 0] = ((s2 * j1) * i1 + (c2 * j3) * i3) + 0.0
    blocks[:, 1, 1] = ((c2 * j1) * i1 + (s2 * j3) * i3) + 0.0
    blocks[:, 1, 2] = ((sc * j1) * i1 + (sc * j3) * i3) + 0.0
    return DensityMatrix(blocks)
