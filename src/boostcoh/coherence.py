"""Quantum-coherence measures of the boosted reduced density matrices.

Two measures are implemented:

* the l1 norm, sum_{i != j} |rho_ij| -- basis-dependent, so it is always
  computed from matrix entries, never from a spectrum;
* the Frobenius measure sqrt((4/3) sum_i (lambda_i - 1/4)^2) --
  basis-independent, computed from the four eigenvalues.

The boosted matrices are X-shaped in the product basis, so their spectra
come in closed form (union of two 2x2 blocks).  The numerical check on
them is a cyclic Jacobi eigensolver, which on an X-state makes one
rotation per block.

Every function takes one matrix, F or spectrum per point and returns one
value or row per point.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import BoostParams, DensityMatrix
from .integrals import check_factor_sum, check_n_in_bounds, f_factor

__all__ = [
    "c_l1",
    "c_frobenius",
    "spectrum_single_boost",
    "spectrum_dual_boost",
    "hermitian_eigenvalues",
    "c_frobenius_perturbative",
]

JACOBI_OFF_TOL = 1e-13


def _descending(values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` sorted descending, as ``sorted(row, reverse=True)`` does."""
    return -np.sort(-values, axis=-1, kind="stable")


def c_l1(rho: DensityMatrix) -> np.ndarray:
    """Sum of absolute values of the off-diagonal entries, one value per matrix."""
    return _off_diagonal_sum(np.abs(rho.blocks[..., 2]))


def _off_diagonal_sum(v: np.ndarray) -> np.ndarray:
    """Per state, the sum over the 12 off-diagonal entries of its 4x4 matrix.

    ``v`` holds one term per block's pivot, each the term of both entries
    the pivot sits at.  The terms are added as numpy sums a lone 1-D row
    of the 12, zeros dropped: (v_0 + 2 v_1) + v_0, for the pivots of the
    blocks on (|00>, |11>) and (|01>, |10>).
    """
    return (v[:, 0] + 2.0 * v[:, 1]) + v[:, 0]


def _fold(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` added one value after another from 0, as ``sum`` adds a tuple."""
    total = np.zeros(v.shape[:-1])
    for i in range(v.shape[-1]):
        total += v[..., i]
    return total


def c_frobenius(spec: np.ndarray) -> np.ndarray:
    """sqrt((4/3) sum (lambda_i - 1/4)^2): distance from maximal mixing.

    ``spec`` is a (points x 4) array of eigenvalues, one row per point; the
    result has one value per row, NaN where the row holds NaN.  A row is
    sorted descending and its terms added in that order from 0.  Rows are
    not checked as spectra; the state checks and the F gates decide them.
    """
    values = np.asarray(spec, dtype=float)
    if values.ndim != 2 or values.shape[1] != 4:
        raise ValueError(f"spectra must be a (points x 4) array, got shape {values.shape}")
    terms = np.float_power(_descending(values) - 0.25, 2.0)
    return np.sqrt(4.0 / 3.0 * _fold(terms))


def spectrum_single_boost(theta: float, f: np.ndarray) -> np.ndarray:
    """Closed-form spectra {1 - F, F, 0, 0}: :func:`spectrum_dual_boost` with F1 = 0."""
    return spectrum_dual_boost(theta, np.zeros_like(f), f)


def spectrum_dual_boost(theta: float, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Closed-form spectrum of the dual-boost X matrix.

    The corner block contributes (F1 + F2)/2 +/- sqrt(disc)/2 with
    disc = F1^2 + F2^2 - 2 F1 F2 cos(4 theta); the inner block contributes
    1 - (F1 + F2) and 0.  The discriminant is evaluated as
    (F1 - F2)^2 + 4 F1 F2 sin^2(2 theta), which is the same polynomial but
    cannot round below zero, on F1, F2 exactly rescaled by a power of two
    so that the squares cannot underflow.

    ``f1`` and ``f2`` are F columns, one value per point.  The result is a
    (points x 4) array of descending eigenvalues, a row NaN where
    F1 + F2 >= 1/2 or an F is NaN.  The rows are not checked as spectra:
    with F1, F2 >= 0 and F1 + F2 < 1/2 the four values lie in [0, 1] and add
    up to 1 within rounding.
    """
    g1, g2 = np.asarray(f1, dtype=float), np.asarray(f2, dtype=float)
    s = g1 + g2
    _, e = np.frexp(np.maximum(g1, g2))
    a, b = np.ldexp(g1, -e), np.ldexp(g2, -e)
    disc = np.float_power(a - b, 2.0) + 4.0 * a * b * math.sin(2.0 * theta) ** 2
    half_gap = np.ldexp(np.sqrt(disc), e) / 2.0
    values = np.stack([1.0 - s, s / 2.0 + half_gap, s / 2.0 - half_gap, np.zeros_like(s)], axis=-1)
    values = _descending(values)
    values[~check_factor_sum(g1, g2)] = np.nan
    return values


def hermitian_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues by cyclic Jacobi rotations on the matrix entries.

    Serves as the numerically independent check on the analytic spectra.
    The result is a (points x 4) array of descending eigenvalues, one row
    per matrix.  The rows are not checked as spectra: the matrix passed
    the :class:`DensityMatrix` trace and PSD checks, and a rotation keeps
    its block's trace and eigenvalues within rounding.

    Sweeps would run until the off-diagonal Frobenius norm drops below
    1e-13.  On an X-state, the only state a :class:`DensityMatrix` holds, a
    sweep skips every pivot off the X, since it is zero.  Rotating the
    pivot (p, q) of one block moves only zeros and the other block's
    entries stay put, so after the first sweep every off-diagonal entry is
    zero and the second one stops.  A block is therefore rotated at most
    once, when the matrix's norm is not below the tolerance and its pivot
    c is nonzero.  Its (p, q) rotation, columns and then rows, is
    evaluated on only the four entries that give the new (p, p) and
    (q, q), each operation in the order the full rotation makes it.
    """
    a, d, c = rho.blocks[..., 0].copy(), rho.blocks[..., 1].copy(), rho.blocks[..., 2]
    turn = ~(np.sqrt(_off_diagonal_sum(c * c)) < JACOBI_OFF_TOL)
    for b in range(2):
        k = turn & (c[:, b] != 0.0)
        app, apq, aqq = a[k, b], c[k, b], d[k, b]
        r = np.abs(apq)
        with np.errstate(over="ignore"):  # a huge tau gives t = 0, as in scalar code
            tau = (aqq - app) / (2.0 * r)
            # 1/(tau + sqrt(1 + tau^2)), or -1/(-tau + sqrt(1 + tau^2)) for tau < 0
            u = np.abs(tau)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (u + np.sqrt(1.0 + u * u))
        cos = 1.0 / np.sqrt(1.0 + t * t)
        # a real pivot's sign stands in for a complex pivot's phase
        sin = t * cos * np.sign(apq)
        # (p, p), (p, q), (q, p), (q, q) after the column step, then the
        # diagonal after the row step
        bpp, bpq = cos * app - sin * apq, sin * app + cos * apq
        bqp, bqq = cos * apq - sin * aqq, sin * apq + cos * aqq
        a[k, b] = cos * bpp - sin * bqp
        d[k, b] = sin * bpq + cos * bqq
    # the diagonal in basis order, |00>, |01>, |10>, |11>
    diag = np.stack([a[:, 0], a[:, 1], d[:, 1], d[:, 0]], axis=-1)
    return np.sort(diag)[:, ::-1]


def c_frobenius_perturbative(
    n: int, boosts: Sequence[BoostParams], sigma_over_m: np.ndarray, factors=None
) -> np.ndarray:
    """O((sigma/m)^2) Frobenius coherence 1 - (4/3) sum_i F_i, one value per sigma/m.

    ``boosts`` holds one :class:`BoostParams` when a single particle is
    boosted and two when both are.  A value is NaN where n falls outside
    the n bounds for that many boosts, or where F1 + F2 >= 1/2, as the
    closed spectrum's row is.  ``factors``, the F column of each boost at
    those points, spares a caller that already holds them (a sweep does) a
    second :func:`f_factor`.
    """
    inside = check_n_in_bounds(n, sigma_over_m, len(boosts))
    if factors is None:
        factors = [f_factor(n, b, np.where(inside, sigma_over_m, np.nan)) for b in boosts]
    inside &= check_factor_sum(*factors)
    return np.where(inside, 1.0 - (4.0 / 3.0) * sum(factors), np.nan)
