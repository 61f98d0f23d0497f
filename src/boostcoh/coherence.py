"""Quantum-coherence measures of the boosted reduced density matrices.

Two measures are implemented:

* the l1 norm, sum_{i != j} |rho_ij| -- basis-dependent, so it is always
  computed from matrix entries, never from a spectrum;
* the Frobenius measure sqrt((d/(d-1)) sum_i (lambda_i - 1/d)^2) --
  basis-independent, computed from eigenvalues.

The boosted matrices are X-shaped in the product basis, so their spectra
come in closed form (union of two 2x2 blocks).  The numerical check on
them is a cyclic Jacobi eigensolver, which on an X-state makes one
rotation per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _X_BLOCKS, BoostParams, DensityMatrix
from .integrals import PerturbativeFactor, check_factor_sum, check_n_in_bounds, f_factor

__all__ = [
    "Spectrum",
    "c_l1",
    "c_frobenius",
    "spectrum_single_boost",
    "spectrum_dual_boost",
    "hermitian_eigenvalues",
    "c_frobenius_perturbative",
]

JACOBI_OFF_TOL = 1e-13


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a trace-one state, sorted descending."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        values = _descending(np.array([self.eigenvalues], dtype=float))
        object.__setattr__(self, "eigenvalues", tuple(values[0].tolist()))
        (total,), (off_sum,), (off_range,) = _spectrum_faults(values)
        if off_sum:
            raise ValueError(f"eigenvalues sum to {total}, expected 1 within 1e-10")
        if off_range:
            raise ValueError(f"eigenvalues must lie in [0, 1]: {self.eigenvalues}")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _descending(values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` sorted descending, as ``sorted(row, reverse=True)`` does."""
    return -np.sort(-values, axis=-1, kind="stable")


def _spectrum_faults(values: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Per row of descending eigenvalues: its sum, and whether it fails each Spectrum check.

    The checks are a sum off 1 by more than 1e-10, and a value outside
    [0, 1] by more than 1e-10.  A NaN value fails the range check.
    """
    total = _fold(values)
    off_range = ~((-1e-10 <= values) & (values <= 1.0 + 1e-10)).all(axis=-1)
    return total.tolist(), np.abs(total - 1.0) > 1e-10, off_range


def _checked_spectra(values: np.ndarray) -> np.ndarray:
    """Rows sorted descending, NaN where a row fails a :class:`Spectrum` check."""
    values = _descending(values)
    _, off_sum, off_range = _spectrum_faults(values)
    values[off_sum | off_range] = np.nan
    return values


def c_l1(rho: DensityMatrix):
    """Sum of absolute values of the off-diagonal entries.

    A float for one matrix; for a stack, an array with one value per
    matrix.  Each matrix's moduli are added in the order numpy's ``sum``
    uses for a lone 1-D array, so a value does not depend on the stack it
    came in.
    """
    entries = rho.entries.reshape(-1, rho.dim, rho.dim)
    values = _sum_last_axis(np.abs(entries[:, ~np.eye(rho.dim, dtype=bool)]))
    return float(values[0]) if rho.entries.ndim == 2 else values


def _sum_last_axis(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` summed as numpy sums a lone 1-D row of 8 to 15 values.

    That is: 8 accumulators added as a tree, then the tail one at a time.
    Rows here hold the 12 off-diagonal entries of a 4x4 matrix.  A
    reduction along an axis of a 2-D array need not keep that order.
    """
    r = [v[..., i] for i in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(8, v.shape[-1]):
        total += v[..., i]
    return total


def _fold(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` added one value after another from 0, as ``sum`` adds a tuple."""
    total = np.zeros(v.shape[:-1])
    for i in range(v.shape[-1]):
        total += v[..., i]
    return total


def c_frobenius(spec, d: int):
    """sqrt((d/(d-1)) sum (lambda_i - 1/d)^2): distance from maximal mixing.

    ``spec`` is a :class:`Spectrum`, which gives a float, or a
    (points x d) array of eigenvalues, which gives one value per row: NaN
    where the row holds NaN or fails a :class:`Spectrum` check.  A row is
    sorted descending and its terms added in that order from 0, so a value
    is bit for bit the one-value call's.
    """
    lone = isinstance(spec, Spectrum)
    values = np.array([spec.eigenvalues] if lone else spec, dtype=float)
    if d != values.shape[-1]:
        raise ValueError(f"d = {d} does not match spectrum length {values.shape[-1]}")
    if d < 2:
        raise ValueError("coherence needs d >= 2")
    terms = np.float_power(_checked_spectra(values) - 1.0 / d, 2.0)
    coherence = np.sqrt(d / (d - 1.0) * _fold(terms))
    return coherence.item() if lone else coherence


def spectrum_single_boost(theta: float, f):
    """Closed-form spectrum {1 - F, F, 0, 0}: :func:`spectrum_dual_boost` with F1 = 0."""
    return spectrum_dual_boost(theta, PerturbativeFactor(0.0), f)


def spectrum_dual_boost(theta: float, f1, f2):
    """Closed-form spectrum of the dual-boost X matrix.

    The corner block contributes (F1 + F2)/2 +/- sqrt(disc)/2 with
    disc = F1^2 + F2^2 - 2 F1 F2 cos(4 theta); the inner block contributes
    1 - (F1 + F2) and 0.  The discriminant is evaluated as
    (F1 - F2)^2 + 4 F1 F2 sin^2(2 theta), which is the same polynomial but
    cannot round below zero, on F1, F2 exactly rescaled by a power of two
    so that the squares cannot underflow.

    Two :class:`PerturbativeFactor` give a :class:`Spectrum`, and raise
    ``ValueError`` unless F1 + F2 < 1/2.  Either factor may instead be an
    array of F, one per point (a lone factor is shared): the result is then
    a (points x 4) array of descending eigenvalues, a row NaN where
    F1 + F2 >= 1/2, an F is NaN, or the row fails a :class:`Spectrum`
    check.  The one-value call is a one-element call into the same code.
    """
    lone = isinstance(f1, PerturbativeFactor) and isinstance(f2, PerturbativeFactor)
    if lone:
        check_factor_sum(f1, f2)
    g1, g2 = (np.array([f.f]) if isinstance(f, PerturbativeFactor) else f for f in (f1, f2))
    s = g1 + g2
    _, e = np.frexp(np.maximum(g1, g2))
    a, b = np.ldexp(g1, -e), np.ldexp(g2, -e)
    disc = np.float_power(a - b, 2.0) + 4.0 * a * b * math.sin(2.0 * theta) ** 2
    half_gap = np.ldexp(np.sqrt(disc), e) / 2.0
    values = np.stack([1.0 - s, s / 2.0 + half_gap, s / 2.0 - half_gap, np.zeros_like(s)], axis=-1)
    if lone:
        return Spectrum(values[0].tolist())
    values[~check_factor_sum(g1, g2)] = np.nan
    return _checked_spectra(values)


def hermitian_eigenvalues(rho: DensityMatrix):
    """Eigenvalues by cyclic Jacobi rotations on the Hermitian entries.

    Sweeps would run until the off-diagonal Frobenius norm drops below
    1e-13.  On an X-state, the only state a :class:`DensityMatrix` holds,
    they rotate each block at most once, and :func:`_x_eigenvalues` makes
    those rotations alone.  Serves as the numerically independent check on
    the analytic spectra.

    One matrix gives a :class:`Spectrum`.  A stack gives a (points x 4)
    array of descending eigenvalues, NaN for a matrix that failed
    validation; each row is bit for bit the lone matrix's.
    """
    stack = rho.entries.reshape(-1, 4, 4)
    valid = np.array([e is None for e in rho.errors], dtype=bool)
    eigs = np.full(stack.shape[:-1], np.nan)
    eigs[valid] = _x_eigenvalues(stack[valid])
    return Spectrum(tuple(eigs[0].tolist())) if rho.entries.ndim == 2 else eigs


def _x_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each 4x4 X matrix of ``a``, as cyclic Jacobi sweeps give them.

    A sweep skips every pivot off the X, since it is zero.  Rotating the
    pivot (p, q) of one block moves only zeros and the other block's
    entries stay put, so after the first sweep every off-diagonal entry is
    zero and the second one stops.  A block is therefore rotated at most
    once, when the matrix's norm is not below the tolerance and its pivot
    is nonzero.  Its unitary (p, q) rotation, columns and then rows, is
    evaluated on only the four entries that give the new (p, p) and
    (q, q), each operation in the order the full rotation makes it.
    """
    diag = a.diagonal(axis1=1, axis2=2).copy()
    turn = ~(_off_norm(a) < JACOBI_OFF_TOL)
    for p, q in _X_BLOCKS:
        r = np.abs(a[:, p, q])
        k = turn & (r != 0.0)
        app, apq, aqp, aqq = a[k, p, p], a[k, p, q], a[k, q, p], a[k, q, q]
        c, s_phase, s_conj = _rotation(apq, r[k], app.real, aqq.real)
        # (p, p), (p, q), (q, p), (q, q) after the column step, then the
        # diagonal after the row step
        bpp, bpq = c * app - s_conj * apq, s_phase * app + c * apq
        bqp, bqq = c * aqp - s_conj * aqq, s_phase * aqp + c * aqq
        diag[k, p] = c * bpp - s_phase * bqp
        diag[k, q] = s_conj * bpq + c * bqq
    return np.sort(diag.real)[:, ::-1]


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Per 4x4 matrix of ``a``, the Frobenius norm of its off-diagonal entries."""
    return np.sqrt(_sum_last_axis(np.abs(a[:, ~np.eye(4, dtype=bool)]) ** 2))


def _rotation(apq: np.ndarray, r: np.ndarray, app: np.ndarray, aqq: np.ndarray) -> tuple:
    """The cosine c and the sines s e^{i phase}, s e^{-i phase} that zero each pivot.

    ``apq`` is a nonzero pivot, ``r`` its modulus, and ``app``, ``aqq`` the
    real diagonal entries of its block.
    """
    # componentwise division: the complex reciprocal overflows for
    # subnormal pivots, float division does not
    phase = np.empty_like(apq)
    phase.real, phase.imag = apq.real / r, apq.imag / r
    with np.errstate(over="ignore"):  # a huge tau gives t = 0, as in scalar code
        tau = (aqq - app) / (2.0 * r)
        # 1/(tau + sqrt(1 + tau^2)), or -1/(-tau + sqrt(1 + tau^2)) for tau < 0
        u = np.abs(tau)
        t = np.where(tau >= 0.0, 1.0, -1.0) / (u + np.sqrt(1.0 + u * u))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c * phase, t * c * phase.conj()


def c_frobenius_perturbative(
    n: int, boosts: BoostParams | Sequence[BoostParams], sigma_over_m, factors=None
):
    """O((sigma/m)^2) Frobenius coherence: 1 - (4/3) sum_i F_i.

    ``boosts`` holds one entry when a single particle is boosted and two
    when both are.  Raises ``ValueError`` when n falls outside the allowed
    range for the scenario, or when F1 + F2 >= 1/2, as the closed spectrum
    does.

    An array of sigma/m gives an array, NaN at the points that fail either
    check; the one-value call is a one-element call into the same code.
    ``factors``, the F column of each boost at those points, spares a
    caller that already holds them (a sweep does) a second :func:`f_factor`.
    """
    seq = (boosts,) if isinstance(boosts, BoostParams) else tuple(boosts)
    if not 1 <= len(seq) <= 2:
        raise ValueError("boosts must be one or two BoostParams")
    scenario = "single_boost" if len(seq) == 1 else "dual_boost"
    lone = np.ndim(sigma_over_m) == 0
    if lone:  # the point's own checks raise, in order
        check_n_in_bounds(n, sigma_over_m, scenario)
    eps = np.array(sigma_over_m, dtype=float, ndmin=1)
    inside = check_n_in_bounds(n, eps, scenario)
    if factors is None:
        factors = [f_factor(n, b, np.where(inside, eps, np.nan)) for b in seq]
    inside &= check_factor_sum(*factors)
    values = np.where(inside, 1.0 - (4.0 / 3.0) * sum(factors), np.nan)
    if not lone:
        return values
    if not inside[0]:
        check_factor_sum(*(PerturbativeFactor(f.item()) for f in factors))
    return values.item()
