"""Quantum-coherence measures of the boosted reduced density matrices.

Two measures are implemented:

* the l1 norm, sum_{i != j} |rho_ij| -- basis-dependent, so it is always
  computed from matrix entries, never from a spectrum;
* the Frobenius measure sqrt((d/(d-1)) sum_i (lambda_i - 1/d)^2) --
  basis-independent, computed from eigenvalues.

The boosted matrices are X-shaped in the product basis, so their spectra
come in closed form (union of two 2x2 blocks); a cyclic Jacobi eigensolver
serves as the independent oracle for those formulas and as the general
route for quadrature-fed matrices with nonzero odd moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import BoostParams, DensityMatrix
from .integrals import PerturbativeFactor, check_n_in_bounds, f_factor

__all__ = [
    "Spectrum",
    "CoherenceReport",
    "JacobiConvergenceError",
    "c_l1",
    "c_frobenius",
    "spectrum_single_boost",
    "spectrum_dual_boost",
    "hermitian_eigenvalues",
    "c_frobenius_perturbative",
    "coherence_report",
]

JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

Method = Literal["analytic", "eigensolver", "perturbative"]


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exceeded the iteration cap."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a trace-one state, sorted descending."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.eigenvalues)
        if sorted(values, reverse=True) != list(values):
            values = tuple(sorted(values, reverse=True))
        object.__setattr__(self, "eigenvalues", values)
        if abs(sum(values) - 1.0) > 1e-10:
            raise ValueError(f"eigenvalues sum to {sum(values)}, expected 1 within 1e-10")
        if any(v < -1e-10 or v > 1.0 + 1e-10 for v in values):
            raise ValueError(f"eigenvalues must lie in [0, 1]: {values}")

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class CoherenceReport:
    """Both coherence measures plus the spectrum they came from."""

    c_l1: float
    c_frobenius: float
    spectrum: Spectrum
    method: Method
    dim: int

    def __post_init__(self) -> None:
        if self.c_l1 < 0.0:
            raise ValueError(f"c_l1 must be nonnegative, got {self.c_l1}")
        if not -1e-12 <= self.c_frobenius <= 1.0 + 1e-12:
            raise ValueError(f"c_frobenius must lie in [0, 1], got {self.c_frobenius}")
        if self.dim != len(self.spectrum):
            raise ValueError("dim must match the spectrum length")


def c_l1(rho: DensityMatrix) -> float:
    """Sum of absolute values of the off-diagonal entries."""
    off_diagonal = ~np.eye(rho.dim, dtype=bool)
    return float(np.abs(rho.entries[off_diagonal]).sum())


def c_frobenius(spec: Spectrum, d: int) -> float:
    """sqrt((d/(d-1)) sum (lambda_i - 1/d)^2): distance from maximal mixing."""
    if d != len(spec):
        raise ValueError(f"d = {d} does not match spectrum length {len(spec)}")
    if d < 2:
        raise ValueError("coherence needs d >= 2")
    return math.sqrt(
        d / (d - 1.0) * sum((lam - 1.0 / d) ** 2 for lam in spec.eigenvalues)
    )


def spectrum_single_boost(theta: float, f: PerturbativeFactor) -> Spectrum:
    """Closed-form spectrum {1 - F, F, 0, 0}: :func:`spectrum_dual_boost` with F1 = 0."""
    return spectrum_dual_boost(theta, PerturbativeFactor(0.0), f)


def spectrum_dual_boost(
    theta: float, f1: PerturbativeFactor, f2: PerturbativeFactor
) -> Spectrum:
    """Closed-form spectrum of the dual-boost X matrix.

    The corner block contributes (F1 + F2)/2 +/- sqrt(disc)/2 with
    disc = F1^2 + F2^2 - 2 F1 F2 cos(4 theta); the inner block contributes
    1 - (F1 + F2) and 0.  The discriminant is evaluated as
    (F1 - F2)^2 + 4 F1 F2 sin^2(2 theta), which is the same polynomial but
    cannot round below zero, on F1, F2 exactly rescaled by a power of two
    so that the squares cannot underflow.
    """
    if f1.f + f2.f >= 0.5:
        raise ValueError(f"F1 + F2 must be < 1/2, got {f1.f + f2.f}")
    s = f1.f + f2.f
    _, e = math.frexp(max(f1.f, f2.f))
    a, b = math.ldexp(f1.f, -e), math.ldexp(f2.f, -e)
    disc = (a - b) ** 2 + 4.0 * a * b * math.sin(2.0 * theta) ** 2
    half_gap = math.ldexp(math.sqrt(disc), e) / 2.0
    return Spectrum((1.0 - s, s / 2.0 + half_gap, s / 2.0 - half_gap, 0.0))


def hermitian_eigenvalues(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues by cyclic Jacobi rotations on the Hermitian entries.

    Sweeps run until the off-diagonal Frobenius norm drops below 1e-13,
    with a hard cap of 100 sweeps.  Serves as the numerically independent
    check on the analytic spectra.
    """
    a = np.array(rho.entries, dtype=complex)
    n = a.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.abs(a[off_diagonal]) ** 2)))
        if off < JACOBI_OFF_TOL:
            eigs = np.sort(np.real(np.diagonal(a)))[::-1]
            return Spectrum(tuple(float(v) for v in eigs))
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, p, q)
    raise JacobiConvergenceError(
        f"off-diagonal norm {off:.3e} after {JACOBI_MAX_SWEEPS} sweeps"
    )


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """Unitary rotation in the (p, q) plane that zeroes a[p, q]."""
    apq = complex(a[p, q])
    r = abs(apq)
    if r == 0.0:
        return
    # componentwise division: the complex reciprocal overflows for
    # subnormal pivots, float division does not
    phase = complex(apq.real / r, apq.imag / r)
    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    col_p, col_q = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * col_p - s * np.conj(phase) * col_q
    a[:, q] = s * phase * col_p + c * col_q
    row_p, row_q = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * row_p - s * phase * row_q
    a[q, :] = s * np.conj(phase) * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0


def _resolve_boosts(boosts) -> tuple[BoostParams, ...]:
    if isinstance(boosts, BoostParams):
        return (boosts,)
    seq = tuple(boosts)
    if not 1 <= len(seq) <= 2 or not all(isinstance(b, BoostParams) for b in seq):
        raise ValueError("boosts must be one or two BoostParams")
    return seq


def c_frobenius_perturbative(
    n: int, boosts: BoostParams | Sequence[BoostParams], sigma_over_m: float
) -> float:
    """O((sigma/m)^2) Frobenius coherence: 1 - (4/3) sum_i F_i.

    ``boosts`` holds one entry when a single particle is boosted and two
    when both are.  Raises ``ValueError`` when n falls outside the allowed
    range for the scenario.
    """
    seq = _resolve_boosts(boosts)
    scenario = "single_boost" if len(seq) == 1 else "dual_boost"
    check_n_in_bounds(n, sigma_over_m, scenario)
    total = sum(f_factor(n, b, sigma_over_m).f for b in seq)
    return 1.0 - (4.0 / 3.0) * total


def coherence_report(
    rho: DensityMatrix,
    spectrum: Spectrum | None = None,
    method: Method = "eigensolver",
) -> CoherenceReport:
    """Assemble both measures for a state.

    When ``spectrum`` is omitted it is computed with the Jacobi solver; a
    caller holding a closed-form spectrum passes it in with the matching
    method tag.
    """
    spec = hermitian_eigenvalues(rho) if spectrum is None else spectrum
    return CoherenceReport(
        c_l1=c_l1(rho),
        c_frobenius=c_frobenius(spec, rho.dim),
        spectrum=spec,
        method=method,
        dim=rho.dim,
    )
