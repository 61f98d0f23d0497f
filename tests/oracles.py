"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from the raw formulas, separate
from the package's own code paths:

* ``trapezoid_moments``: wide-window composite trapezoid rule for the
  moment integrals (kappa in [-12, 12], 1e6 points);
* mpmath evaluations at 50 significant digits for closed-form targets;
* ``jacobi_eigenvalues``: the cyclic Jacobi solver rotating one matrix at
  a time with Python scalars.

Tests freeze the resulting values as literals and, where cheap, recompute
them at run time.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from boostcoh.coherence import (
    JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL, JacobiConvergenceError, Spectrum,
)
from boostcoh.core import DensityMatrix

mp.mp.dps = 50

TRAPEZOID_WINDOW = 12.0
TRAPEZOID_POINTS = 1_000_000


def trapezoid_moments(n: int, beta: float, sigma_over_m: float,
                      points: int = TRAPEZOID_POINTS,
                      window: float = TRAPEZOID_WINDOW) -> tuple[float, float, float]:
    """(I1, I2, I3) by composite trapezoid over kappa in [-window, window].

    Uses a plain 1 - beta^2 square root and direct powers, so it shares no
    arithmetic shortcuts with the quadrature path it cross-checks.
    """
    kappa = np.linspace(-window, window, points)
    b = 1.0 / math.sqrt(1.0 - beta * beta)
    a = beta * b
    x = sigma_over_m * kappa
    root = np.sqrt(1.0 + x * x)
    den = 2.0 * (1.0 + b * root)
    weight = kappa ** (2 * n) * np.exp(-(kappa**2)) / math.gamma(n + 0.5)
    i1 = float(np.trapezoid(weight * (1.0 + b) * (1.0 + root) / den, kappa))
    i2 = float(np.trapezoid(weight * a * x / den, kappa))
    i3 = float(np.trapezoid(weight * (1.0 - b) * (1.0 - root) / den, kappa))
    return i1, i2, i3


def mp_boost(beta: float):
    """(alpha, sinh, cosh) at 50 digits for the float64 value of beta."""
    beta = mp.mpf(beta)
    cosh = 1 / mp.sqrt((1 - beta) * (1 + beta))
    return mp.atanh(beta), beta * cosh, cosh


def mp_perp_trig(beta: float, x: float):
    """The perpendicular-geometry (cos^2, sin^2, sincos) at 50 digits."""
    _, a, b = mp_boost(beta)
    x = mp.mpf(x)
    root = mp.sqrt(1 + x * x)
    den = 2 * (1 + b * root)
    return (
        (1 + b) * (1 + root) / den,
        (1 - b) * (1 - root) / den,
        a * x / den,
    )


def mp_f_factor(n: int, beta: float, sigma_over_m: float):
    _, _, b = mp_boost(beta)
    return (mp.mpf(2 * n + 1) / 8) * ((b - 1) / (b + 1)) * mp.mpf(sigma_over_m) ** 2


def mp_frobenius_from_spectrum(eigenvalues) -> mp.mpf:
    d = len(eigenvalues)
    total = sum((mp.mpf(v) - mp.mpf(1) / d) ** 2 for v in eigenvalues)
    return mp.sqrt(mp.mpf(d) / (d - 1) * total)


def hermite_value(order: int, x: float) -> mp.mpf:
    """Physicists' Hermite polynomial H_order(x) by the three-term recurrence."""
    x = mp.mpf(x)
    h_prev, h = mp.mpf(1), 2 * x
    if order == 0:
        return h_prev
    for k in range(1, order):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    return h


def hermite_weight(order: int, x: float) -> mp.mpf:
    """Gauss-Hermite weight 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2)."""
    hnm1 = hermite_value(order - 1, x)
    return (
        mp.mpf(2) ** (order - 1) * mp.factorial(order) * mp.sqrt(mp.pi)
        / (order**2 * hnm1**2)
    )


def jacobi_eigenvalues(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues by cyclic Jacobi rotations on the Hermitian entries.

    The package's one-matrix solver before it learned to rotate a stack of
    matrices in lockstep, kept verbatim (renamed) as the reference the
    stacked solver must reproduce.
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
