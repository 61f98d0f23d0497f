"""Wigner-rotation half-angle quantities for a massive particle under a boost.

The composition of a particle boost (rapidity chi along f_hat) with a frame
boost (rapidity alpha along e_hat) rotates the spin by the Wigner angle phi
about n_hat ~ e_hat x f_hat.  The density-matrix pipeline consumes its
half-angle form for the perpendicular geometry (e_hat = z, f_hat = x),
where the three quadratic combinations cos^2, sin^2 and sin*cos of phi/2
reduce to rational functions of a = sinh(alpha), b = cosh(alpha) and p/m,
implemented in :func:`half_angle_perp`.
"""

from __future__ import annotations

import numpy as np

from .core import BoostParams

__all__ = ["half_angle_perp"]


def _perp_even(b: float, x):
    """The even terms cos^2 and sin^2 of phi/2, and their denominator.

    Each is even in ``x`` bit for bit: -x has the same square.  The
    quadrature, whose odd term sums to zero, needs only these.  The sin^2
    expression is the literal product of two nonpositive factors (1 - b)
    and (1 - sqrt(1 + x^2)), hence nonnegative.
    """
    root = np.sqrt(1.0 + np.square(x))
    denom = 2.0 * (1.0 + b * root)
    return (1.0 + b) * (1.0 + root) / denom, (1.0 - b) * (1.0 - root) / denom, denom


def half_angle_perp(boost: BoostParams, p_over_m: np.ndarray) -> np.ndarray:
    """Quadratic half-angle combinations for e_hat = z, f_hat = x, one row per p/m.

    ``p_over_m`` is a 1-D column; the result is a (points x 3) array of
    rows (cos^2, sin^2, sin*cos) of phi/2.  Negative p/m is allowed (needed
    when integrating over the full momentum line); cos^2 and sin^2 are even
    in it, sin*cos is odd.  cos^2 + sin^2 = 1 and (sin*cos)^2 = cos^2 sin^2
    hold by construction, up to rounding.  Raises ``ValueError`` for the
    first row that is not finite: p/m = +-inf or NaN, or a p/m whose square
    overflows.
    """
    x = np.asarray(p_over_m, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"p/m must be a 1-D array, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        cos2, sin2, denom = _perp_even(boost.cosh_alpha, x)
        rows = np.stack([cos2, sin2, boost.sinh_alpha * x / denom], axis=-1)
    return _require_finite(rows)


def _require_finite(rows: np.ndarray) -> np.ndarray:
    """``rows`` unchanged, or ``ValueError`` naming the first row with a non-finite term."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = tuple(rows[np.argmin(finite)].tolist())
        raise ValueError(f"half-angle terms must be finite, got {bad}")
    return rows
