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

import math
from dataclasses import dataclass

import numpy as np

from .core import BoostParams

__all__ = ["WignerTrig", "half_angle_perp"]


@dataclass(frozen=True)
class WignerTrig:
    """The three quadratic half-angle combinations cos^2, sin^2, sin*cos."""

    cos2_half: float
    sin2_half: float
    sincos_half: float

    def __post_init__(self) -> None:
        # Every comparison below is false for NaN, so non-finite values
        # are rejected first.
        if not all(map(math.isfinite, (self.cos2_half, self.sin2_half, self.sincos_half))):
            raise ValueError(
                "half-angle terms must be finite, got "
                f"({self.cos2_half}, {self.sin2_half}, {self.sincos_half})"
            )
        if self.cos2_half < -1e-15 or self.sin2_half < -1e-15:
            raise ValueError("squared half-angle terms must be nonnegative")
        if abs(self.cos2_half + self.sin2_half - 1.0) > 1e-10:
            raise ValueError("cos^2(phi/2) + sin^2(phi/2) must equal 1 within 1e-10")
        if self.sincos_half**2 > self.cos2_half * self.sin2_half + 1e-12:
            raise ValueError("sincos_half^2 exceeds cos2_half * sin2_half")


def _perp_components(a: float, b: float, x):
    """cos^2, sin^2, sin*cos of phi/2 for e_hat perpendicular to f_hat.

    ``x`` = p/m; accepts scalars or numpy arrays.
    """
    cos2, sin2, denom = _perp_even(b, x)
    return cos2, sin2, a * x / denom


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


def half_angle_perp(boost: BoostParams, p_over_m: float) -> WignerTrig:
    """Quadratic half-angle combinations for e_hat = z, f_hat = x.

    Negative ``p_over_m`` is allowed (needed when integrating over the full
    momentum line); cos^2 and sin^2 are even in it, sin*cos is odd.
    """
    with np.errstate(invalid="ignore"):  # WignerTrig rejects the NaN of p/m = +-inf
        cos2, sin2, sincos = _perp_components(boost.sinh_alpha, boost.cosh_alpha, p_over_m)
    return WignerTrig(cos2_half=float(cos2), sin2_half=float(sin2), sincos_half=float(sincos))
