"""Wigner-rotation half-angle quantities for a massive particle under a boost.

The composition of a particle boost (rapidity chi along f_hat) with a frame
boost (rapidity alpha along e_hat) rotates the spin by the Wigner angle phi
about n_hat ~ e_hat x f_hat.  The half-angle form

    cos(phi/2) = [cosh(a/2) cosh(x/2) + sinh(a/2) sinh(x/2) (e.f)] / N
    sin(phi/2) n_hat = sinh(a/2) sinh(x/2) (e x f) / N
    N = sqrt(1/2 + 1/2 cosh(a) cosh(x) + 1/2 sinh(a) sinh(x) (e.f))

is what the density-matrix pipeline consumes.  For the perpendicular
geometry (e_hat = z, f_hat = x) the three quadratic combinations reduce to
rational functions of a = sinh(alpha), b = cosh(alpha) and p/m, implemented
in :func:`half_angle_perp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoostParams, GeometryConfig

__all__ = [
    "WignerHalfAngle",
    "WignerTrig",
    "half_angle_general",
    "half_angle_perp",
    "little_group_matrix",
]


@dataclass(frozen=True)
class WignerHalfAngle:
    """cos(phi/2) together with the axis-weighted sin(phi/2) n_hat."""

    cos_half: float
    sin_half_axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        closure = self.cos_half**2 + sum(c * c for c in self.sin_half_axis)
        if abs(closure - 1.0) > 1e-10:
            raise ValueError(f"cos^2 + |sin n|^2 = {closure}, expected 1 within 1e-10")


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


def half_angle_general(boost: BoostParams, chi: float, geom: GeometryConfig) -> WignerHalfAngle:
    """Half-angle data for arbitrary boost/momentum geometry.

    ``chi`` is the particle rapidity (sinh chi = p/m); it may be negative,
    which flips the rotation sense.  The shared denominator is >= 1 for any
    real rapidities, so the construction never degenerates.
    """
    e = np.asarray(geom.e_hat)
    f = np.asarray(geom.f_hat)
    dot = float(e @ f)
    cross = np.cross(e, f)

    half_a, half_x = boost.alpha / 2.0, chi / 2.0
    denom = math.sqrt(
        0.5
        + 0.5 * boost.cosh_alpha * math.cosh(chi)
        + 0.5 * boost.sinh_alpha * math.sinh(chi) * dot
    )
    cos_half = (
        math.cosh(half_a) * math.cosh(half_x)
        + math.sinh(half_a) * math.sinh(half_x) * dot
    ) / denom
    axis_scale = math.sinh(half_a) * math.sinh(half_x) / denom
    axis = axis_scale * cross
    return WignerHalfAngle(
        cos_half=cos_half,
        sin_half_axis=(float(axis[0]), float(axis[1]), float(axis[2])),
    )


def _perp_components(a: float, b: float, x):
    """cos^2, sin^2, sin*cos of phi/2 for e_hat perpendicular to f_hat.

    ``x`` = p/m; accepts scalars or numpy arrays (used in quadrature).
    The sin^2 expression is the literal product of two nonpositive factors
    (1 - b) and (1 - sqrt(1 + x^2)), hence nonnegative.
    """
    root = np.sqrt(1.0 + np.square(x))
    denom = 2.0 * (1.0 + b * root)
    cos2 = (1.0 + b) * (1.0 + root) / denom
    sin2 = (1.0 - b) * (1.0 - root) / denom
    sincos = a * x / denom
    return cos2, sin2, sincos


def half_angle_perp(boost: BoostParams, p_over_m: float) -> WignerTrig:
    """Quadratic half-angle combinations for e_hat = z, f_hat = x.

    Negative ``p_over_m`` is allowed (needed when integrating over the full
    momentum line); cos^2 and sin^2 are even in it, sin*cos is odd.
    """
    with np.errstate(invalid="ignore"):  # WignerTrig rejects the NaN of p/m = +-inf
        cos2, sin2, sincos = _perp_components(boost.sinh_alpha, boost.cosh_alpha, p_over_m)
    return WignerTrig(cos2_half=float(cos2), sin2_half=float(sin2), sincos_half=float(sincos))


def little_group_matrix(trig: WignerTrig) -> np.ndarray:
    """Real 2x2 rotation [[c, s], [-s, c]] acting on the spin basis.

    cos(phi/2) is recovered as the positive square root (its closed form is
    positive for the geometries in scope) and sin(phi/2) takes its sign from
    ``sincos_half``.  Raises ``ValueError`` when cos^2(phi/2) < 1e-14: the
    sign of sin(phi/2) is then unrecoverable from the quadratic data.
    """
    if trig.cos2_half < 1e-14:
        raise ValueError("cos^2(phi/2) too small to recover a consistent sign")
    c = math.sqrt(trig.cos2_half)
    s = trig.sincos_half / c
    return np.array([[c, s], [-s, c]])
