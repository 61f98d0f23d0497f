"""Shared domain types for boosted spin-coherence calculations.

Conventions used throughout the package:

* natural units with c = 1; momenta, masses and Gaussian widths in MeV
* a boost is parametrized by its rapidity alpha, with cosh(alpha) = gamma
  and tanh(alpha) = beta = v/c
* two-qubit density matrices live in the product basis
  |00>, |01>, |10>, |11| (row/column indices 0..3)

All types are immutable value objects validated at construction, so they
can be shared freely across threads and cached without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "BoostParams",
    "WavePacket",
    "GeometryConfig",
    "EntangledPairConfig",
    "DensityMatrix",
    "check_nonneg_int",
    "check_beta",
    "check_positive_finite",
    "boost_from_beta",
    "psi_amplitude",
    "gamma_half_integer",
]

# Density-matrix construction tolerances (absolute).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

_SQRT_PI = math.sqrt(math.pi)


def check_nonneg_int(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a nonnegative integer (not a bool)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def check_beta(beta: float) -> None:
    """Raise ``ValueError`` outside the massive-particle domain 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must satisfy 0 <= beta < 1, got {beta}")


def check_positive_finite(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class BoostParams:
    """Rapidity data for one boosted frame.

    ``sinh_alpha`` and ``cosh_alpha`` are stored alongside ``alpha`` because
    every downstream formula consumes the hyperbolic pair directly.
    """

    beta: float
    alpha: float
    sinh_alpha: float
    cosh_alpha: float

    def __post_init__(self) -> None:
        check_beta(self.beta)
        if self.cosh_alpha < 1.0:
            raise ValueError(f"cosh_alpha must be >= 1, got {self.cosh_alpha}")
        # Mass-shell identity cosh^2 - sinh^2 = 1, checked through beta:
        # with sinh = beta cosh (validated below) it reads
        # cosh^2 (1 - beta)(1 + beta) = 1.  The factored form stays exact
        # for beta arbitrarily close to 1, where the literal difference of
        # the stored squares is no longer representable in doubles.
        hyper = self.cosh_alpha * math.sqrt((1.0 - self.beta) * (1.0 + self.beta))
        if abs(hyper - 1.0) > 1e-12:
            raise ValueError(f"cosh sqrt(1 - beta^2) = {hyper}, expected 1 within 1e-12")
        scale = max(1.0, self.cosh_alpha)
        if abs(self.sinh_alpha - self.beta * self.cosh_alpha) > 1e-12 * scale:
            raise ValueError("sinh_alpha inconsistent with beta * cosh_alpha")
        if abs(self.alpha - math.atanh(self.beta)) > 1e-12 * max(1.0, abs(self.alpha)):
            raise ValueError("alpha inconsistent with atanh(beta)")


def boost_from_beta(beta: float) -> BoostParams:
    """Build :class:`BoostParams` from the speed fraction beta = v/c.

    Raises ``ValueError`` outside the massive-particle domain 0 <= beta < 1.
    """
    check_beta(beta)
    # 1 - beta^2 computed in factored form: exact for beta near 1, where the
    # naive expression loses ~5 decimal digits.
    cosh_alpha = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    return BoostParams(
        beta=beta,
        alpha=math.atanh(beta),
        sinh_alpha=beta * cosh_alpha,
        cosh_alpha=cosh_alpha,
    )


@dataclass(frozen=True)
class WavePacket:
    """Generalized Gaussian momentum profile ~ p^n exp(-p^2 / 2 sigma^2).

    ``n`` is restricted to nonnegative integers: p^n is ill-defined for
    negative momenta otherwise, and the closed-form moment results hold in
    exactly that case.
    """

    n: int
    sigma: float
    mass: float

    def __post_init__(self) -> None:
        check_nonneg_int(self.n, "n")
        check_positive_finite(self.sigma, "sigma")
        check_positive_finite(self.mass, "mass")

    @property
    def sigma_over_m(self) -> float:
        return self.sigma / self.mass

    @property
    def perturbative_valid(self) -> bool:
        """Whether the narrow-packet expansion (sigma/m < 1) applies."""
        return self.sigma_over_m < 1.0


def gamma_half_integer(k: int) -> float:
    """Gamma(k + 1/2) by the exact recurrence Gamma(x+1) = x Gamma(x).

    Raises ``OverflowError`` once the value leaves the double range
    (k >= 171).
    """
    check_nonneg_int(k, "k")
    value = _SQRT_PI
    for i in range(k):
        value *= i + 0.5
        if math.isinf(value):
            raise OverflowError(f"Gamma({k} + 1/2) exceeds the double range")
    return value


def psi_amplitude(pkt: WavePacket, p):
    """Momentum amplitude psi(p) = p^n exp(-p^2/2 sigma^2) / sqrt(norm).

    The normalization sqrt(sigma^(2n+1) Gamma(n + 1/2)) makes
    integral |psi|^2 dp = 1 over the whole real line.  Accepts scalars or
    numpy arrays for ``p``.
    """
    norm = math.sqrt(pkt.sigma ** (2 * pkt.n + 1) * gamma_half_integer(pkt.n))
    p = np.asarray(p, dtype=float)
    value = p**pkt.n * np.exp(-0.5 * (p / pkt.sigma) ** 2) / norm
    return value if value.ndim else float(value)


def _unit3(vec, name: str) -> tuple[float, float, float]:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)}")
    return (float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class GeometryConfig:
    """Boost direction e_hat and particle momentum direction f_hat."""

    e_hat: tuple[float, float, float]
    f_hat: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e_hat", _unit3(self.e_hat, "e_hat"))
        object.__setattr__(self, "f_hat", _unit3(self.f_hat, "f_hat"))

    @classmethod
    def perpendicular(cls) -> "GeometryConfig":
        """The e_hat = z, f_hat = x configuration used by the boosted-pair
        density-matrix pipeline."""
        return cls(e_hat=(0.0, 0.0, 1.0), f_hat=(1.0, 0.0, 0.0))


@dataclass(frozen=True)
class EntangledPairConfig:
    """Entanglement angle theta of the pair state sin(theta)|01> + cos(theta)|10>."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2 + 1e-15:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Complex Hermitian trace-one matrix, 2x2 or 4x4.

    Construction validates Hermiticity (1e-12 entrywise), unit trace
    (1e-10) and positive semidefiniteness (eigenvalues >= -1e-10), so any
    instance in circulation is a physical state.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
        if arr.shape[0] not in (2, 4):
            raise ValueError(f"dimension must be 2 or 4, got {arr.shape[0]}")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        trace = arr.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace = {trace}, expected 1 within 1e-10")
        if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
            raise ValueError("matrix is not positive semidefinite within 1e-10")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]
