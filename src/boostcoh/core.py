"""Shared domain types for boosted spin-coherence calculations.

Conventions used throughout the package:

* natural units with c = 1; momenta, masses and Gaussian widths in MeV
* a boost is parametrized by its rapidity alpha, with cosh(alpha) = gamma
  and tanh(alpha) = beta = v/c
* two-qubit density matrices live in the product basis
  |00>, |01>, |10>, |11> (row/column indices 0..3), and are X-states:
  two 2x2 blocks, on (|00>, |11>) and (|01>, |10>), zeros elsewhere

All types are immutable value objects validated at construction, so they
can be shared freely across threads and cached without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "BoostParams",
    "WavePacket",
    "DensityMatrix",
    "check_nonneg_int",
    "check_beta",
    "check_theta",
    "check_positive_finite",
    "boost_from_beta",
]

# Density-matrix construction tolerances (absolute).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


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


def check_theta(theta: float) -> None:
    """Raise ``ValueError`` outside the entanglement-angle domain 0 <= theta <= pi/2."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-15:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Complex Hermitian trace-one 4x4 X-state, or a stack of them.

    An X-state is the direct sum of two 2x2 blocks, on the basis pairs
    (|00>, |11>) and (|01>, |10>): every entry off the X is exactly zero.
    Every state the package builds is one, and it is the only state a
    :class:`DensityMatrix` holds.

    Construction validates, in this order, Hermiticity (1e-12 entrywise),
    unit trace (1e-10), the X shape (each off-X entry exactly zero, in
    both triangles) and positive semidefiniteness (least eigenvalue
    >= -1e-10, in closed form from the two blocks).  A lone 4x4 matrix that
    fails raises ``ValueError``, so any such instance in circulation is a
    physical state.  A (points x 4 x 4) stack is validated in one pass and
    never raises for a bad matrix: ``errors`` holds, per matrix, None or
    the ``ValueError`` the matrix would raise on its own.  A lone matrix is
    checked as a stack of one.
    """

    entries: np.ndarray
    errors: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (4, 4):
            raise ValueError(f"entries must be a 4x4 matrix or a stack of them, got {arr.shape}")
        errors = _verdicts(arr.reshape(-1, 4, 4))
        if arr.ndim == 2 and errors[0] is not None:
            raise errors[0]
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "errors", errors)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


# A 4x4 X-state is the direct sum of the 2x2 blocks on these index pairs:
# every entry of the _OFF_X mask is zero.
_X_BLOCKS = ((0, 3), (1, 2))
_OFF_X = np.array([[not any({i, j} <= set(b) for b in _X_BLOCKS) for j in range(4)]
                   for i in range(4)])


def _x_least_eigenvalue(x: np.ndarray) -> np.ndarray:
    """Per 4x4 X matrix of ``x``, the least eigenvalue of its lower triangle.

    The matrix is the direct sum of the blocks on (0, 3) and (1, 2); a
    Hermitian block [[a, c*], [c, d]] has least eigenvalue
    (a + d)/2 - hypot((a - d)/2, |c|).  It agrees with ``eigvalsh`` to
    rounding, about 1e-16 on a trace-one state.
    """
    least = []
    for p, q in _X_BLOCKS:
        a, d = x[:, p, p].real, x[:, q, q].real
        least.append((a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(x[:, q, p])))
    return np.minimum(*least)


def _verdicts(stack: np.ndarray) -> tuple[ValueError | None, ...]:
    """Per 4x4 matrix of ``stack``, None or the error of the first check it fails.

    The comparisons are written so that NaN fails them; only matrices that
    pass the first three checks reach the PSD check.
    """
    asymmetry = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    herm_ok = asymmetry <= HERMITICITY_TOL
    trace = np.trace(stack, axis1=-2, axis2=-1)
    trace_ok = np.abs(trace - 1.0) <= TRACE_TOL
    x_ok = ~stack[:, _OFF_X].any(axis=-1)  # NaN is nonzero too
    psd_ok = herm_ok & trace_ok & x_ok
    psd_ok[psd_ok] = _x_least_eigenvalue(stack[psd_ok]) >= -PSD_TOL
    if psd_ok.all():
        return (None,) * len(stack)
    errors = []
    for h_ok, t_ok, shape_ok, p_ok, t in zip(herm_ok, trace_ok, x_ok, psd_ok, trace.tolist()):
        if not h_ok:
            errors.append(ValueError("matrix is not Hermitian within 1e-12"))
        elif not t_ok:
            errors.append(ValueError(f"trace = {t}, expected 1 within 1e-10"))
        elif not shape_ok:
            errors.append(ValueError("matrix is not an X-state: an entry off the X is nonzero"))
        elif not p_ok:
            errors.append(ValueError("matrix is not positive semidefinite within 1e-10"))
        else:
            errors.append(None)
    return tuple(errors)
