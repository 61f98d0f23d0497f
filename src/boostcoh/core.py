"""Shared domain types for boosted spin-coherence calculations.

Conventions used throughout the package:

* natural units with c = 1; momenta, masses and Gaussian widths in MeV
* a boost is parametrized by its rapidity alpha, with cosh(alpha) = gamma
  and tanh(alpha) = beta = v/c
* two-qubit density matrices live in the product basis
  |00>, |01>, |10>, |11> (row/column indices 0..3), and are real X-states:
  two 2x2 blocks, on (|00>, |11>) and (|01>, |10>), zeros elsewhere, held
  as the blocks alone

All types are immutable value objects validated at construction, so they
can be shared freely across threads and cached without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NORM_TOL",
    "MOMENT_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "BoostParams",
    "DensityMatrix",
    "check_nonneg_int",
    "check_beta",
    "check_theta",
    "check_positive_finite",
    "boost_from_beta",
]

# The package's tolerances, all absolute.  Each is derived from the checks
# upstream of it, so that a state built from inputs that pass those passes it.
U = 2.0**-53  # unit roundoff: one operation's relative error is at most U
NORM_TOL = 1e-10  # |i1 + i3 - 1| of one particle's moment row
MOMENT_TOL = 1e-12  # how far i1 and i3 may each lie outside [0, 1]
# The trace is (i1 + i3)(j1 + j3), each within NORM_TOL + U, and a term meets
# <= 11 U of rounding: 4 from sin (< 1 ulp, squared), 1 + 2 from the square and
# the products, 4 from the sums.
TRACE_TOL = (1.0 + NORM_TOL) ** 2 - 1.0 + 16 * U
# A block is two unit projectors weighted by products of moments, so checked
# rows give a least eigenvalue >= -2 MOMENT_TOL (1 + MOMENT_TOL).
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
    """Rapidity data for one boosted frame, derived from the speed fraction beta = v/c.

    ``sinh_alpha`` and ``cosh_alpha`` are stored alongside ``alpha`` because
    every downstream formula consumes the hyperbolic pair directly.  Only
    ``beta`` is given; the other three are computed from it, so they agree
    with it by construction.  Raises ``ValueError`` outside the
    massive-particle domain 0 <= beta < 1.
    """

    beta: float
    alpha: float = field(init=False)
    sinh_alpha: float = field(init=False)
    cosh_alpha: float = field(init=False)

    def __post_init__(self) -> None:
        check_beta(self.beta)
        # 1 - beta^2 computed in factored form: exact for beta near 1, where
        # the naive expression loses ~5 decimal digits.
        cosh_alpha = 1.0 / math.sqrt((1.0 - self.beta) * (1.0 + self.beta))
        object.__setattr__(self, "alpha", math.atanh(self.beta))
        object.__setattr__(self, "sinh_alpha", self.beta * cosh_alpha)
        object.__setattr__(self, "cosh_alpha", cosh_alpha)


def boost_from_beta(beta: float) -> BoostParams:
    """Build :class:`BoostParams` from the speed fraction beta = v/c."""
    return BoostParams(beta)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A stack of real trace-one two-qubit X-states, one per point.

    An X-state is the direct sum of two real symmetric 2x2 blocks, on the
    basis pairs (|00>, |11>) and (|01>, |10>), with zeros elsewhere.  Every
    state the package builds is one, and a block [[a, c], [c, d]] is
    stored as its three numbers (a, d, c).

    ``blocks`` is a real (points x 2 x 3) array: per point, the (a, d, c)
    of the block on (|00>, |11>), then of the block on (|01>, |10>).  The
    4x4 matrix they stand for is Hermitian and X-shaped by construction.
    Construction checks each state, in this order, for unit trace (within
    :data:`TRACE_TOL`; the diagonal added in basis order) and positive
    semidefiniteness (each block's least eigenvalue, in closed form
    (a + d)/2 - hypot((a - d)/2, c), at least -:data:`PSD_TOL`), all states
    in one pass.  NaN fails the checks.  The first state that fails raises
    ``ValueError``, naming the value, the tolerance and the point.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.blocks):  # casting would drop the imaginary parts
            raise ValueError("blocks must be real")
        arr = np.array(self.blocks, dtype=float)
        if arr.ndim != 3 or arr.shape[1:] != (2, 3):
            raise ValueError(
                f"blocks must be a (points x 2 x 3) stack of (a, d, c) rows, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)
        a, d, c = arr[..., 0], arr[..., 1], arr[..., 2]
        trace = ((a[:, 0] + a[:, 1]) + d[:, 1]) + d[:, 0]
        with np.errstate(invalid="ignore", over="ignore"):  # inf entries give NaN, which fails
            least = ((a + d) / 2.0 - np.hypot((a - d) / 2.0, c)).min(axis=-1)
        trace_ok = np.abs(trace - 1.0) <= TRACE_TOL
        ok = trace_ok & (least >= -PSD_TOL)
        if not ok.all():
            k = int(np.argmin(ok))
            if not trace_ok[k]:
                raise ValueError(
                    f"trace = {trace[k].item()}, expected 1 within {TRACE_TOL:.3g} at point {k}"
                )
            raise ValueError(
                f"matrix is not positive semidefinite: least eigenvalue {least[k].item()}, "
                f"expected >= -{PSD_TOL:g} at point {k}"
            )
