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

# Density-matrix construction tolerances (absolute).
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
    Construction validates each state, in this order, for unit trace
    (1e-10) and positive semidefiniteness (the least eigenvalue of either
    block >= -1e-10), all states in one pass.  A bad state raises nothing:
    ``errors`` holds, per state, None or the ``ValueError`` of the first
    check it fails.
    """

    blocks: np.ndarray
    errors: tuple = field(init=False, repr=False)

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
        object.__setattr__(self, "errors", _verdicts(arr))


def _verdicts(blocks: np.ndarray) -> tuple[ValueError | None, ...]:
    """Per state of ``blocks``, None or the error of the first check it fails.

    The trace adds the diagonal in basis order, |00>, |01>, |10>, |11>.
    A block [[a, c], [c, d]] has least eigenvalue
    (a + d)/2 - hypot((a - d)/2, c), which agrees with ``eigvalsh`` to
    rounding, about 1e-16 on a trace-one state.  The comparisons are
    written so that NaN fails them; only states that pass the trace check
    reach the PSD check.
    """
    a, d, c = blocks[..., 0], blocks[..., 1], blocks[..., 2]
    trace = ((a[:, 0] + a[:, 1]) + d[:, 1]) + d[:, 0]
    trace_ok = np.abs(trace - 1.0) <= TRACE_TOL
    psd_ok = trace_ok.copy()
    least = (a[psd_ok] + d[psd_ok]) / 2.0 - np.hypot((a[psd_ok] - d[psd_ok]) / 2.0, c[psd_ok])
    psd_ok[psd_ok] = least.min(axis=-1) >= -PSD_TOL
    if psd_ok.all():
        return (None,) * len(blocks)
    errors = []
    for t_ok, p_ok, t in zip(trace_ok, psd_ok, trace.tolist()):
        if not t_ok:
            errors.append(ValueError(f"trace = {t}, expected 1 within 1e-10"))
        elif not p_ok:
            errors.append(ValueError("matrix is not positive semidefinite within 1e-10"))
        else:
            errors.append(None)
    return tuple(errors)
