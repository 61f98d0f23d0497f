"""Momentum-moment integrals of the Wigner half-angle against |psi(p)|^2.

The three moments

    I1 = int |psi(p)|^2 cos^2(phi/2) dp
    I2 = int |psi(p)|^2 sin(phi/2) cos(phi/2) dp
    I3 = int |psi(p)|^2 sin^2(phi/2) dp

are evaluated two ways:

* exactly, by Gauss-Hermite quadrature in kappa = p/sigma, where the
  integrand is (kappa^2n e^{-kappa^2} / Gamma(n+1/2)) times a smooth
  bounded factor -- precisely the Gauss-Hermite weight;
* perturbatively, by the O((sigma/m)^2) closed forms: for integer n,
  I1 = 1 - F, I2 = 0, I3 = F with
  F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2.

For a pair of boosted particles the same machinery yields the per-particle
moments (J_i, K_i, L_i); only the boost differs between the two particles,
so no separate entry points are needed.

The quadrature normalization 1/Gamma(n+1/2) is folded into the kappa-space
sum in log space, which keeps large n from overflowing sigma^(2n+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .core import BoostParams, WavePacket, check_nonneg_int
from .wigner import _perp_even

__all__ = [
    "MomentIntegrals",
    "PerturbativeFactor",
    "QuadratureToleranceError",
    "gauss_hermite_nodes",
    "moments_quadrature",
    "f_factor",
    "n_bounds",
    "check_n_in_bounds",
    "check_factor_sum",
    "check_orders",
]

MIN_ORDER = 2
DEFAULT_ORDER = 16
MAX_ORDER = 256
RTOL = 1e-12  # adaptive stopping tolerance on successive moment estimates

Scenario = Literal["single_boost", "dual_boost"]


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature hit the order cap before meeting the tolerance.

    Carries the best estimate and the last achieved delta so callers can
    decide whether the partial result is still usable.  ``best`` is None
    when the last estimate is too crude to be a moment triple at all (the
    order is too low to integrate kappa^2n).
    """

    def __init__(self, best: "MomentIntegrals | None", delta: float, rtol: float):
        self.best = best
        self.delta = delta
        self.rtol = rtol
        super().__init__(
            f"quadrature did not converge: delta {delta:.3e} > rtol {rtol:.3e}"
        )


@dataclass(frozen=True)
class MomentIntegrals:
    """The (I1, I2, I3) triple."""

    i1: float
    i2: float
    i3: float

    def __post_init__(self) -> None:
        off_sum, off_range, off_i2 = _moment_faults(np.array([[self.i1, self.i2, self.i3]]))[:, 0]
        if off_sum:
            raise ValueError(f"i1 + i3 = {self.i1 + self.i3}, expected 1 within 1e-10")
        if off_range:
            raise ValueError("i1 and i3 must lie in [0, 1]")
        if off_i2:
            raise ValueError(f"|i2| must not exceed 1/2, got {self.i2}")


def _moment_faults(values: np.ndarray) -> np.ndarray:
    """Per row (i1, i2, i3) of ``values``, whether it fails each moment check.

    The result is a (3 x points) mask: i1 + i3 off 1 by more than 1e-10;
    i1 or i3 outside [0, 1] by more than 1e-12; |i2| above 1/2 by more than
    1e-12.  The comparisons are written so that NaN fails them.
    """
    i1, i2, i3 = values[:, 0], values[:, 1], values[:, 2]
    lo, hi = -1e-12, 1.0 + 1e-12
    return np.stack([
        ~(np.abs(i1 + i3 - 1.0) <= 1e-10),
        ~((lo <= i1) & (i1 <= hi) & (lo <= i3) & (i3 <= hi)),
        ~(np.abs(i2) <= 0.5 + 1e-12),
    ])


@dataclass(frozen=True)
class PerturbativeFactor:
    """The boost-induced mixing weight F (or F_i for one of two particles)."""

    f: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.f) or self.f < 0.0:
            raise ValueError(f"F must be finite and nonnegative, got {self.f}")


@lru_cache(maxsize=32)
def _gh_cached(order: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    except np.linalg.LinAlgError as exc:  # tridiagonal eigen iteration failed
        raise RuntimeError(f"Gauss-Hermite construction failed at order {order}") from exc
    # Enforce exact +/- node pairing so odd integrands cancel bitwise.
    nodes = (nodes - nodes[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def check_orders(order: int, max_order: int | None = None) -> None:
    """Raise ``ValueError`` unless the quadrature can run at these orders.

    ``order`` must be an integer in [MIN_ORDER, MAX_ORDER].  ``max_order``
    is an adaptive run's cap (None for one fixed order) and must lie in
    [2 order, MAX_ORDER]: the first delta compares ``order`` with
    ``2 order``, so a lower cap could never converge.
    """
    check_nonneg_int(order, "order")
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [{MIN_ORDER}, {MAX_ORDER}], got {order}")
    if max_order is not None and not 2 * order <= max_order <= MAX_ORDER:
        raise ValueError(
            f"max_order must lie in [2 * order, {MAX_ORDER}] = [{2 * order}, {MAX_ORDER}], "
            f"got {max_order}"
        )


def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int f(k) e^{-k^2} dk =~ sum w_i f(k_i).

    Built from the symmetric-tridiagonal (Golub-Welsch) eigenvalue
    construction; sum of weights equals sqrt(pi).  The nodes are exactly
    antisymmetric and the weights exactly symmetric.  Arrays are cached and
    read-only.
    """
    check_orders(order)
    return _gh_cached(int(order))


def _moments_at_order(n: int, eps: np.ndarray, boost: BoostParams, order: int) -> np.ndarray:
    """(I1, I2, I3) at one order for every sigma/m in ``eps``, as a (3, len(eps)) array.

    The nodes pair exactly and so do the weights, so each term is added to
    its mirror and the sum halved: odd sin*cos cancels to +0.0 at every
    node and is not evaluated, while even cos^2 and sin^2 are evaluated on
    the nonnegative half of the nodes and mirrored into the full row.
    Numpy sums each row pairwise, as it sums a lone 1-D row, so a point's
    bits do not depend on the other points evaluated with it.
    """
    kappa, w = gauss_hermite_nodes(order)
    if n == 0:
        poly = np.full_like(kappa, 1.0 / math.sqrt(math.pi))  # 1 / Gamma(1/2)
    else:
        # kappa^2n / Gamma(n + 1/2) in log space; exp(-inf) = 0 handles a
        # kappa = 0 node (odd orders) for n > 0.
        with np.errstate(divide="ignore"):
            poly = np.exp(n * np.log(kappa * kappa) - math.lgamma(n + 0.5))
    half = order // 2  # kappa[half:] >= 0, and kappa[i] = -kappa[order - 1 - i]
    base = (w * poly)[half:]
    cos2, sin2, _ = _perp_even(boost.cosh_alpha, eps[:, None] * kappa[half:])
    row = np.empty((len(eps), order))
    sums = []
    for part in (cos2, sin2):
        terms = base * part
        row[:, half:] = terms + terms  # a term plus its mirror, which has the same bits
        row[:, :half] = row[:, :order - half - 1:-1]
        sums.append(np.sum(row, axis=-1))
    i1, i3 = sums
    return np.stack([i1, np.zeros_like(i1), i3]) / 2.0


def _point_error(i1: float, i2: float, i3: float, delta: float | None) -> Exception:
    """The error a one-packet call raises for a point that failed a check.

    ``delta`` is None for a fixed-order evaluation or a converged one.  An
    estimate that is not a valid triple gives its ``ValueError``; an
    unconverged one is a tolerance error whatever its values, with
    ``best=None`` when they are not a triple.
    """
    try:
        best = MomentIntegrals(i1=i1, i2=i2, i3=i3)
    except ValueError as exc:  # too low an order to integrate kappa^2n exactly
        if delta is None:
            return exc
        best = None
    return QuadratureToleranceError(best=best, delta=delta, rtol=RTOL)


def moments_quadrature(
    pkt: WavePacket | tuple[int, np.ndarray],
    boost: BoostParams,
    order: int = DEFAULT_ORDER,
    *,
    max_order: int = MAX_ORDER,
    adaptive: bool = True,
):
    """Evaluate (I1, I2, I3) on Gauss-Hermite nodes.

    Starting from ``order``, the order is doubled until two successive
    evaluations agree to :data:`RTOL` (relative, floored at 1 in the
    denominator) or ``max_order`` is exceeded, in which case
    :class:`QuadratureToleranceError` carries the best estimate.  With
    ``adaptive=False`` a single fixed-order evaluation is returned;
    otherwise ``max_order`` must lie in [2 order, MAX_ORDER] (see
    :func:`check_orders`).  I2 is +0.0: Gauss-Hermite nodes pair exactly,
    and the odd integrand cancels term by term.

    One :class:`WavePacket` gives its :class:`MomentIntegrals`.  The moments
    depend on a packet only through n and sigma/m, so a block of packets is
    given as the pair ``(n, sigma_over_m)``, the second a 1-D array.  Its
    moments are evaluated together, one (points x nodes) contraction per
    order, and each point leaves the doubling as soon as it converges.  The
    result is ``(values, errors)``: the (points x 3) array of (I1, I2, I3)
    rows, and an object array holding, per point, None or the exception
    the one-packet call would raise.  A row's bits are the one-packet
    call's; a row with an error holds the failed estimate.  The one-packet
    call is a one-element call into the same code.  A bad ``order``,
    ``max_order``, n or sigma/m raises ``ValueError`` at once in both
    forms.  The CLI passes at most ``cli.BLOCK`` points per call, which
    bounds the size of the arrays.
    """
    lone = isinstance(pkt, WavePacket)
    if lone:
        n, eps = pkt.n, np.array([pkt.sigma_over_m])
    else:
        n, eps = pkt[0], np.asarray(pkt[1], dtype=float)
    check_nonneg_int(n, "n")
    # a valid packet's sigma/m can still overflow to inf or underflow to 0
    if eps.ndim != 1 or not np.all((0.0 < eps) & (eps < math.inf)):
        raise ValueError("sigma/m must be positive and finite (a 1-D array for a block)")

    check_orders(order, max_order if adaptive else None)
    values = _moments_at_order(n, eps, boost, order)
    # A fixed-order estimate is final; an adaptive one once it has converged.
    delta = np.full(len(eps), math.inf if adaptive else 0.0)
    if adaptive:
        todo = np.arange(len(eps))  # points that have not converged yet
        while todo.size and order * 2 <= max_order:
            order *= 2
            new = _moments_at_order(n, eps[todo], boost, order)
            step = np.max(np.abs(new - values[:, todo]) / np.maximum(1.0, np.abs(new)), axis=0)
            values[:, todo] = new
            delta[todo] = step
            todo = todo[~(step < RTOL)]

    values = values.T.copy()
    unconverged = ~(delta < RTOL)
    errors = np.full(len(eps), None, dtype=object)
    for k in np.flatnonzero(unconverged | _moment_faults(values).any(axis=0)).tolist():
        errors[k] = _point_error(*values[k].tolist(), delta[k].item() if unconverged[k] else None)
    if not lone:
        return values, errors
    if errors[0] is not None:
        raise errors[0]
    return MomentIntegrals(*values[0].tolist())


def f_factor(n: int, boost: BoostParams, sigma_over_m):
    """F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2.

    Valid for integer n >= 0 in the narrow-packet regime sigma/m < 1.
    Emits a warning when F > 1, where the perturbative I1 = 1 - F would
    leave [0, 1] and the expansion has manifestly broken down.

    One sigma/m gives a :class:`PerturbativeFactor`.  An array of sigma/m
    gives an array of F, NaN where sigma/m lies outside (0, 1); the
    one-value call is a one-element call into the same code that raises
    ``ValueError`` there instead.  The square is ``np.float_power``, which
    rounds as Python's ``**`` does (``x * x`` need not), so both forms
    give the same bits.
    """
    check_nonneg_int(n, "n")
    eps = _inside_unit(sigma_over_m)
    f = ((2 * n + 1) / 8.0) * _boost_ratio(boost) * np.float_power(eps, 2.0)
    for value in f[f > 1.0].tolist():
        warnings.warn(
            f"F = {value:.4g} > 1: perturbative I1 = 1 - F leaves [0, 1]",
            stacklevel=2,
        )
    return PerturbativeFactor(f=f.item()) if np.ndim(sigma_over_m) == 0 else f


def n_bounds(sigma_over_m, scenario: Scenario) -> tuple:
    """Allowed range (lower, upper] of the generalization exponent n.

    The lower bound -1/2 is open; it keeps the maximal coherence at or
    below unity.  The upper bound keeps the limiting coherence nonnegative:
    3 (m/sigma)^2 - 1/2 with one boosted particle, half that budget per
    particle when both are boosted.

    An array of sigma/m gives an array of upper bounds, NaN where sigma/m
    lies outside (0, 1), as for :func:`f_factor`.
    """
    eps = _inside_unit(sigma_over_m)
    with np.errstate(over="ignore"):  # a tiny sigma/m allows any n
        inv2 = np.float_power(1.0 / eps, 2.0)
    if scenario == "single_boost":
        upper = 3.0 * inv2 - 0.5
    elif scenario == "dual_boost":
        upper = 1.5 * inv2 - 0.5
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return (-0.5, upper.item() if np.ndim(sigma_over_m) == 0 else upper)


def check_n_in_bounds(n: int, sigma_over_m, scenario: Scenario):
    """Raise ``ValueError`` when n falls outside :func:`n_bounds`.

    For an array of sigma/m nothing is raised: the result is the mask of
    the points whose bounds hold n (False where sigma/m is outside (0, 1)).
    """
    lower, upper = n_bounds(sigma_over_m, scenario)
    inside = (lower < n) & (n <= upper)
    if np.ndim(sigma_over_m) > 0:
        return inside
    if not inside:
        raise ValueError(
            f"n = {n} outside the allowed range ({lower}, {upper:.6g}] "
            f"for {scenario} at sigma/m = {sigma_over_m:.6g}"
        )


def check_factor_sum(*factors):
    """Raise ``ValueError`` unless F1 + F2 < 1/2, the domain of the closed forms.

    One factor is the one-boost case, F1 = 0.  Factors given as F columns
    (arrays, a lone factor shared) raise nothing: the result is the mask of
    the points inside the domain, False where an F is NaN.  The sum is
    Python's left fold from 0 in both forms.
    """
    total = sum(f.f if isinstance(f, PerturbativeFactor) else f for f in factors)
    if any(isinstance(f, np.ndarray) for f in factors):
        return total < 0.5
    if total >= 0.5:
        raise ValueError(f"F1 + F2 must be < 1/2, got {total}")


def _inside_unit(sigma_over_m) -> np.ndarray:
    """sigma/m as a 1-D array, NaN outside (0, 1); one value there raises ``ValueError``."""
    eps = np.array(sigma_over_m, dtype=float, ndmin=1)
    inside = (0.0 < eps) & (eps < 1.0)
    if np.ndim(sigma_over_m) == 0 and not inside[0]:
        raise ValueError(f"sigma/m must lie in (0, 1), got {sigma_over_m}")
    return np.where(inside, eps, np.nan)


def _boost_ratio(boost: BoostParams) -> float:
    return (boost.cosh_alpha - 1.0) / (boost.cosh_alpha + 1.0)
