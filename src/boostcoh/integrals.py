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
from typing import Literal, Sequence

import numpy as np

from .core import BoostParams, WavePacket, check_nonneg_int
from .wigner import _perp_components

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
        if abs(self.i1 + self.i3 - 1.0) > 1e-10:
            raise ValueError(f"i1 + i3 = {self.i1 + self.i3}, expected 1 within 1e-10")
        if not -1e-12 <= self.i1 <= 1.0 + 1e-12 or not -1e-12 <= self.i3 <= 1.0 + 1e-12:
            raise ValueError("i1 and i3 must lie in [0, 1]")
        if abs(self.i2) > 0.5 + 1e-12:
            raise ValueError(f"|i2| must not exceed 1/2, got {self.i2}")


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


def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int f(k) e^{-k^2} dk =~ sum w_i f(k_i).

    Built from the symmetric-tridiagonal (Golub-Welsch) eigenvalue
    construction; sum of weights equals sqrt(pi).  Arrays are cached and
    read-only.
    """
    check_nonneg_int(order, "order")
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [{MIN_ORDER}, {MAX_ORDER}], got {order}")
    return _gh_cached(int(order))


def _moments_at_order(n: int, eps: np.ndarray, boost: BoostParams, order: int) -> np.ndarray:
    """(I1, I2, I3) at one order for every sigma/m in ``eps``, as a (3, len(eps)) array."""
    kappa, w = gauss_hermite_nodes(order)
    if n == 0:
        poly = np.full_like(kappa, 1.0 / math.sqrt(math.pi))  # 1 / Gamma(1/2)
    else:
        # kappa^2n / Gamma(n + 1/2) in log space; exp(-inf) = 0 handles a
        # kappa = 0 node (odd orders) for n > 0.
        with np.errstate(divide="ignore"):
            poly = np.exp(n * np.log(kappa * kappa) - math.lgamma(n + 0.5))
    base = w * poly
    cos2, sin2, sincos = _perp_components(
        boost.sinh_alpha, boost.cosh_alpha, eps[:, None] * kappa
    )
    # Adding each row to its reverse makes odd integrands vanish exactly.
    # Along the last, contiguous axis numpy sums every row pairwise, exactly
    # as it sums a lone 1-D row, so a point's bits do not depend on the
    # other points evaluated with it.  Taking one component at a time keeps
    # fewer (points x nodes) arrays alive at once.
    sums = []
    for part in (cos2, sincos, sin2):
        terms = base * part
        sums.append(np.sum(terms + terms[:, ::-1], axis=-1))
    return np.stack(sums) / 2.0


def _entry(i1: float, i2: float, i3: float, delta: float | None):
    """What a one-packet call returns, or the error it raises, for one point.

    ``delta`` is None for a fixed-order evaluation, which has no tolerance
    to meet.  A fixed-order or converged estimate that is not a valid
    triple gives its ``ValueError``; an unconverged one is a tolerance error
    whatever its values, with ``best=None`` when they are not a triple.
    """
    final = delta is None or delta < RTOL
    try:
        best = MomentIntegrals(i1=i1, i2=i2, i3=i3)
    except ValueError as exc:  # too low an order to integrate kappa^2n exactly
        if final:
            return exc
        best = None
    if final:
        return best
    return QuadratureToleranceError(best=best, delta=delta, rtol=RTOL)


def moments_quadrature(
    pkt: WavePacket | Sequence[WavePacket],
    boost: BoostParams,
    order: int = DEFAULT_ORDER,
    *,
    max_order: int = MAX_ORDER,
    adaptive: bool = True,
) -> MomentIntegrals | tuple[MomentIntegrals | Exception, ...]:
    """Evaluate (I1, I2, I3) on Gauss-Hermite nodes.

    Starting from ``order``, the order is doubled until two successive
    evaluations agree to :data:`RTOL` (relative, floored at 1 in the
    denominator) or ``max_order`` is exceeded, in which case
    :class:`QuadratureToleranceError` carries the best estimate.  With
    ``adaptive=False`` a single fixed-order evaluation is returned;
    otherwise ``max_order`` must lie in [order, MAX_ORDER].

    ``pkt`` may also be a sequence of packets sharing ``n``.  Their moments
    are then evaluated together, one (points x nodes) contraction per
    order, and each point leaves the doubling as soon as it converges.  The
    result is a tuple with one entry per packet, bit for bit what the
    one-packet call gives: its ``MomentIntegrals``, or the exception it
    would raise, returned rather than raised.  A bad ``order`` or
    ``max_order`` raises ``ValueError`` at once in both forms.  The CLI
    passes at most ``cli.BLOCK`` packets per call, which bounds the size
    of the arrays.
    """
    pkts = (pkt,) if isinstance(pkt, WavePacket) else tuple(pkt)
    n = pkts[0].n if pkts else 0
    if any(p.n != n for p in pkts):
        raise ValueError(f"packets must share n, got {sorted({p.n for p in pkts})}")
    eps = np.array([p.sigma_over_m for p in pkts], dtype=float)

    values = _moments_at_order(n, eps, boost, order)
    if not adaptive:
        deltas = [None] * len(pkts)
    else:
        if not order <= max_order <= MAX_ORDER:
            raise ValueError(
                f"max_order must lie in [order, {MAX_ORDER}] = [{order}, {MAX_ORDER}], "
                f"got {max_order}"
            )
        delta = np.full(len(pkts), math.inf)
        todo = np.arange(len(pkts))  # points that have not converged yet
        while todo.size and order * 2 <= max_order:
            order *= 2
            new = _moments_at_order(n, eps[todo], boost, order)
            step = np.max(np.abs(new - values[:, todo]) / np.maximum(1.0, np.abs(new)), axis=0)
            values[:, todo] = new
            delta[todo] = step
            todo = todo[~(step < RTOL)]
        deltas = delta.tolist()

    entries = tuple(_entry(*v, d) for v, d in zip(values.T.tolist(), deltas))
    if isinstance(pkt, WavePacket):
        if isinstance(entries[0], Exception):
            raise entries[0]
        return entries[0]
    return entries


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
