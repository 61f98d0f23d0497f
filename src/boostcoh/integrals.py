"""Momentum-moment integrals of the Wigner half-angle against |psi(p)|^2.

The moments

    I1 = int |psi(p)|^2 cos^2(phi/2) dp
    I3 = int |psi(p)|^2 sin^2(phi/2) dp

are evaluated two ways:

* exactly, by Gauss-Hermite quadrature in kappa = p/sigma, where the
  integrand is (kappa^2n e^{-kappa^2} / Gamma(n+1/2)) times a smooth
  bounded factor -- precisely the Gauss-Hermite weight;
* perturbatively, by the O((sigma/m)^2) closed forms: for integer n,
  I1 = 1 - F, I3 = F with
  F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2.

The odd moment I2 = int |psi(p)|^2 sin(phi/2) cos(phi/2) dp is zero for
every packet, since |psi(p)|^2 is even in p and sin cos is odd, so it is
not evaluated.

Every function takes sigma/m as a 1-D array, one value per point, and
returns one value or row per point.

For a pair of boosted particles the same machinery yields the per-particle
moments (J_i, L_i); only the boost differs between the two particles,
so no separate entry points are needed.

The quadrature normalization 1/Gamma(n+1/2) is folded into the kappa-space
sum in log space, which keeps large n from overflowing sigma^(2n+1).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import MOMENT_TOL, NORM_TOL, BoostParams, check_nonneg_int
from .wigner import _perp_even

__all__ = [
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
# The open lower bound of n: it keeps the maximal coherence at or below unity.
N_LOWER = -0.5


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature hit the order cap before meeting the tolerance.

    Carries the point's best estimate and the last achieved delta so callers
    can decide whether the partial result is still usable.  ``best`` is the
    (I1, I3) row, or None when it fails :func:`_moment_faults` (the order is
    too low to integrate kappa^2n).
    """

    def __init__(self, best: np.ndarray | None, delta: float, rtol: float):
        self.best = best
        self.delta = delta
        self.rtol = rtol
        super().__init__(
            f"quadrature did not converge: delta {delta:.3e} > rtol {rtol:.3e}"
        )


def _moment_faults(values: np.ndarray) -> np.ndarray:
    """Per row (i1, i3) of ``values``, whether it fails each moment check.

    The result is a (2 x points) mask: i1 + i3 off 1 by more than
    :data:`~boostcoh.core.NORM_TOL`; i1 or i3 outside [0, 1] by more than
    :data:`~boostcoh.core.MOMENT_TOL`.  The comparisons are written so that
    NaN fails them.
    """
    i1, i3 = values[:, 0], values[:, 1]
    lo, hi = -MOMENT_TOL, 1.0 + MOMENT_TOL
    return np.stack([
        ~(np.abs(i1 + i3 - 1.0) <= NORM_TOL),
        ~((lo <= i1) & (i1 <= hi) & (lo <= i3) & (i3 <= hi)),
    ])


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
    """(I1, I3) at one order for every sigma/m in ``eps``, as a (2, len(eps)) array.

    The nodes pair exactly and so do the weights, so each term is added to
    its mirror and the sum halved: the even cos^2 and sin^2 are evaluated
    on the nonnegative half of the nodes and mirrored into the full row.
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
    return np.stack(sums) / 2.0


def moments_quadrature(
    n: int,
    boost: BoostParams,
    sigma_over_m: np.ndarray,
    order: int = DEFAULT_ORDER,
    *,
    max_order: int = MAX_ORDER,
    adaptive: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(I1, I3) on Gauss-Hermite nodes for every sigma/m of a 1-D array.

    The moments depend on a packet only through n and sigma/m.  They are
    evaluated for all points together, one (points x nodes) contraction per
    order.  Starting from ``order``, the order is doubled until two
    successive evaluations of a point agree to :data:`RTOL` (relative,
    floored at 1 in the denominator), and the point then leaves the
    doubling; past ``max_order`` a point has not converged.  With
    ``adaptive=False`` one fixed-order evaluation is final; otherwise
    ``max_order`` must lie in [2 order, MAX_ORDER] (see :func:`check_orders`).

    The result is ``(values, errors)``: the (points x 2) array of (I1, I3)
    rows, and an object array holding, per point, None or its error.  A
    point that has not converged has a :class:`QuadratureToleranceError`;
    a final estimate that fails :func:`_moment_faults` (too low an order to
    integrate kappa^2n exactly) has a ``ValueError``.  A row with an error
    holds the failed estimate.  A point's bits do not depend on the points
    evaluated with it.  A bad ``order``, ``max_order`` or n, or a sigma/m
    that is not a 1-D array of positive finite values, raises
    ``ValueError`` at once.  The CLI passes at most ``cli.BLOCK`` points per
    call, which bounds the size of the arrays.
    """
    check_nonneg_int(n, "n")
    eps = np.asarray(sigma_over_m, dtype=float)
    # sigma/m can overflow to inf or underflow to 0 from a valid packet
    if eps.ndim != 1 or not np.all((0.0 < eps) & (eps < math.inf)):
        raise ValueError("sigma/m must be a 1-D array of positive finite values")

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
    faults = _moment_faults(values)
    errors = np.full(len(eps), None, dtype=object)
    for k in np.flatnonzero(unconverged | faults.any(axis=0)).tolist():
        (i1, i3), (off_sum, _) = values[k].tolist(), faults[:, k].tolist()
        if unconverged[k]:
            best = None if faults[:, k].any() else values[k].copy()
            errors[k] = QuadratureToleranceError(best, delta[k].item(), RTOL)
        elif off_sum:
            errors[k] = ValueError(f"i1 + i3 = {i1 + i3}, expected 1 within {NORM_TOL:g}")
        else:
            errors[k] = ValueError("i1 and i3 must lie in [0, 1]")
    return values, errors


def f_factor(n: int, boost: BoostParams, sigma_over_m: np.ndarray) -> np.ndarray:
    """F = ((2n+1)/8) ((cosh a - 1)/(cosh a + 1)) (sigma/m)^2 per point.

    Valid for integer n >= 0 in the narrow-packet regime sigma/m < 1: the
    result is NaN where sigma/m lies outside (0, 1).  Inside the
    :func:`n_bounds`, F <= (3/4) (cosh a - 1)/(cosh a + 1) < 3/4 with one
    boost and < 3/8 per particle with two.  The square is
    ``np.float_power``, which rounds as Python's ``**`` does (``x * x``
    need not).
    """
    check_nonneg_int(n, "n")
    eps = _inside_unit(sigma_over_m)
    return ((2 * n + 1) / 8.0) * _boost_ratio(boost) * np.float_power(eps, 2.0)


def n_bounds(sigma_over_m: np.ndarray, boosted: int) -> np.ndarray:
    """The upper bound of the generalization exponent n, per point.

    n lies in (:data:`N_LOWER`, upper].  The upper bound keeps the limiting
    coherence nonnegative: 3 (m/sigma)^2 - 1/2 when ``boosted`` is 1, half
    that budget per particle when both are boosted (``boosted`` 2).  It is
    NaN where sigma/m lies outside (0, 1), as for :func:`f_factor`.
    """
    if boosted not in (1, 2):
        raise ValueError(f"boosted must be 1 or 2 particles, got {boosted!r}")
    eps = _inside_unit(sigma_over_m)
    with np.errstate(over="ignore"):  # a tiny sigma/m allows any n
        inv2 = np.float_power(1.0 / eps, 2.0)
    return (3.0 / boosted) * inv2 - 0.5


def check_n_in_bounds(n: int, sigma_over_m: np.ndarray, boosted: int) -> np.ndarray:
    """The mask of the points where n lies in (:data:`N_LOWER`, :func:`n_bounds`].

    It is False where sigma/m is outside (0, 1).
    """
    return (N_LOWER < n) & (n <= n_bounds(sigma_over_m, boosted))


def check_factor_sum(*factors: np.ndarray) -> np.ndarray:
    """The mask of the points where F1 + F2 < 1/2, the domain of the closed forms.

    Each factor is an F column; one factor is the one-boost case, F1 = 0.
    The mask is False where an F is NaN.  The sum is Python's left fold
    from 0.
    """
    return sum(factors) < 0.5


def _inside_unit(sigma_over_m: np.ndarray) -> np.ndarray:
    """sigma/m, a 1-D array, with NaN where it lies outside (0, 1)."""
    eps = np.asarray(sigma_over_m, dtype=float)
    if eps.ndim != 1:
        raise ValueError(f"sigma/m must be a 1-D array, got shape {eps.shape}")
    return np.where((0.0 < eps) & (eps < 1.0), eps, np.nan)


def _boost_ratio(boost: BoostParams) -> float:
    return (boost.cosh_alpha - 1.0) / (boost.cosh_alpha + 1.0)
