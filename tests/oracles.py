"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from the raw formulas, separate
from the package's own code paths:

* ``trapezoid_moments``: wide-window composite trapezoid rule for the
  moment integrals (kappa in [-12, 12], 1e6 points);
* mpmath evaluations at 50 significant digits for closed-form targets,
  among them ``mp_i3_ultrarelativistic``, the exact beta -> 1 limit of I3
  through Tricomi's U, with its own quadrature self-check, and ``mp_i3``,
  the moment I3 at any beta by mpmath quadrature;
* ``jacobi_eigenvalues``: the cyclic Jacobi solver rotating one matrix at
  a time with Python scalars, in full sweeps, the reference for the
  package's one rotation per X block;
* ``moments_at_order``: the Gauss-Hermite contraction evaluating every
  node and all three integrands, the reference for the package's
  half-node contraction;
* the paper's formulas the pipeline never evaluates directly: the
  momentum amplitude ``psi_amplitude``, the Wigner half-angle for any
  geometry (``half_angle_general``), the spin amplitudes of the boosted
  pair (``amplitudes_single``/``amplitudes_dual``) and their coefficient
  table (``dual_coefficient_table``), and an index-loop partial trace
  (``ptrace_reference``);
* the 4x4 embedding of the package's X-state blocks (``x_matrices``) and
  its inverse (``x_blocks``), so that the full-matrix oracles above run
  on the states the package holds;
* the relative entropy of coherence ``c_re``, in closed form on the
  blocks, with ``c_re_eigvalsh`` on the 4x4 embedding as its check;
* the Wigner rotation from explicit 4x4 Lorentz matrices
  (``wigner_rotation_matrix``) and its spin-1/2 representation
  (``spin_half_matrix``);
* the sweep evaluated one beta configuration at a time
  (``config_block_values``, ``sweep_lines_per_config``), the reference
  for the CLI's one stack per block of every configuration.

Tests freeze the resulting values as literals and, where cheap, recompute
them at run time.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from boostcoh.coherence import (
    JACOBI_OFF_TOL, c_frobenius, c_frobenius_perturbative, c_l1, hermitian_eigenvalues,
    spectrum_dual_boost, spectrum_single_boost,
)
from boostcoh.core import SPECTRUM_RANGE_TOL, SPECTRUM_SUM_TOL, BoostParams, check_nonneg_int
from boostcoh.density import (
    rho_dual_boost_general, rho_dual_boost_perturbative, rho_single_boost_general,
    rho_single_boost_perturbative,
)
from boostcoh.integrals import (
    check_factor_sum, check_n_in_bounds, f_factor, gauss_hermite_nodes, moments_quadrature,
    n_bounds,
)
from boostcoh.wigner import half_angle_perp

mp.mp.dps = 50

TRAPEZOID_WINDOW = 12.0
TRAPEZOID_POINTS = 1_000_000
JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exceeded the iteration cap."""


def trapezoid_moments(n: int, beta: float, sigma_over_m: float,
                      points: int = TRAPEZOID_POINTS,
                      window: float = TRAPEZOID_WINDOW) -> tuple[float, float, float]:
    """(I1, I2, I3) by composite trapezoid over kappa in [-window, window].

    Uses a plain 1 - beta^2 square root and direct powers, so it shares no
    arithmetic shortcuts with the quadrature path it cross-checks.
    """
    kappa = np.linspace(-window, window, points)
    b = 1.0 / math.sqrt(1.0 - beta * beta)
    a = beta * b
    x = sigma_over_m * kappa
    root = np.sqrt(1.0 + x * x)
    den = 2.0 * (1.0 + b * root)
    weight = kappa ** (2 * n) * np.exp(-(kappa**2)) / math.gamma(n + 0.5)
    i1 = float(np.trapezoid(weight * (1.0 + b) * (1.0 + root) / den, kappa))
    i2 = float(np.trapezoid(weight * a * x / den, kappa))
    i3 = float(np.trapezoid(weight * (1.0 - b) * (1.0 - root) / den, kappa))
    return i1, i2, i3


def mp_boost(beta: float):
    """(alpha, sinh, cosh) at 50 digits for the float64 value of beta."""
    beta = mp.mpf(beta)
    cosh = 1 / mp.sqrt((1 - beta) * (1 + beta))
    return mp.atanh(beta), beta * cosh, cosh


def mp_perp_trig(beta: float, x: float):
    """The perpendicular-geometry (cos^2, sin^2, sincos) at 50 digits."""
    _, a, b = mp_boost(beta)
    x = mp.mpf(x)
    root = mp.sqrt(1 + x * x)
    den = 2 * (1 + b * root)
    return (
        (1 + b) * (1 + root) / den,
        (1 - b) * (1 - root) / den,
        a * x / den,
    )


def mp_f_factor(n: int, beta: float, sigma_over_m: float):
    _, _, b = mp_boost(beta)
    return (mp.mpf(2 * n + 1) / 8) * ((b - 1) / (b + 1)) * mp.mpf(sigma_over_m) ** 2


def mp_i3_ultrarelativistic(n: int, eps: float) -> mp.mpf:
    """I3 in the limit beta -> 1, in closed form, at 50 digits.

    There sin^2(phi/2) -> (r - 1)/(2r) with r = sqrt(1 + eps^2 kappa^2), and
    I3 = 1/2 - U(n + 1/2, n + 1, 1/eps^2) / (2 eps^(2n+1)), where U is
    Tricomi's confluent hypergeometric function and eps = sigma/m.  It holds
    at every eps, broad packets included.
    """
    eps, half = mp.mpf(eps), mp.mpf(1) / 2
    return half - mp.hyperu(n + half, n + 1, 1 / eps**2) / (2 * eps ** (2 * n + 1))


def mp_i3_ultrarelativistic_quad(n: int, eps: float) -> mp.mpf:
    """The same limit as :func:`mp_i3_ultrarelativistic`, by mpmath quadrature of its integral."""
    eps, half = mp.mpf(eps), mp.mpf(1) / 2

    def integrand(kappa):
        r = mp.sqrt(1 + (eps * kappa) ** 2)
        return kappa ** (2 * n) * mp.exp(-kappa * kappa) * (r - 1) / (2 * r)

    # the integrand is even in kappa
    return 2 * mp.quad(integrand, [0, 1, mp.inf]) / mp.gamma(n + half)


def mp_i3(n: int, beta: float, eps: float) -> mp.mpf:
    """I3 at 50 digits, by mpmath quadrature of its integral in kappa = p/sigma.

    The weight kappa^2n e^(-kappa^2) / Gamma(n + 1/2) peaks at sqrt(n) with
    width ~1, so the half line is split around the peak.
    """
    peak = math.sqrt(n)

    def integrand(kappa):
        return kappa ** (2 * n) * mp.exp(-kappa * kappa) * mp_perp_trig(beta, eps * kappa)[1]

    cuts = sorted({0.0, max(0.0, peak - 6.0), peak, peak + 6.0})
    # the integrand is even in kappa
    return 2 * mp.quad(integrand, [*cuts, mp.inf]) / mp.gamma(n + mp.mpf(1) / 2)


def mp_frobenius_from_spectrum(eigenvalues) -> mp.mpf:
    d = len(eigenvalues)
    total = sum((mp.mpf(v) - mp.mpf(1) / d) ** 2 for v in eigenvalues)
    return mp.sqrt(mp.mpf(d) / (d - 1) * total)


def hermite_value(order: int, x: float) -> mp.mpf:
    """Physicists' Hermite polynomial H_order(x) by the three-term recurrence."""
    x = mp.mpf(x)
    h_prev, h = mp.mpf(1), 2 * x
    if order == 0:
        return h_prev
    for k in range(1, order):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
    return h


def hermite_weight(order: int, x: float) -> mp.mpf:
    """Gauss-Hermite weight 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2)."""
    hnm1 = hermite_value(order - 1, x)
    return (
        mp.mpf(2) ** (order - 1) * mp.factorial(order) * mp.sqrt(mp.pi)
        / (order**2 * hnm1**2)
    )


def jacobi_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of one Hermitian matrix by cyclic Jacobi rotations, sorted descending.

    The package's one-matrix solver before it learned to rotate each X
    block once, kept verbatim (renamed) as the reference that rotation must
    reproduce.  The result is checked as the spectrum of a state, with the
    package's tolerances: its sum, added one value after another from 0,
    within :data:`~boostcoh.core.SPECTRUM_SUM_TOL` of 1, and each value
    within :data:`~boostcoh.core.SPECTRUM_RANGE_TOL` of [0, 1];
    ``ValueError`` otherwise.
    """
    a = np.array(entries, dtype=complex)
    n = a.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.abs(a[off_diagonal]) ** 2)))
        if off < JACOBI_OFF_TOL:
            eigs = np.sort(np.real(np.diagonal(a)))[::-1]
            total = sum(eigs.tolist())
            if abs(total - 1.0) > SPECTRUM_SUM_TOL:
                raise ValueError(
                    f"eigenvalues sum to {total}, expected 1 within {SPECTRUM_SUM_TOL:.3g}"
                )
            lo, hi = -SPECTRUM_RANGE_TOL, 1.0 + SPECTRUM_RANGE_TOL
            if not all(lo <= v <= hi for v in eigs.tolist()):
                raise ValueError(f"eigenvalues must lie in [0, 1]: {eigs.tolist()}")
            return eigs
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, p, q)
    raise JacobiConvergenceError(
        f"off-diagonal norm {off:.3e} after {JACOBI_MAX_SWEEPS} sweeps"
    )


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """Unitary rotation in the (p, q) plane that zeroes a[p, q]."""
    apq = complex(a[p, q])
    r = abs(apq)
    if r == 0.0:
        return
    # componentwise division: the complex reciprocal overflows for
    # subnormal pivots, float division does not
    phase = complex(apq.real / r, apq.imag / r)
    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    col_p, col_q = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * col_p - s * np.conj(phase) * col_q
    a[:, q] = s * phase * col_p + c * col_q
    row_p, row_q = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * row_p - s * phase * row_q
    a[q, :] = s * np.conj(phase) * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0


def moments_at_order(n: int, eps: np.ndarray, boost: BoostParams, order: int) -> np.ndarray:
    """(I1, I2, I3) at one order for every sigma/m in ``eps``, as a (3, len(eps)) array.

    The package's contraction before it used the node symmetry, kept
    verbatim (renamed): every node, all three integrands, and each term
    added to its mirror, so I2 is whatever that sum gives.  The package
    evaluates only I1 and I3.
    """
    kappa, w = gauss_hermite_nodes(order)
    if n == 0:
        poly = np.full_like(kappa, 1.0 / math.sqrt(math.pi))  # 1 / Gamma(1/2)
    else:
        # kappa^2n / Gamma(n + 1/2) in log space; exp(-inf) = 0 handles a
        # kappa = 0 node (odd orders) for n > 0.
        with np.errstate(divide="ignore"):
            poly = np.exp(n * np.log(kappa * kappa) - math.lgamma(n + 0.5))
    base = w * poly
    x = eps[:, None] * kappa
    cos2, sin2, sincos = np.moveaxis(half_angle_perp(boost, x.ravel()).reshape(*x.shape, 3), -1, 0)
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


def gamma_half_integer(k: int) -> float:
    """Gamma(k + 1/2) by the exact recurrence Gamma(x+1) = x Gamma(x).

    Raises ``OverflowError`` once the value leaves the double range
    (k >= 171).
    """
    check_nonneg_int(k, "k")
    value = math.sqrt(math.pi)
    for i in range(k):
        value *= i + 0.5
        if math.isinf(value):
            raise OverflowError(f"Gamma({k} + 1/2) exceeds the double range")
    return value


def psi_amplitude(n: int, sigma: float, p):
    """Momentum amplitude psi(p) = p^n exp(-p^2/2 sigma^2) / sqrt(norm).

    The generalized Gaussian wave packet of exponent ``n`` and width
    ``sigma``.  The normalization sqrt(sigma^(2n+1) Gamma(n + 1/2)) makes
    integral |psi|^2 dp = 1 over the whole real line.  Accepts scalars or
    numpy arrays for ``p``.
    """
    norm = math.sqrt(sigma ** (2 * n + 1) * gamma_half_integer(n))
    p = np.asarray(p, dtype=float)
    value = p**n * np.exp(-0.5 * (p / sigma) ** 2) / norm
    return value if value.ndim else float(value)


def half_angle_general(boost: BoostParams, chi: float, e_hat, f_hat):
    """(cos(phi/2), sin(phi/2) n_hat) for a frame boost along the unit vector
    ``e_hat`` and a particle of rapidity ``chi`` along the unit vector ``f_hat``:

        cos(phi/2) = [cosh(a/2) cosh(x/2) + sinh(a/2) sinh(x/2) (e.f)] / N
        sin(phi/2) n_hat = sinh(a/2) sinh(x/2) (e x f) / N
        N = sqrt(1/2 + 1/2 cosh(a) cosh(x) + 1/2 sinh(a) sinh(x) (e.f))

    ``chi`` may be negative, which flips the rotation sense.  The
    perpendicular geometry e_hat = z, f_hat = x with sinh(chi) = p/m is what
    ``half_angle_perp`` specializes.
    """
    e = np.asarray(e_hat, dtype=float)
    f = np.asarray(f_hat, dtype=float)
    dot = float(e @ f)
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
    axis = math.sinh(half_a) * math.sinh(half_x) / denom * np.cross(e, f)
    return cos_half, axis


def amplitudes_single(theta: float, phi_half) -> tuple[float, float, float, float]:
    """Amplitudes (A, B, C, D) of |01>, |11>, |00>, |10> when one particle is
    boosted, for its half-angle pair ``phi_half`` = (cos(phi/2), sin(phi/2)):

        A = sin(theta) cos(phi/2)    B = -sin(theta) sin(phi/2)
        C = cos(theta) sin(phi/2)    D = cos(theta) cos(phi/2)
    """
    c, s = phi_half
    return (math.sin(theta) * c, -math.sin(theta) * s,
            math.cos(theta) * s, math.cos(theta) * c)


def amplitudes_dual(theta: float, phi1_half, phi2_half) -> tuple[float, float, float, float]:
    """Amplitudes (P, Q, R, S) of |00>, |01>, |10>, |11> when both particles
    are boosted.

    With phi2 = 0 this reduces to the single-boost amplitudes under the
    mapping P -> C, Q -> A, R -> D, S -> B.
    """
    c1, s1 = phi1_half
    c2, s2 = phi2_half
    st, ct = math.sin(theta), math.cos(theta)
    return (
        st * c1 * s2 + ct * s1 * c2,
        st * c1 * c2 - ct * s1 * s2,
        -(st * s1 * s2 - ct * c1 * c2),
        -(st * s1 * c2 + ct * c1 * s2),
    )


def dual_coefficient_table(theta: float) -> np.ndarray:
    """The (4 x 2 x 2) coefficients of the two-boost amplitudes, bilinear in the half-angles.

    The amplitude of basis state a is sum_ij C[a, i, j] u_i v_j, with
    u = (cos(phi1/2), sin(phi1/2)) and v = (cos(phi2/2), sin(phi2/2)); it
    equals ``amplitudes_dual``.  Contracted twice with the moment matrices,
    it gives every entry of the two-boost state (``einsum_entries`` in
    ``tests/test_density.py``).
    """
    st, ct = math.sin(theta), math.cos(theta)
    table = np.zeros((4, 2, 2))
    table[0, 0, 1] = st  # P
    table[0, 1, 0] = ct
    table[1, 0, 0] = st  # Q
    table[1, 1, 1] = -ct
    table[2, 1, 1] = -st  # R
    table[2, 0, 0] = ct
    table[3, 1, 0] = -st  # S
    table[3, 0, 1] = -ct
    return table


def ptrace_reference(rho: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a 4x4 two-qubit matrix by an index loop, keeping the
    ``"first"`` or the ``"second"`` qubit."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "first":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


# The basis pairs (p, q) of the two X blocks, in the package's block order.
X_PAIRS = ((0, 3), (1, 2))


def x_matrices(blocks) -> np.ndarray:
    """The (points x 4 x 4) real matrices of a (points x 2 x 3) stack of (a, d, c) blocks.

    Block k puts a at (p, p), d at (q, q) and c at (p, q) and (q, p), for
    the k-th pair of ``X_PAIRS``; every other entry is zero.
    """
    blocks = np.asarray(blocks, dtype=float)
    out = np.zeros((len(blocks), 4, 4))
    for k, (p, q) in enumerate(X_PAIRS):
        out[:, p, p], out[:, q, q] = blocks[:, k, 0], blocks[:, k, 1]
        out[:, p, q] = out[:, q, p] = blocks[:, k, 2]
    return out


def x_blocks(matrices) -> np.ndarray:
    """The (points x 2 x 3) (a, d, c) blocks of a stack of real symmetric 4x4 X matrices.

    c is read from the lower triangle; the entries off the X are dropped,
    so a matrix must be checked as symmetric and X-shaped by the caller.
    """
    m = np.asarray(matrices, dtype=float)
    return np.stack([np.stack([m[:, p, p], m[:, q, q], m[:, q, p]], axis=-1)
                     for p, q in X_PAIRS], axis=1)


def entropy_bits(p) -> np.ndarray:
    """The Shannon entropy in bits of each row of ``p``, with 0 log 0 = 0.

    A value at or below zero, such as an eigenvalue that rounds to -1e-17,
    adds nothing.
    """
    p = np.asarray(p, dtype=float)
    positive = p > 0.0
    return -np.sum(np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0), axis=-1)


def c_re(blocks) -> np.ndarray:
    """The relative entropy of coherence S(diag rho) - S(rho), in bits, per X-state.

    In closed form on the (points x 2 x 3) stack of (a, d, c) blocks
    (Baumgratz, Cramer & Plenio, PRL 113 (2014) 140401): the diagonal is
    the (a, d) of both blocks, and the spectrum is each block's roots: the
    larger (a + d)/2 + hypot((a - d)/2, c), and the smaller the determinant
    a d - c^2 over it.  That quotient keeps the smaller root of a rank-1
    block near its own rounding, not an ulp of the larger root, which the
    entropy's slope |log2 x| at zero would amplify 50-fold.
    """
    b = np.asarray(blocks, dtype=float)
    a, d, c = b[..., 0], b[..., 1], b[..., 2]
    large = (a + d) / 2.0 + np.hypot((a - d) / 2.0, c)
    small = (a * d - c * c) / np.where(large > 0.0, large, 1.0)
    diagonal = np.concatenate([a, d], axis=-1)
    spectrum = np.concatenate([large, small], axis=-1)
    return entropy_bits(diagonal) - entropy_bits(spectrum)


def c_re_eigvalsh(blocks) -> np.ndarray:
    """:func:`c_re` from the 4x4 embedding: its diagonal, and ``eigvalsh`` for the spectrum."""
    m = x_matrices(blocks)
    return entropy_bits(np.diagonal(m, axis1=-2, axis2=-1)) - entropy_bits(np.linalg.eigvalsh(m))


def mp_binary_entropy(p: float) -> mp.mpf:
    """H2(p) = -p log2 p - (1 - p) log2 (1 - p) at 50 digits, with 0 log 0 = 0."""
    p = mp.mpf(p)
    return -sum(q * mp.log(q, 2) for q in (p, 1 - p) if q > 0)


def lorentz_boost(rapidity: float, axis) -> np.ndarray:
    """4x4 pure boost of the given rapidity along the unit 3-vector ``axis``,
    acting on (t, x, y, z) components."""
    n = np.asarray(axis, dtype=float)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    out = np.eye(4)
    out[0, 0] = ch
    out[0, 1:] = out[1:, 0] = sh * n
    out[1:, 1:] += (ch - 1.0) * np.outer(n, n)
    return out


def _standard_boost(p: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """The pure boost taking the unit-mass rest momentum (1, 0, 0, 0) to ``p``
    (``sign`` = -1 gives its inverse)."""
    size = float(np.linalg.norm(p[1:]))
    if size == 0.0:
        return np.eye(4)
    return lorentz_boost(sign * math.asinh(size), p[1:] / size)


def wigner_rotation_matrix(boost: BoostParams, chi: float, e_hat, f_hat) -> np.ndarray:
    """The 4x4 Wigner rotation W = L(p')^-1 Lambda L(p) from explicit matrices.

    Lambda is the boost of rapidity ``boost.alpha`` along the unit vector
    ``e_hat``; the particle (unit mass) has rapidity ``chi`` along the unit
    vector ``f_hat``, p' = Lambda p, and L(q) is the pure boost from rest to
    q.  W fixes the rest momentum, so its spatial block is a rotation.  It
    shares no formula with ``half_angle_general``.
    """
    f = np.asarray(f_hat, dtype=float)
    p = np.concatenate(([math.cosh(chi)], math.sinh(chi) * f))
    frame = lorentz_boost(boost.alpha, e_hat)
    return _standard_boost(frame @ p, sign=-1.0) @ frame @ _standard_boost(p)


def wigner_matrix_tol(boost: BoostParams, chi: float) -> float:
    """Absolute rounding bound for ``wigner_rotation_matrix``: it multiplies
    three boosts with entries up to cosh(alpha) cosh(chi), and its error
    grows with their square."""
    return 1e-14 * (boost.cosh_alpha * math.cosh(chi)) ** 2


def rotation_half_angles(w: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(cos^2(psi/2), sin^2(psi/2), sin(psi/2) cos(psi/2) n_hat) of the
    rotation by psi about n_hat in the spatial block of the 4x4 matrix ``w``."""
    r = w[1:, 1:]
    cos_psi = (np.trace(r) - 1.0) / 2.0
    sin_psi_axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / 2.0
    return (1.0 + cos_psi) / 2.0, (1.0 - cos_psi) / 2.0, sin_psi_axis / 2.0


def spin_half_matrix(w: np.ndarray) -> np.ndarray:
    """The spin-1/2 representation cos(psi/2) - i sin(psi/2) n_hat.sigma of
    the rotation in ``w``, in the basis (up, down) along z; |psi| < pi."""
    cos2, _, sincos_axis = rotation_half_angles(w)
    c = math.sqrt(cos2)
    nx, ny, nz = sincos_axis / c  # sin(psi/2) n_hat
    return np.array([[c - 1j * nz, -ny - 1j * nx], [ny - 1j * nx, c + 1j * nz]])


def config_block_values(theta, boosts, n, eps, methods):
    """One beta configuration over a block of sigma/m values, as columns.

    The sweep's block evaluation before it stacked every configuration,
    kept (renamed, and calling the n bounds by the number of boosts) as the
    reference for ``cli._block_values``.
    Returns ``(columns, spectra, failure)``: the CSV columns c_l1 to f2,
    one value per point (None for a method not asked for, and for f2 with
    one boost), each point's spectrum, and None or ``(k, error)`` for the
    first failing point k.
    """
    quadrature = "quadrature" in methods
    single = len(boosts) == 1
    count = len(eps)
    inside = check_n_in_bounds(n, eps, len(boosts))
    factors = [f_factor(n, b, np.where(inside, eps, np.nan)) for b in boosts]
    gated = inside & check_factor_sum(*factors)

    passed = gated
    stacked = np.flatnonzero(gated)
    if quadrature and stacked.size:  # one call per boost covers the gated points
        errors = np.full(count, None, dtype=object)  # None or a point's first error
        moments = []
        for b in boosts:
            values, errs = moments_quadrature(n, b, eps[stacked])
            moments.append(values)
            errors[stacked] = np.where(errors[stacked].astype(bool), errors[stacked], errs)
        passed = gated & ~errors.astype(bool)
        converged = passed[stacked]
        stacked, moments = stacked[converged], [m[converged] for m in moments]
    l1 = np.full(count, np.nan)
    eigs = np.full((count, 4), np.nan)
    if stacked.size:
        if quadrature:
            build = rho_single_boost_general if single else rho_dual_boost_general
            rho = build(theta, *moments)
        else:
            build = rho_single_boost_perturbative if single else rho_dual_boost_perturbative
            rho = build(theta, *(f[stacked] for f in factors))
        l1[stacked] = c_l1(rho)
        if quadrature:
            eigs[stacked] = hermitian_eigenvalues(rho)

    cf_pert = cf_exact = cf_quad = None
    if "perturbative" in methods:
        cf_pert = c_frobenius_perturbative(n, boosts, eps, factors)
    if "exact-eig" in methods or not quadrature:
        spectra = (spectrum_single_boost if single else spectrum_dual_boost)(theta, *factors)
        if "exact-eig" in methods:
            cf_exact = c_frobenius(spectra)
    if quadrature:
        spectra = eigs
        cf_quad = c_frobenius(eigs)
    f1, f2 = (factors[0], None) if single else factors
    columns = [l1, cf_pert, cf_exact, cf_quad, f1, f2]
    if passed.all():
        return columns, spectra, None

    k = int(np.argmin(passed))
    if not (0.0 < eps[k] < 1.0):
        error = ValueError(f"sigma/m must lie in (0, 1), got {eps[k].item()}")
    elif not inside[k]:
        upper = n_bounds(eps[k:k + 1], len(boosts))
        scenario = "single_boost" if single else "dual_boost"
        error = ValueError(
            f"n = {n} outside the allowed range (-0.5, {upper.item():.6g}] "
            f"for {scenario} at sigma/m = {eps[k].item():.6g}"
        )
    elif not gated[k]:
        error = ValueError(f"F1 + F2 must be < 1/2, got {sum(f[k].item() for f in factors)}")
    else:
        error = errors[k]
    return columns, spectra, (k, error)


def _config_lines(spec, boosts, sigma_text, eps):
    """Yield one configuration's CSV lines over a block; a failing point raises at its line."""
    columns, _, failure = config_block_values(spec.theta, boosts, spec.n, eps, spec.methods)
    count = len(sigma_text) if failure is None else failure[0]

    def text(column) -> list[str]:
        return [""] * count if column is None else list(map(repr, column[:count].tolist()))

    *values, f1, f2 = columns
    f1_text = text(f1)
    f2_text = f1_text if f2 is not None and f2.tobytes() == f1.tobytes() else text(f2)
    beta2 = repr(boosts[1].beta) if len(boosts) == 2 else ""
    head = [f"{boosts[0].beta!r},{beta2},{spec.n},{spec.theta!r}"] * count
    yield from map(",".join, zip(sigma_text, head, *map(text, values), f1_text, f2_text))
    if failure is not None:
        raise failure[1]


def sweep_lines_per_config(spec, block=256):
    """Yield a sweep's CSV lines, each block evaluated one configuration at a time.

    The sweep before it stacked every configuration, kept verbatim
    (renamed) as the reference for ``cli.run_sweep``: per block, one
    :func:`config_block_values` per configuration, and the rows
    interleaved one at a time, by sigma and then by configuration.
    """
    boosts_by_cfg = [tuple(BoostParams(b) for b in cfg) for cfg in sorted(spec.betas)]
    for start in range(0, spec.sigma_grid[2], block):
        sigma = spec.sigmas(start, start + block)
        eps = np.array(sigma) / spec.mass
        sigma_text = list(map(repr, sigma))
        configs = [_config_lines(spec, boosts, sigma_text, eps) for boosts in boosts_by_cfg]
        for _ in sigma:
            for lines in configs:
                yield next(lines)
