"""Tests for the shared domain types."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import boostcoh
from boostcoh import (
    BoostParams,
    DensityMatrix,
    WavePacket,
    boost_from_beta,
    gauss_hermite_nodes,
)
from boostcoh.core import check_theta

from oracles import gamma_half_integer, mp_boost, psi_amplitude


def test_public_names_resolve():
    assert [name for name in boostcoh.__all__ if not hasattr(boostcoh, name)] == []


class TestBoostFromBeta:
    def test_identity_boost(self):
        b = boost_from_beta(0.0)
        assert b.alpha == 0.0
        assert b.sinh_alpha == 0.0
        assert b.cosh_alpha == 1.0

    # 50-digit mpmath values of 1/sqrt((1-beta)(1+beta)) and beta * cosh.
    @pytest.mark.parametrize(
        "beta, cosh, sinh",
        [
            (0.95, 3.2025630761017413, 3.0424349222966541),
            (0.3, 1.0482848367219183, 0.3144854510165755),
        ],
    )
    def test_frozen_values(self, beta, cosh, sinh):
        b = boost_from_beta(beta)
        assert b.cosh_alpha == pytest.approx(cosh, rel=1e-14)
        assert b.sinh_alpha == pytest.approx(sinh, rel=1e-14)

    def test_matches_mpmath_oracle(self):
        for beta in (0.1, 0.5, 0.8, 0.99, 1 - 1e-12):
            b = boost_from_beta(beta)
            alpha, sinh, cosh = mp_boost(beta)
            assert b.cosh_alpha == pytest.approx(float(cosh), rel=1e-13)
            assert b.sinh_alpha == pytest.approx(float(sinh), rel=1e-13)
            assert b.alpha == pytest.approx(float(alpha), rel=1e-13)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5, math.inf])
    def test_domain_errors(self, beta):
        with pytest.raises(ValueError):
            boost_from_beta(beta)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_hyperbolic_identity(self, beta):
        # the literal difference of squares is representable up to here
        b = boost_from_beta(beta)
        assert b.cosh_alpha >= 1.0
        hyper = (b.cosh_alpha - b.sinh_alpha) * (b.cosh_alpha + b.sinh_alpha)
        assert hyper == pytest.approx(1.0, abs=1e-12)

    def test_ultrarelativistic_construction(self):
        # beta one ulp below 1 must still construct (v -> c limiting case)
        b = boost_from_beta(math.nextafter(1.0, 0.0))
        assert b.cosh_alpha > 1e7

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            BoostParams(beta=0.5, alpha=0.2, sinh_alpha=1.0, cosh_alpha=1.5)


class TestWavePacket:
    def test_valid(self):
        pkt = WavePacket(n=2, sigma=100.0, mass=939.36)
        assert pkt.sigma_over_m == pytest.approx(100.0 / 939.36)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, sigma=1.0, mass=1.0),
            dict(n=0.5, sigma=1.0, mass=1.0),
            dict(n=0, sigma=0.0, mass=1.0),
            dict(n=0, sigma=1.0, mass=-2.0),
            dict(n=2, sigma=math.nan, mass=1.0),
            dict(n=2, sigma=1.0, mass=math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WavePacket(**kwargs)

    @pytest.mark.parametrize("n,sigma,mass", [(0, 1.0, 1.0), (1, 0.5, 2.0),
                                              (3, 100.0, 939.36), (6, 7.0, 10.0)])
    def test_unit_norm(self, n, sigma, mass):
        # integral |psi|^2 dp via Gauss-Hermite in kappa = p/sigma: the
        # e^{+kappa^2} factor undoes the weight already inside |psi|^2.
        pkt = WavePacket(n=n, sigma=sigma, mass=mass)
        kappa, w = gauss_hermite_nodes(64)
        values = psi_amplitude(pkt, sigma * kappa)
        norm = float(np.sum(w * values**2 * sigma * np.exp(kappa**2)))
        assert norm == pytest.approx(1.0, abs=1e-10)


# The momentum amplitude and Gamma(k + 1/2) are test oracles; these tests
# pin the oracles themselves.
class TestPsiAmplitude:
    def test_plain_gaussian_peak(self):
        # Gamma(1/2) = sqrt(pi) makes psi(0) = pi^(-1/4).
        pkt = WavePacket(n=0, sigma=1.0, mass=1.0)
        assert psi_amplitude(pkt, 0.0) == pytest.approx(0.7511255444649425, rel=1e-14)

    def test_zero_momentum_vanishes_for_positive_n(self):
        assert psi_amplitude(WavePacket(n=1, sigma=1.0, mass=1.0), 0.0) == 0.0

    def test_generalized_value(self):
        # 4 e^(-1/2) / sqrt(2^5 Gamma(5/2)), evaluated with mpmath.
        pkt = WavePacket(n=2, sigma=2.0, mass=10.0)
        assert psi_amplitude(pkt, 2.0) == pytest.approx(0.3719800610340088, rel=1e-13)

    def test_odd_n_is_odd(self):
        pkt = WavePacket(n=3, sigma=2.0, mass=5.0)
        assert psi_amplitude(pkt, -1.3) == pytest.approx(-psi_amplitude(pkt, 1.3), rel=1e-15)

    def test_array_input(self):
        pkt = WavePacket(n=2, sigma=2.0, mass=10.0)
        values = psi_amplitude(pkt, np.array([0.0, 2.0]))
        assert values.shape == (2,)
        assert values[1] == pytest.approx(0.3719800610340088, rel=1e-13)


class TestGammaHalfInteger:
    def test_base_case(self):
        assert gamma_half_integer(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_recurrence_values(self):
        # Gamma(5/2) = 3 sqrt(pi)/4 and Gamma(11/2) = 945 sqrt(pi)/32.
        assert gamma_half_integer(2) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-14)
        assert gamma_half_integer(5) == pytest.approx(945 * math.sqrt(math.pi) / 32, rel=1e-14)
        assert gamma_half_integer(5) == pytest.approx(52.34277778455352, rel=1e-13)

    @pytest.mark.parametrize("k", range(0, 40, 3))
    def test_against_math_gamma(self, k):
        assert gamma_half_integer(k) == pytest.approx(math.gamma(k + 0.5), rel=1e-12)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_half_integer(200)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gamma_half_integer(-1)
        with pytest.raises(ValueError):
            gamma_half_integer(1.5)


class TestCheckTheta:
    def test_range(self):
        check_theta(0.0)
        check_theta(math.pi / 2)
        for bad in (-0.1, 2.0, math.nan):
            with pytest.raises(ValueError, match="theta"):
                check_theta(bad)


def verdict(matrix) -> ValueError | None:
    """The error of one matrix validated in a stack of its own, or None."""
    (error,) = DensityMatrix(np.asarray(matrix)[None]).errors
    return error


def assert_rejected(matrix, message: str) -> None:
    error = verdict(matrix)
    assert type(error) is ValueError and message in str(error), error


class TestDensityMatrix:
    def test_valid_pure_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)[None])
        assert rho.errors == (None,)
        assert not rho.entries.flags.writeable

    def test_rejects_non_hermitian(self):
        assert_rejected(x_matrix(0.5, 0.0, 0.0, 0.5, corner=0.1, corner_lower=0.3), "Hermitian")

    def test_rejects_wrong_trace(self):
        assert_rejected(np.diag([0.7, 0.7, 0.0, 0.0]).astype(complex), "trace")

    def test_rejects_negative_eigenvalue(self):
        assert_rejected(x_matrix(0.6, 0.0, 0.0, 0.4, corner=0.55), "semidefinite")

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex)[None])

    def test_stack_reports_each_verdict(self):
        not_x = np.diag([0.4, 0.3, 0.2, 0.1])
        not_x[0, 1] = not_x[1, 0] = 0.01
        stack = np.stack([
            np.diag([0.4, 0.3, 0.2, 0.1]),
            x_matrix(0.5, 0.0, 0.0, 0.5, corner=0.1, corner_lower=0.3),
            np.diag([0.7, 0.7, 0.0, 0.0]),
            not_x,
            x_matrix(0.6, 0.0, 0.0, 0.4, corner=0.55),
            np.full((4, 4), np.nan),
        ])
        rho = DensityMatrix(stack)  # a stack does not raise for a bad matrix
        assert not rho.entries.flags.writeable
        assert rho.errors[0] is None
        for err, matrix in zip(rho.errors[1:], stack[1:]):
            alone = verdict(matrix)
            assert type(err) is type(alone) is ValueError and str(err) == str(alone)
        assert "X-state" in str(rho.errors[3])
        assert "Hermitian" in str(rho.errors[5])  # NaN fails the checks

    def test_rejects_bad_stack_shape(self):
        with pytest.raises(ValueError, match="points x 4 x 4"):
            DensityMatrix(np.zeros((2, 2, 4, 4)))

    def test_complex_off_diagonals_allowed(self):
        assert verdict(x_matrix(0.5, 0.0, 0.0, 0.5, corner=0.5j, corner_lower=-0.5j)) is None


def x_matrix(d0, d1, d2, d3, corner=0.0, inner=0.0, corner_lower=None) -> np.ndarray:
    """The 4x4 X matrix with diagonal (d0, d1, d2, d3) and the given pivots.

    ``corner`` is entry (0, 3) and ``inner`` entries (1, 2) and (2, 1);
    entry (3, 0) is ``corner_lower``, the corner value when not given.
    """
    a = np.diag([d0, d1, d2, d3]).astype(complex)
    a[0, 3] = corner
    a[3, 0] = corner if corner_lower is None else corner_lower
    a[1, 2] = a[2, 1] = inner
    return a


def x_block_state(least: float, block: int, angle: float, rest=(0.3, 0.2)) -> np.ndarray:
    """A trace-one 4x4 X-state whose least eigenvalue is ``least``.

    The block on (0, 3) (``block`` 0) or (1, 2) (``block`` 1) has
    eigenvalues ``least`` and 0.5 - least turned by ``angle``; the other
    block is diagonal with ``rest``.
    """
    c, s = math.cos(angle), math.sin(angle)
    lo, hi = least, 0.5 - least
    blocks = ((0, 3), (1, 2))
    (p, q), (u, v) = blocks[block], blocks[1 - block]
    a = np.zeros((4, 4), dtype=complex)
    a[p, p], a[q, q] = c * c * lo + s * s * hi, s * s * lo + c * c * hi
    a[p, q] = a[q, p] = c * s * (hi - lo)
    a[u, u], a[v, v] = rest
    return a


class TestXStateValidation:
    """The PSD verdict of an X-state in closed form, as eigvalsh gives it."""

    @staticmethod
    def eigvalsh_verdicts(stack):
        return (np.linalg.eigvalsh(stack).min(axis=-1) >= -1e-10).tolist()

    def test_verdicts_at_the_tolerance(self):
        stack = np.stack([
            x_block_state(least, block, angle)
            for least in (-1e-10 - 1e-12, -1e-10 + 1e-12, -1e-9, 0.0, 1e-12)
            for block in (0, 1)
            for angle in (0.0, 0.3, math.pi / 4, 1.2)
        ])
        want = self.eigvalsh_verdicts(stack)
        assert want.count(False) == 2 * 2 * 4  # -1e-10 - 1e-12 and -1e-9 fail
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            rho = DensityMatrix(stack)
        assert [e is None for e in rho.errors] == want
        for err, matrix, ok in zip(rho.errors, stack, want):
            if not ok:
                assert "semidefinite" in str(err)
                assert_rejected(matrix, "semidefinite")

    def test_verdicts_on_random_states(self):
        rng = np.random.default_rng(20261018)
        count = 8192
        d = rng.uniform(0.0, 1.0, (count, 4))
        d /= d.sum(axis=1, keepdims=True)
        stack = np.zeros((count, 4, 4), dtype=complex)
        stack[:, range(4), range(4)] = d
        for p, q in ((0, 3), (1, 2)):
            # up to 1.01 of the PSD limit, so some states fail
            v = rng.uniform(-1.01, 1.01, count) * np.sqrt(d[:, p] * d[:, q])
            stack[:, p, q] = v
            stack[:, q, p] = v * np.where(rng.random(count) < 0.5, 1.0, 1j)
            stack[:, p, q] = stack[:, q, p].conj()
        want = self.eigvalsh_verdicts(stack)
        assert 0 < want.count(False) < count
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            assert [e is None for e in DensityMatrix(stack).errors] == want

    def test_non_x_matrices_are_rejected(self):
        x = x_block_state(0.0, 0, 0.3)
        lower = x.copy()
        lower[2, 0] = lower[0, 2] = 0.01  # lower and upper off-X entries
        upper_only = x.copy()
        upper_only[0, 2] = 1e-13  # within the Hermiticity tolerance
        not_psd = x_block_state(-1e-9, 0, 0.3)
        not_psd[1, 0] = not_psd[0, 1] = 1e-3
        stack = np.stack([x, lower, upper_only, not_psd])
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            rho = DensityMatrix(stack)
        assert rho.errors[0] is None
        for err, matrix in zip(rho.errors[1:], stack[1:]):
            # the X check comes before the PSD check
            assert str(err) == "matrix is not an X-state: an entry off the X is nonzero"
            assert_rejected(matrix, "not an X-state")
        # the Hermiticity and trace checks come before the X check
        upper_only[0, 2] = 0.01
        assert_rejected(upper_only, "Hermitian")
        assert_rejected(2.0 * lower, "trace")

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (2, 4, 2), (4, 4)])
    def test_only_4x4_matrices(self, shape):
        entries = np.zeros(shape, dtype=complex)
        entries[..., 0, 0] = 1.0
        with pytest.raises(ValueError, match="points x 4 x 4"):
            DensityMatrix(entries)
