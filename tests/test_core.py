"""Tests for the shared domain types."""

import math

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


class TestDensityMatrix:
    def test_valid_pure_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        assert rho.dim == 4
        assert not rho.entries.flags.writeable

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        bad = np.array([[0.6, 0.55], [0.55, 0.4]], dtype=complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(bad)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))

    def test_stack_reports_each_verdict(self):
        stack = np.stack([
            np.diag([0.7, 0.3]),
            np.array([[0.5, 0.1], [0.3, 0.5]]),
            np.diag([0.7, 0.7]),
            np.array([[0.6, 0.55], [0.55, 0.4]]),
            np.full((2, 2), np.nan),
        ])
        rho = DensityMatrix(stack)  # a stack does not raise for a bad matrix
        assert rho.dim == 2 and not rho.entries.flags.writeable
        assert rho.errors[0] is None
        for err, matrix in zip(rho.errors[1:], stack[1:]):
            with pytest.raises(ValueError) as lone:
                DensityMatrix(matrix)
            assert isinstance(err, ValueError) and str(err) == str(lone.value)
        assert "Hermitian" in str(rho.errors[4])  # NaN fails the checks

    def test_rejects_bad_stack_shape(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.zeros((2, 2, 2, 2)))

    def test_complex_off_diagonals_allowed(self):
        rho = DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        assert rho.dim == 2
