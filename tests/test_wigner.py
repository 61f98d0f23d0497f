"""Tests for the Wigner half-angle computations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boostcoh import (
    GeometryConfig,
    WignerTrig,
    boost_from_beta,
    half_angle_general,
    half_angle_perp,
    little_group_matrix,
)

from oracles import mp_perp_trig

BETAS = st.floats(min_value=0.0, max_value=0.99)
MOMENTA = st.floats(min_value=-50.0, max_value=50.0)


class TestHalfAnglePerp:
    def test_zero_momentum(self):
        trig = half_angle_perp(boost_from_beta(0.7), 0.0)
        assert (trig.cos2_half, trig.sin2_half, trig.sincos_half) == (1.0, 0.0, 0.0)

    def test_identity_boost(self):
        trig = half_angle_perp(boost_from_beta(0.0), 3.7)
        assert (trig.cos2_half, trig.sin2_half, trig.sincos_half) == (1.0, 0.0, 0.0)

    def test_frozen_reference_point(self):
        # beta = 0.95, p/m = 1, evaluated with 50-digit mpmath.
        trig = half_angle_perp(boost_from_beta(0.95), 1.0)
        assert trig.cos2_half == pytest.approx(0.9174974086627170, rel=1e-14)
        assert trig.sin2_half == pytest.approx(0.0825025913372830, rel=1e-13)
        assert trig.sincos_half == pytest.approx(0.2751289038976390, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("x", [-4.0, -0.3, 0.7, 12.0])
    def test_matches_mpmath_oracle(self, beta, x):
        trig = half_angle_perp(boost_from_beta(beta), x)
        cos2, sin2, sincos = (float(v) for v in mp_perp_trig(beta, x))
        assert trig.cos2_half == pytest.approx(cos2, rel=1e-14)
        assert trig.sin2_half == pytest.approx(sin2, rel=1e-13, abs=1e-16)
        assert trig.sincos_half == pytest.approx(sincos, rel=1e-13, abs=1e-16)

    @given(beta=BETAS, x=MOMENTA)
    def test_pythagorean_closure(self, beta, x):
        trig = half_angle_perp(boost_from_beta(beta), x)
        assert trig.cos2_half + trig.sin2_half == pytest.approx(1.0, abs=1e-12)
        assert trig.sincos_half**2 == pytest.approx(
            trig.cos2_half * trig.sin2_half, abs=1e-13
        )

    @given(beta=BETAS, x=MOMENTA)
    def test_parity(self, beta, x):
        boost = boost_from_beta(beta)
        plus = half_angle_perp(boost, x)
        minus = half_angle_perp(boost, -x)
        # even/odd structure holds exactly in floating point
        assert plus.cos2_half == minus.cos2_half
        assert plus.sin2_half == minus.sin2_half
        assert plus.sincos_half == -minus.sincos_half

    def test_sin2_nonnegative(self):
        for beta in (0.2, 0.8, 0.999):
            for x in (-20.0, -1.0, 0.5, 30.0):
                assert half_angle_perp(boost_from_beta(beta), x).sin2_half >= 0.0


class TestWignerTrig:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cos2_half", "sin2_half", "sincos_half"])
    def test_rejects_non_finite(self, field, bad):
        fields = dict(cos2_half=1.0, sin2_half=0.0, sincos_half=0.0)
        WignerTrig(**fields)
        with pytest.raises(ValueError, match="finite"):
            WignerTrig(**{**fields, field: bad})


class TestHalfAngleGeneral:
    def test_no_boost_no_rotation(self):
        geom = GeometryConfig.perpendicular()
        result = half_angle_general(boost_from_beta(0.0), 1.3, geom)
        assert result.cos_half == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(result.sin_half_axis, 0.0)

    def test_zero_rapidity_particle(self):
        # cosh^2(a/2) = (1 + cosh a)/2 makes cos(phi/2) equal 1 identically.
        geom = GeometryConfig(e_hat=(0.0, 1.0, 0.0), f_hat=(1.0, 0.0, 0.0))
        for beta in (0.1, 0.5, 0.95):
            result = half_angle_general(boost_from_beta(beta), 0.0, geom)
            assert result.cos_half == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(result.sin_half_axis, 0.0)

    def test_perpendicular_reference_point(self):
        # sinh(chi) = 1 and beta = 0.95: cos^2(phi/2) = 0.9174974...,
        # rotation axis along +y (z cross x).
        geom = GeometryConfig.perpendicular()
        result = half_angle_general(boost_from_beta(0.95), math.asinh(1.0), geom)
        assert result.cos_half**2 == pytest.approx(0.9174974086627170, rel=1e-13)
        axis = np.asarray(result.sin_half_axis)
        assert axis[0] == 0.0 and axis[2] == 0.0
        assert axis[1] > 0.0

    @pytest.mark.parametrize("beta", np.linspace(0.05, 0.99, 10))
    @pytest.mark.parametrize("x", np.linspace(-8.0, 8.0, 10))
    def test_agrees_with_perp_specialization(self, beta, x):
        boost = boost_from_beta(beta)
        geom = GeometryConfig.perpendicular()
        general = half_angle_general(boost, math.asinh(x), geom)
        trig = half_angle_perp(boost, x)
        assert general.cos_half**2 == pytest.approx(trig.cos2_half, abs=1e-12)
        axis_norm2 = sum(c * c for c in general.sin_half_axis)
        assert axis_norm2 == pytest.approx(trig.sin2_half, abs=1e-12)

    @given(
        beta=BETAS,
        chi=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closure_for_random_geometry(self, beta, chi, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=3)
        f = rng.normal(size=3)
        e /= np.linalg.norm(e)
        f /= np.linalg.norm(f)
        geom = GeometryConfig(e_hat=tuple(e), f_hat=tuple(f))
        result = half_angle_general(boost_from_beta(beta), chi, geom)
        closure = result.cos_half**2 + sum(c * c for c in result.sin_half_axis)
        assert closure == pytest.approx(1.0, abs=1e-12)


class TestLittleGroupMatrix:
    def test_identity(self):
        mat = little_group_matrix(WignerTrig(1.0, 0.0, 0.0))
        assert np.array_equal(mat, np.eye(2))

    def test_quarter_turn(self):
        trig = WignerTrig(0.5, 0.5, 0.5)
        mat = little_group_matrix(trig)
        r = 1 / math.sqrt(2)
        assert np.allclose(mat, [[r, r], [-r, r]], atol=1e-15)

    @pytest.mark.parametrize("beta", [0.2, 0.8, 0.99])
    @pytest.mark.parametrize("x", [-3.0, 0.4, 10.0])
    def test_special_orthogonal(self, beta, x):
        mat = little_group_matrix(half_angle_perp(boost_from_beta(beta), x))
        assert np.allclose(mat @ mat.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)

    def test_basis_action(self):
        # columns are the images of the spin basis states:
        # |0> -> c|0> - s|1>,  |1> -> s|0> + c|1>
        trig = half_angle_perp(boost_from_beta(0.95), 1.0)
        mat = little_group_matrix(trig)
        c = math.sqrt(trig.cos2_half)
        s = trig.sincos_half / c
        assert np.allclose(mat[:, 0], [c, -s])
        assert np.allclose(mat[:, 1], [s, c])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            little_group_matrix(WignerTrig(1e-15, 1.0 - 1e-15, 0.0))
