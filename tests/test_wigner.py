"""Tests for the Wigner half-angle computations."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boostcoh import boost_from_beta, half_angle_perp
from boostcoh.wigner import _require_finite

from oracles import (
    half_angle_general, mp_perp_trig, rotation_half_angles, wigner_matrix_tol,
    wigner_rotation_matrix,
)

BETAS = st.floats(min_value=0.0, max_value=0.99)
MOMENTA = st.floats(min_value=-50.0, max_value=50.0)


def one_row(boost, x: float) -> tuple[float, float, float]:
    """(cos^2, sin^2, sin*cos) of phi/2 at one p/m, from a one-point column."""
    return tuple(half_angle_perp(boost, np.array([x]))[0].tolist())


class TestHalfAnglePerp:
    def test_zero_momentum(self):
        assert one_row(boost_from_beta(0.7), 0.0) == (1.0, 0.0, 0.0)

    def test_identity_boost(self):
        assert one_row(boost_from_beta(0.0), 3.7) == (1.0, 0.0, 0.0)

    def test_frozen_reference_point(self):
        # beta = 0.95, p/m = 1, evaluated with 50-digit mpmath.
        cos2, sin2, sincos = one_row(boost_from_beta(0.95), 1.0)
        assert cos2 == pytest.approx(0.9174974086627170, rel=1e-14)
        assert sin2 == pytest.approx(0.0825025913372830, rel=1e-13)
        assert sincos == pytest.approx(0.2751289038976390, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("x", [-4.0, -0.3, 0.7, 12.0])
    def test_matches_mpmath_oracle(self, beta, x):
        cos2, sin2, sincos = one_row(boost_from_beta(beta), x)
        want = [float(v) for v in mp_perp_trig(beta, x)]
        assert cos2 == pytest.approx(want[0], rel=1e-14)
        assert sin2 == pytest.approx(want[1], rel=1e-13, abs=1e-16)
        assert sincos == pytest.approx(want[2], rel=1e-13, abs=1e-16)

    @given(beta=BETAS, x=MOMENTA)
    def test_pythagorean_closure(self, beta, x):
        cos2, sin2, sincos = one_row(boost_from_beta(beta), x)
        assert cos2 + sin2 == pytest.approx(1.0, abs=1e-12)
        assert sincos**2 == pytest.approx(cos2 * sin2, abs=1e-13)

    @given(beta=BETAS, x=MOMENTA)
    def test_parity(self, beta, x):
        plus, minus = half_angle_perp(boost_from_beta(beta), np.array([x, -x])).tolist()
        # even/odd structure holds exactly in floating point
        assert plus[:2] == minus[:2]
        assert plus[2] == -minus[2]

    def test_sin2_nonnegative(self):
        x = np.array([-20.0, -1.0, 0.5, 30.0])
        for beta in (0.2, 0.8, 0.999):
            assert (half_angle_perp(boost_from_beta(beta), x)[:, 1] >= 0.0).all()

    @given(beta=BETAS, xs=st.lists(MOMENTA, min_size=1, max_size=8))
    def test_rows_do_not_depend_on_the_column(self, beta, xs):
        boost = boost_from_beta(beta)
        rows = half_angle_perp(boost, np.array(xs))
        assert rows.shape == (len(xs), 3)
        assert [tuple(r) for r in rows.tolist()] == [one_row(boost, x) for x in xs]

    @pytest.mark.parametrize(
        "bad, row",
        [(math.nan, "(nan, nan, nan)"), (math.inf, "(nan, nan, nan)"),
         (-math.inf, "(nan, nan, nan)"), (1e300, "(nan, nan, 0.0)"),
         (-1e300, "(nan, nan, -0.0)")],
        ids=["nan", "inf", "-inf", "overflow", "-overflow"],
    )
    def test_rejects_non_finite(self, bad, row):
        # a bad p/m mid-column, and a later one: the first is reported
        column = np.array([0.5, 2.0, bad, 3.0, math.nan])
        message = f"half-angle terms must be finite, got {row}"
        with pytest.raises(ValueError, match=re.escape(message)):
            half_angle_perp(boost_from_beta(0.5), column)

    @pytest.mark.parametrize("x", [0.5, [[0.5]]])
    def test_rejects_non_column(self, x):
        with pytest.raises(ValueError, match="1-D"):
            half_angle_perp(boost_from_beta(0.5), np.array(x))


class TestWignerTrig:
    """The finiteness check on each term of a (cos^2, sin^2, sin*cos) row."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cos2_half", "sin2_half", "sincos_half"])
    def test_rejects_non_finite(self, field, bad):
        rows = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.0]])
        assert _require_finite(rows) is rows
        rows[1, ["cos2_half", "sin2_half", "sincos_half"].index(field)] = bad
        with pytest.raises(ValueError, match="finite"):
            _require_finite(rows)


Z_HAT, X_HAT = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)


class TestHalfAngleGeneral:
    """The general-geometry half-angle oracle, and ``half_angle_perp`` against it."""

    def test_no_boost_no_rotation(self):
        cos_half, axis = half_angle_general(boost_from_beta(0.0), 1.3, Z_HAT, X_HAT)
        assert cos_half == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(axis, 0.0)

    def test_zero_rapidity_particle(self):
        # cosh^2(a/2) = (1 + cosh a)/2 makes cos(phi/2) equal 1 identically.
        for beta in (0.1, 0.5, 0.95):
            cos_half, axis = half_angle_general(
                boost_from_beta(beta), 0.0, (0.0, 1.0, 0.0), X_HAT
            )
            assert cos_half == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(axis, 0.0)

    def test_perpendicular_reference_point(self):
        # sinh(chi) = 1 and beta = 0.95: cos^2(phi/2) = 0.9174974...,
        # rotation axis along +y (z cross x).
        cos_half, axis = half_angle_general(
            boost_from_beta(0.95), math.asinh(1.0), Z_HAT, X_HAT
        )
        assert cos_half**2 == pytest.approx(0.9174974086627170, rel=1e-13)
        assert axis[0] == 0.0 and axis[2] == 0.0
        assert axis[1] > 0.0

    @pytest.mark.parametrize("beta", np.linspace(0.05, 0.99, 10))
    @pytest.mark.parametrize("x", np.linspace(-8.0, 8.0, 10))
    def test_agrees_with_perp_specialization(self, beta, x):
        boost = boost_from_beta(beta)
        cos_half, axis = half_angle_general(boost, math.asinh(x), Z_HAT, X_HAT)
        cos2, sin2, _ = one_row(boost, x)
        assert cos_half**2 == pytest.approx(cos2, abs=1e-12)
        assert float(axis @ axis) == pytest.approx(sin2, abs=1e-12)

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
        cos_half, axis = half_angle_general(boost_from_beta(beta), chi, e, f)
        assert cos_half**2 + float(axis @ axis) == pytest.approx(1.0, abs=1e-12)




def _assert_rotation(w: np.ndarray, tol: float) -> None:
    """``w`` fixes the time axis and its spatial block is in SO(3)."""
    unit_t = [1.0, 0.0, 0.0, 0.0]
    assert np.allclose(w[0], unit_t, rtol=0.0, atol=tol)
    assert np.allclose(w[:, 0], unit_t, rtol=0.0, atol=tol)
    r = w[1:, 1:]
    assert np.allclose(r @ r.T, np.eye(3), rtol=0.0, atol=tol)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=tol)


class TestLorentzMatrixOracle:
    """The half-angle formulas against the Wigner rotation W computed from
    explicit 4x4 Lorentz matrices.  The formulas give the angle phi of the
    inverse rotation W^T, taken about e_hat x f_hat."""

    @pytest.mark.parametrize("beta", [0.2, 0.8, 0.99])
    @pytest.mark.parametrize("x", [-3.0, 0.4, 10.0])
    def test_perp_matches_matrix_rotation(self, beta, x):
        boost = boost_from_beta(beta)
        chi = math.asinh(x)
        w = wigner_rotation_matrix(boost, chi, Z_HAT, X_HAT)
        tol = wigner_matrix_tol(boost, chi)
        _assert_rotation(w, tol)
        cos2, sin2, sincos = rotation_half_angles(w.T)
        # the rotation axis is y = z cross x
        assert sincos[0] == pytest.approx(0.0, abs=tol)
        assert sincos[2] == pytest.approx(0.0, abs=tol)
        assert one_row(boost, x) == pytest.approx((cos2, sin2, sincos[1]), abs=tol)

    @given(
        beta=BETAS,
        chi=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_general_geometry_matches_matrix_rotation(self, beta, chi, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=3)
        f = rng.normal(size=3)
        e /= np.linalg.norm(e)
        f /= np.linalg.norm(f)
        boost = boost_from_beta(beta)
        w = wigner_rotation_matrix(boost, chi, e, f)
        tol = wigner_matrix_tol(boost, chi)
        _assert_rotation(w, tol)
        cos2, _, sincos = rotation_half_angles(w.T)
        cos_half, axis = half_angle_general(boost, chi, e, f)
        assert cos_half**2 == pytest.approx(cos2, abs=tol)
        assert np.allclose(cos_half * axis, sincos, rtol=0.0, atol=tol)
