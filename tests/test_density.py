"""Tests for the reduced density-matrix constructors and partial traces."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boostcoh import (
    MomentIntegrals,
    PerturbativeFactor,
    WavePacket,
    amplitudes_dual,
    amplitudes_single,
    boost_from_beta,
    moments_quadrature,
    partial_trace,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)

ANGLES = st.floats(min_value=0.0, max_value=math.pi / 2)
HALF_ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


def pure_state_projector(theta: float) -> np.ndarray:
    """|psi><psi| for sin(theta)|01> + cos(theta)|10| (independent oracle)."""
    vec = np.array([0.0, math.sin(theta), math.cos(theta), 0.0], dtype=complex)
    return np.outer(vec, vec.conj())


def ptrace_reference(rho: np.ndarray, keep: str) -> np.ndarray:
    """Index-loop partial trace, independent of the einsum path."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "first":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


class TestAmplitudesSingle:
    def test_no_rotation(self):
        amps = amplitudes_single(math.pi / 4, (1.0, 0.0))
        r = 1 / math.sqrt(2)
        assert amps.a_coef == pytest.approx(r, rel=1e-15)
        assert amps.b_coef == 0.0
        assert amps.c_coef == 0.0
        assert amps.d_coef == pytest.approx(r, rel=1e-15)

    def test_quarter_rotation_at_theta_zero(self):
        r = 1 / math.sqrt(2)
        amps = amplitudes_single(0.0, (r, r))
        assert amps.a_coef == 0.0
        assert amps.b_coef == 0.0
        assert amps.c_coef == pytest.approx(r, rel=1e-15)
        assert amps.d_coef == pytest.approx(r, rel=1e-15)

    @given(theta=ANGLES, phi=HALF_ANGLES)
    def test_normalized(self, theta, phi):
        amps = amplitudes_single(theta, (math.cos(phi), math.sin(phi)))
        total = amps.a_coef**2 + amps.b_coef**2 + amps.c_coef**2 + amps.d_coef**2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_half_angle(self):
        with pytest.raises(ValueError):
            amplitudes_single(0.3, (0.9, 0.9))


class TestAmplitudesDual:
    def test_unrotated(self):
        amps = amplitudes_dual(math.pi / 6, (1.0, 0.0), (1.0, 0.0))
        assert amps.p_coef == 0.0
        assert amps.q_coef == pytest.approx(0.5, rel=1e-15)
        assert amps.r_coef == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
        assert amps.s_coef == 0.0

    @given(theta=ANGLES, phi=HALF_ANGLES)
    def test_reduces_to_single_when_second_unrotated(self, theta, phi):
        pair = (math.cos(phi), math.sin(phi))
        dual = amplitudes_dual(theta, pair, (1.0, 0.0))
        single = amplitudes_single(theta, pair)
        assert dual.p_coef == pytest.approx(single.c_coef, abs=1e-15)
        assert dual.q_coef == pytest.approx(single.a_coef, abs=1e-15)
        assert dual.r_coef == pytest.approx(single.d_coef, abs=1e-15)
        assert dual.s_coef == pytest.approx(single.b_coef, abs=1e-15)

    @given(theta=ANGLES, phi1=HALF_ANGLES, phi2=HALF_ANGLES)
    def test_normalized(self, theta, phi1, phi2):
        amps = amplitudes_dual(
            theta, (math.cos(phi1), math.sin(phi1)), (math.cos(phi2), math.sin(phi2))
        )
        total = amps.p_coef**2 + amps.q_coef**2 + amps.r_coef**2 + amps.s_coef**2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRhoSingleBoostGeneral:
    def test_unboosted_is_pure_projector(self):
        rho = rho_single_boost_general(
            math.pi / 4, MomentIntegrals(1.0, 0.0, 0.0, "quadrature")
        )
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.allclose(rho.entries, expected, atol=1e-15)

    def test_theta_zero_entries(self):
        rho = rho_single_boost_general(0.0, MomentIntegrals(0.9, 0.0, 0.1, "quadrature"))
        e = rho.entries.real
        assert e[0, 0] == pytest.approx(0.1)
        assert e[2, 2] == pytest.approx(0.9)
        assert e[0, 3] == 0.0 and e[1, 2] == 0.0

    def test_quadrature_moments_at_rest_give_pure_state(self):
        m = moments_quadrature(WavePacket(2, 0.1, 1.0), boost_from_beta(0.0))
        for theta in (0.0, 0.4, math.pi / 4, math.pi / 2):
            rho = rho_single_boost_general(theta, m)
            assert np.max(np.abs(rho.entries - pure_state_projector(theta))) < 1e-12

    def test_nonzero_i2_layout(self):
        # odd-moment weight populates exactly the off-X positions
        theta = 0.3
        st_, ct = math.sin(theta), math.cos(theta)
        m = MomentIntegrals(0.9, 0.05, 0.1, "quadrature")
        rho = rho_single_boost_general(theta, m).entries.real
        assert rho[0, 1] == pytest.approx(st_ * ct * 0.05, rel=1e-13)
        assert rho[0, 2] == pytest.approx(ct**2 * 0.05, rel=1e-13)
        assert rho[1, 3] == pytest.approx(-(st_**2) * 0.05, rel=1e-13)

    @given(theta=ANGLES)
    def test_matches_perturbative_by_substitution(self, theta):
        f = PerturbativeFactor(0.0032756246548487538)
        general = rho_single_boost_general(
            theta, MomentIntegrals(1.0 - f.f, 0.0, f.f, "perturbative")
        )
        pert = rho_single_boost_perturbative(theta, f)
        assert np.array_equal(general.entries, pert.entries)


class TestRhoSingleBoostPerturbative:
    def test_pure_at_zero_factor(self):
        rho = rho_single_boost_perturbative(math.pi / 4, PerturbativeFactor(0.0))
        purity = float(np.trace(rho.entries @ rho.entries).real)
        assert purity == pytest.approx(1.0, abs=1e-14)

    @given(
        theta=ANGLES,
        f=st.floats(min_value=0.0, max_value=0.49),
    )
    def test_rank_two_purity(self, theta, f):
        rho = rho_single_boost_perturbative(theta, PerturbativeFactor(f))
        purity = float(np.trace(rho.entries @ rho.entries).real)
        assert purity == pytest.approx(f**2 + (1 - f) ** 2, abs=1e-12)

    def test_spectrum_cross_check(self):
        f = 0.0032756246548487538
        rho = rho_single_boost_perturbative(math.pi / 4, PerturbativeFactor(f))
        eig = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
        assert np.allclose(eig, [1 - f, f, 0.0, 0.0], atol=1e-14)

    def test_rejects_large_factor(self):
        with pytest.raises(ValueError):
            rho_single_boost_perturbative(0.3, PerturbativeFactor(0.5))


class TestRhoDualBoostPerturbative:
    def test_pure_at_zero_factors(self):
        zero = PerturbativeFactor(0.0)
        rho = rho_dual_boost_perturbative(0.7, zero, zero)
        assert np.max(np.abs(rho.entries - pure_state_projector(0.7))) < 1e-15

    @given(theta=ANGLES, f=st.floats(min_value=0.0, max_value=0.45))
    def test_single_boost_limit(self, theta, f):
        # in the corner convention of the closed form, dropping the first
        # factor leaves exactly the single-boost matrix
        dual = rho_dual_boost_perturbative(theta, PerturbativeFactor(0.0), PerturbativeFactor(f))
        single = rho_single_boost_perturbative(theta, PerturbativeFactor(f))
        assert np.max(np.abs(dual.entries - single.entries)) < 1e-15

    @given(theta=ANGLES, f=st.floats(min_value=0.0, max_value=0.45))
    def test_other_single_boost_limit_is_swap_conjugate(self, theta, f):
        # dropping the second factor gives the qubit-swapped single-boost
        # matrix at the complementary angle
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        dual = rho_dual_boost_perturbative(theta, PerturbativeFactor(f), PerturbativeFactor(0.0))
        single = rho_single_boost_perturbative(math.pi / 2 - theta, PerturbativeFactor(f))
        assert np.max(np.abs(dual.entries - swap @ single.entries @ swap)) < 1e-12

    def test_corner_entries(self):
        rho = rho_dual_boost_perturbative(
            math.pi / 4, PerturbativeFactor(0.002), PerturbativeFactor(0.003)
        ).entries.real
        assert rho[0, 0] == pytest.approx(0.0025, rel=1e-13)
        assert rho[3, 3] == pytest.approx(0.0025, rel=1e-13)
        assert rho[0, 3] == pytest.approx(-0.0025, rel=1e-13)
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_swap_symmetry(self, theta, f1, f2):
        # swapping the factors equals swapping qubits and theta -> pi/2 - theta
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        a = rho_dual_boost_perturbative(
            theta, PerturbativeFactor(f1), PerturbativeFactor(f2)
        ).entries
        b = rho_dual_boost_perturbative(
            math.pi / 2 - theta, PerturbativeFactor(f2), PerturbativeFactor(f1)
        ).entries
        assert np.max(np.abs(a - swap @ b @ swap)) < 1e-12

    def test_rejects_large_sum(self):
        with pytest.raises(ValueError):
            rho_dual_boost_perturbative(0.3, PerturbativeFactor(0.3), PerturbativeFactor(0.25))


class TestRhoDualBoostGeneral:
    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_collapses_to_perturbative_without_odd_moments(self, theta, f1, f2):
        # exact products like (1 - f1) f2 reduce to the first-order sums of
        # the closed form up to the quadratic cross term f1 f2
        general = rho_dual_boost_general(
            theta,
            MomentIntegrals(1 - f1, 0.0, f1, "perturbative"),
            MomentIntegrals(1 - f2, 0.0, f2, "perturbative"),
        )
        pert = rho_dual_boost_perturbative(
            theta, PerturbativeFactor(f1), PerturbativeFactor(f2)
        )
        assert np.max(np.abs(general.entries - pert.entries)) <= f1 * f2 + 1e-14

    def test_one_boost_limit_reduces_to_single(self):
        m = MomentIntegrals(0.93, 0.02, 0.07, "quadrature")
        rest = MomentIntegrals(1.0, 0.0, 0.0, "quadrature")
        for theta in (0.0, 0.5, 1.2):
            dual = rho_dual_boost_general(theta, rest, m)
            single = rho_single_boost_general(theta, m)
            assert np.max(np.abs(dual.entries - single.entries)) == 0.0

    def test_quadrature_pipeline(self):
        pkt = WavePacket(2, 0.1, 1.0)
        m1 = moments_quadrature(pkt, boost_from_beta(0.95))
        m2 = moments_quadrature(pkt, boost_from_beta(0.8))
        rho = rho_dual_boost_general(0.6, m1, m2)
        assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)


FACTORS = st.lists(st.tuples(st.floats(0.0, 0.24), st.floats(0.0, 0.24)), min_size=1, max_size=8)


class TestStackedConstructors:
    """Per-point arguments build one stack, each matrix bit for bit the lone call's."""

    @given(theta=ANGLES, points=FACTORS)
    def test_perturbative_stack_matches_lone_calls(self, theta, points):
        f1s = [PerturbativeFactor(a) for a, _ in points]
        f2s = [PerturbativeFactor(b) for _, b in points]
        stack = rho_dual_boost_perturbative(theta, f1s, f2s)
        assert stack.entries.shape == (len(points), 4, 4)
        assert stack.errors == (None,) * len(points)
        for k, (f1, f2) in enumerate(zip(f1s, f2s)):
            lone = rho_dual_boost_perturbative(theta, f1, f2)
            assert np.array_equal(stack.entries[k], lone.entries)
        single = rho_single_boost_perturbative(theta, f2s)
        for k, f2 in enumerate(f2s):
            lone = rho_single_boost_perturbative(theta, f2)
            assert np.array_equal(single.entries[k], lone.entries)

    @given(theta=ANGLES, points=FACTORS)
    def test_general_stack_matches_lone_calls(self, theta, points):
        # I2 = 0, as for every state the pipeline builds
        m1s = [MomentIntegrals(1 - a, 0.0, a, "quadrature") for a, _ in points]
        m2s = [MomentIntegrals(1 - b, 0.0, b, "quadrature") for _, b in points]
        stack = rho_dual_boost_general(theta, m1s, m2s)
        for k, (m1, m2) in enumerate(zip(m1s, m2s)):
            assert np.array_equal(stack.entries[k], rho_dual_boost_general(theta, m1, m2).entries)
        single = rho_single_boost_general(theta, m2s)
        for k, m2 in enumerate(m2s):
            assert np.array_equal(single.entries[k], rho_single_boost_general(theta, m2).entries)

    def test_odd_moments_in_a_stack(self):
        m = MomentIntegrals(0.93, 0.02, 0.07, "quadrature")
        stack = rho_single_boost_general(0.5, [m, m])
        lone = rho_single_boost_general(0.5, m)
        assert np.allclose(stack.entries, lone.entries, rtol=0.0, atol=1e-16)

    def test_length_mismatch_rejected(self):
        f = PerturbativeFactor(0.1)
        with pytest.raises(ValueError, match="same length"):
            rho_dual_boost_perturbative(0.5, [f, f], [f])

    def test_factor_gate_applies_to_every_point(self):
        ok, bad = PerturbativeFactor(0.1), PerturbativeFactor(0.45)
        with pytest.raises(ValueError, match="F1 \\+ F2 must be < 1/2"):
            rho_dual_boost_perturbative(0.5, [ok, ok], [ok, bad])


class TestPartialTrace:
    @given(theta=ANGLES, f=st.floats(0.0, 0.45))
    def test_single_boost_reduction(self, theta, f):
        rho = rho_single_boost_perturbative(theta, PerturbativeFactor(f))
        reduced = partial_trace(rho, "first").entries.real
        cos2t = math.cos(2 * theta)
        assert reduced[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(math.cos(theta) ** 2 - cos2t * f, abs=1e-12)
        assert abs(reduced[0, 1]) < 1e-15

    @given(f=st.floats(0.0, 0.45))
    def test_maximal_entanglement_hides_the_boost(self, f):
        rho = rho_single_boost_perturbative(math.pi / 4, PerturbativeFactor(f))
        reduced = partial_trace(rho, "first").entries.real
        assert reduced[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(0.5, abs=1e-12)

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_dual_boost_reductions(self, theta, f1, f2):
        rho = rho_dual_boost_perturbative(theta, PerturbativeFactor(f1), PerturbativeFactor(f2))
        cos2t = math.cos(2 * theta)
        first = partial_trace(rho, "first").entries.real
        assert first[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f2, abs=1e-12)
        second = partial_trace(rho, "second").entries.real
        assert second[0, 0] == pytest.approx(math.cos(theta) ** 2 - cos2t * f1, abs=1e-12)
        assert second[1, 1] == pytest.approx(math.sin(theta) ** 2 + cos2t * f1, abs=1e-12)

    def test_unboosted_pure_state(self):
        theta = 0.9
        zero = PerturbativeFactor(0.0)
        rho = rho_dual_boost_perturbative(theta, zero, zero)
        first = partial_trace(rho, "first").entries.real
        second = partial_trace(rho, "second").entries.real
        assert np.allclose(np.diag(first), [math.sin(theta) ** 2, math.cos(theta) ** 2])
        assert np.allclose(np.diag(second), [math.cos(theta) ** 2, math.sin(theta) ** 2])

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_against_index_loop_reference(self, theta, f1, f2):
        rho = rho_dual_boost_perturbative(theta, PerturbativeFactor(f1), PerturbativeFactor(f2))
        for keep in ("first", "second"):
            reduced = partial_trace(rho, keep)
            assert np.allclose(reduced.entries, ptrace_reference(rho.entries, keep), atol=1e-15)
            assert reduced.entries.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        rho = rho_single_boost_perturbative(0.3, PerturbativeFactor(0.1))
        with pytest.raises(ValueError):
            partial_trace(rho, "third")
        with pytest.raises(ValueError):
            partial_trace(partial_trace(rho, "first"), "first")
