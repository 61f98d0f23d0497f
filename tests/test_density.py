"""Tests for the reduced density-matrix constructors and the spin amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boostcoh import (
    MomentIntegrals,
    PerturbativeFactor,
    WavePacket,
    boost_from_beta,
    half_angle_perp,
    moments_quadrature,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)

from oracles import (
    amplitudes_dual, amplitudes_single, ptrace_reference, spin_half_matrix,
    wigner_matrix_tol, wigner_rotation_matrix,
)

ANGLES = st.floats(min_value=0.0, max_value=math.pi / 2)
HALF_ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


def pure_state_vector(theta: float) -> np.ndarray:
    """sin(theta)|01> + cos(theta)|10> in the basis |00>, |01>, |10>, |11>."""
    return np.array([0.0, math.sin(theta), math.cos(theta), 0.0], dtype=complex)


def pure_state_projector(theta: float) -> np.ndarray:
    """|psi><psi| for sin(theta)|01> + cos(theta)|10> (independent oracle)."""
    vec = pure_state_vector(theta)
    return np.outer(vec, vec.conj())


# The spin amplitudes are test oracles: these tests pin the oracles, and
# TestAmplitudeOracle checks the moment-based constructors against them.
class TestAmplitudesSingle:
    def test_no_rotation(self):
        a, b, c, d = amplitudes_single(math.pi / 4, (1.0, 0.0))
        r = 1 / math.sqrt(2)
        assert a == pytest.approx(r, rel=1e-15)
        assert b == 0.0
        assert c == 0.0
        assert d == pytest.approx(r, rel=1e-15)

    def test_quarter_rotation_at_theta_zero(self):
        r = 1 / math.sqrt(2)
        a, b, c, d = amplitudes_single(0.0, (r, r))
        assert a == 0.0
        assert b == 0.0
        assert c == pytest.approx(r, rel=1e-15)
        assert d == pytest.approx(r, rel=1e-15)

    @given(theta=ANGLES, phi=HALF_ANGLES)
    def test_normalized(self, theta, phi):
        amps = amplitudes_single(theta, (math.cos(phi), math.sin(phi)))
        assert sum(x * x for x in amps) == pytest.approx(1.0, abs=1e-12)


class TestAmplitudesDual:
    def test_unrotated(self):
        p, q, r, s = amplitudes_dual(math.pi / 6, (1.0, 0.0), (1.0, 0.0))
        assert p == 0.0
        assert q == pytest.approx(0.5, rel=1e-15)
        assert r == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
        assert s == 0.0

    @given(theta=ANGLES, phi=HALF_ANGLES)
    def test_reduces_to_single_when_second_unrotated(self, theta, phi):
        pair = (math.cos(phi), math.sin(phi))
        p, q, r, s = amplitudes_dual(theta, pair, (1.0, 0.0))
        a, b, c, d = amplitudes_single(theta, pair)
        assert p == pytest.approx(c, abs=1e-15)
        assert q == pytest.approx(a, abs=1e-15)
        assert r == pytest.approx(d, abs=1e-15)
        assert s == pytest.approx(b, abs=1e-15)

    @given(theta=ANGLES, phi1=HALF_ANGLES, phi2=HALF_ANGLES)
    def test_normalized(self, theta, phi1, phi2):
        amps = amplitudes_dual(
            theta, (math.cos(phi1), math.sin(phi1)), (math.cos(phi2), math.sin(phi2))
        )
        assert sum(x * x for x in amps) == pytest.approx(1.0, abs=1e-12)


# A discrete distribution of half-angles phi/2 for one particle: 2-6 angles
# with positive weights, normalized below.
HALF_ANGLE_DISTRIBUTIONS = st.lists(
    st.tuples(HALF_ANGLES, st.floats(min_value=0.01, max_value=1.0)), min_size=2, max_size=6
)


def _half_angles_and_moments(dist):
    """Per angle its weight and (cos, sin) pair, and the distribution's moments."""
    total = sum(w for _, w in dist)
    points = [(w / total, (math.cos(a), math.sin(a))) for a, w in dist]
    i1 = sum(w * c * c for w, (c, _) in points)
    i2 = sum(w * c * s for w, (c, s) in points)
    i3 = sum(w * s * s for w, (_, s) in points)
    return points, MomentIntegrals(i1, i2, i3)


class TestAmplitudeOracle:
    """The moment-based constructors are the momentum average of the pure
    states the spin amplitudes describe.  A discrete half-angle distribution
    stands in for the momentum profile; its moments feed the constructor."""

    @given(theta=ANGLES, dist=HALF_ANGLE_DISTRIBUTIONS)
    def test_single_boost_is_mixture_of_amplitude_states(self, theta, dist):
        points, m = _half_angles_and_moments(dist)
        want = np.zeros((4, 4))
        for w, pair in points:
            a, b, c, d = amplitudes_single(theta, pair)
            vec = np.array([c, a, d, b])  # basis order |00>, |01>, |10>, |11>
            want += w * np.outer(vec, vec)
        rho = rho_single_boost_general(theta, m)
        assert np.max(np.abs(rho.entries - want)) <= 1e-14

    @given(theta=ANGLES, dist1=HALF_ANGLE_DISTRIBUTIONS, dist2=HALF_ANGLE_DISTRIBUTIONS)
    def test_dual_boost_is_mixture_of_amplitude_states(self, theta, dist1, dist2):
        points1, m1 = _half_angles_and_moments(dist1)
        points2, m2 = _half_angles_and_moments(dist2)
        want = np.zeros((4, 4))
        for w1, pair1 in points1:
            for w2, pair2 in points2:
                # m1 binds to the second amplitude slot, m2 to the first
                vec = np.array(amplitudes_dual(theta, pair2, pair1))
                want += w1 * w2 * np.outer(vec, vec)
        rho = rho_dual_boost_general(theta, m1, m2)
        assert np.max(np.abs(rho.entries - want)) <= 1e-14



def _sharp_momentum_moments(boost, x: float) -> MomentIntegrals:
    """The moments of a packet concentrated at p/m = x."""
    trig = half_angle_perp(boost, x)
    return MomentIntegrals(trig.cos2_half, trig.sincos_half, trig.sin2_half)


def _spin_rotation(boost, x: float) -> np.ndarray:
    """D(W) of the Wigner rotation of a particle with p/m = x along x under
    a boost along z, from explicit Lorentz matrices."""
    w = wigner_rotation_matrix(boost, math.asinh(x), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    return spin_half_matrix(w)


def _rotation_tol(*boosts_and_momenta) -> float:
    """The Lorentz-matrix rounding bound of the worst-conditioned particle."""
    return max(wigner_matrix_tol(boost, math.asinh(x)) for boost, x in boosts_and_momenta)


SHARP_MOMENTA = st.floats(min_value=-10.0, max_value=10.0)
BOOST_BETAS = st.floats(min_value=0.0, max_value=0.99)


class TestSpinRotationOracle:
    """For a packet at one momentum, each boosted particle's spin turns by
    D(W), the spin-1/2 representation of its Wigner rotation, with |0> spin
    up along z: the constructors reproduce that pure state."""

    @pytest.mark.parametrize("beta", [0.2, 0.8, 0.99])
    @pytest.mark.parametrize("x", [-3.0, 0.4, 10.0])
    def test_single_boost_rotates_the_first_spin(self, beta, x):
        theta = 0.3
        boost = boost_from_beta(beta)
        vec = np.kron(_spin_rotation(boost, x), np.eye(2)) @ pure_state_vector(theta)
        rho = rho_single_boost_general(theta, _sharp_momentum_moments(boost, x))
        assert np.max(np.abs(rho.entries - np.outer(vec, vec.conj()))) <= _rotation_tol((boost, x))

    @given(theta=ANGLES, beta1=BOOST_BETAS, x1=SHARP_MOMENTA, beta2=BOOST_BETAS, x2=SHARP_MOMENTA)
    def test_dual_boost_rotates_both_spins(self, theta, beta1, x1, beta2, x2):
        b1, b2 = boost_from_beta(beta1), boost_from_beta(beta2)
        # m1 binds to the second spin, m2 to the first
        rotation = np.kron(_spin_rotation(b2, x2), _spin_rotation(b1, x1))
        vec = rotation @ pure_state_vector(theta)
        rho = rho_dual_boost_general(
            theta, _sharp_momentum_moments(b1, x1), _sharp_momentum_moments(b2, x2)
        )
        tol = _rotation_tol((b1, x1), (b2, x2))
        assert np.max(np.abs(rho.entries - np.outer(vec, vec.conj()))) <= tol


class TestPartialTrace:
    """One-particle marginals of the constructed states."""

    @given(theta=ANGLES, f=st.floats(0.0, 0.45))
    def test_single_boost_reduction(self, theta, f):
        rho = rho_single_boost_perturbative(theta, PerturbativeFactor(f))
        reduced = ptrace_reference(rho.entries, "first").real
        cos2t = math.cos(2 * theta)
        assert reduced[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(math.cos(theta) ** 2 - cos2t * f, abs=1e-12)
        assert abs(reduced[0, 1]) < 1e-15

    @given(f=st.floats(0.0, 0.45))
    def test_maximal_entanglement_hides_the_boost(self, f):
        rho = rho_single_boost_perturbative(math.pi / 4, PerturbativeFactor(f))
        reduced = ptrace_reference(rho.entries, "first").real
        assert reduced[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(0.5, abs=1e-12)

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_dual_boost_reductions(self, theta, f1, f2):
        rho = rho_dual_boost_perturbative(theta, PerturbativeFactor(f1), PerturbativeFactor(f2))
        cos2t = math.cos(2 * theta)
        first = ptrace_reference(rho.entries, "first").real
        assert first[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f2, abs=1e-12)
        second = ptrace_reference(rho.entries, "second").real
        assert second[0, 0] == pytest.approx(math.cos(theta) ** 2 - cos2t * f1, abs=1e-12)
        assert second[1, 1] == pytest.approx(math.sin(theta) ** 2 + cos2t * f1, abs=1e-12)

    def test_unboosted_pure_state(self):
        theta = 0.9
        zero = PerturbativeFactor(0.0)
        rho = rho_dual_boost_perturbative(theta, zero, zero)
        first = ptrace_reference(rho.entries, "first").real
        second = ptrace_reference(rho.entries, "second").real
        assert np.allclose(np.diag(first), [math.sin(theta) ** 2, math.cos(theta) ** 2])
        assert np.allclose(np.diag(second), [math.cos(theta) ** 2, math.sin(theta) ** 2])

    @given(theta=ANGLES, dist=HALF_ANGLE_DISTRIBUTIONS)
    def test_single_boost_leaves_the_partner_alone(self, theta, dist):
        # the boost acts on the first spin only, odd moments included
        _, m = _half_angles_and_moments(dist)
        second = ptrace_reference(rho_single_boost_general(theta, m).entries, "second")
        want = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2])
        assert np.max(np.abs(second - want)) <= 1e-14

    @given(theta=ANGLES, dist1=HALF_ANGLE_DISTRIBUTIONS, dist1b=HALF_ANGLE_DISTRIBUTIONS,
           dist2=HALF_ANGLE_DISTRIBUTIONS)
    def test_dual_boost_marginal_ignores_the_other_boost(self, theta, dist1, dist1b, dist2):
        # the first spin's marginal depends on m2 alone, whatever m1 is
        _, m1 = _half_angles_and_moments(dist1)
        _, m1b = _half_angles_and_moments(dist1b)
        _, m2 = _half_angles_and_moments(dist2)
        first = ptrace_reference(rho_dual_boost_general(theta, m1, m2).entries, "first")
        other = ptrace_reference(rho_dual_boost_general(theta, m1b, m2).entries, "first")
        assert np.max(np.abs(first - other)) <= 1e-14

class TestRhoSingleBoostGeneral:
    def test_unboosted_is_pure_projector(self):
        rho = rho_single_boost_general(
            math.pi / 4, MomentIntegrals(1.0, 0.0, 0.0)
        )
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.allclose(rho.entries, expected, atol=1e-15)

    def test_theta_zero_entries(self):
        rho = rho_single_boost_general(0.0, MomentIntegrals(0.9, 0.0, 0.1))
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
        m = MomentIntegrals(0.9, 0.05, 0.1)
        rho = rho_single_boost_general(theta, m).entries.real
        assert rho[0, 1] == pytest.approx(st_ * ct * 0.05, rel=1e-13)
        assert rho[0, 2] == pytest.approx(ct**2 * 0.05, rel=1e-13)
        assert rho[1, 3] == pytest.approx(-(st_**2) * 0.05, rel=1e-13)

    @given(theta=ANGLES)
    def test_matches_perturbative_by_substitution(self, theta):
        f = PerturbativeFactor(0.0032756246548487538)
        general = rho_single_boost_general(
            theta, MomentIntegrals(1.0 - f.f, 0.0, f.f)
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
            MomentIntegrals(1 - f1, 0.0, f1),
            MomentIntegrals(1 - f2, 0.0, f2),
        )
        pert = rho_dual_boost_perturbative(
            theta, PerturbativeFactor(f1), PerturbativeFactor(f2)
        )
        assert np.max(np.abs(general.entries - pert.entries)) <= f1 * f2 + 1e-14

    def test_one_boost_limit_reduces_to_single(self):
        m = MomentIntegrals(0.93, 0.02, 0.07)
        rest = MomentIntegrals(1.0, 0.0, 0.0)
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
        f1s, f2s = np.array(points).T
        stack = rho_dual_boost_perturbative(theta, f1s, f2s)
        assert stack.entries.shape == (len(points), 4, 4)
        assert stack.errors == (None,) * len(points)
        for k, (f1, f2) in enumerate(points):
            lone = rho_dual_boost_perturbative(theta, PerturbativeFactor(f1), PerturbativeFactor(f2))
            assert np.array_equal(stack.entries[k], lone.entries)
        single = rho_single_boost_perturbative(theta, f2s)
        for k, (_, f2) in enumerate(points):
            lone = rho_single_boost_perturbative(theta, PerturbativeFactor(f2))
            assert np.array_equal(single.entries[k], lone.entries)

    @given(theta=ANGLES, points=FACTORS)
    def test_general_stack_matches_lone_calls(self, theta, points):
        # I2 = 0, as for every state the pipeline builds
        m1s = np.array([(1 - a, 0.0, a) for a, _ in points])
        m2s = np.array([(1 - b, 0.0, b) for _, b in points])
        stack = rho_dual_boost_general(theta, m1s, m2s)
        for k, (m1, m2) in enumerate(zip(m1s.tolist(), m2s.tolist())):
            lone = rho_dual_boost_general(theta, MomentIntegrals(*m1), MomentIntegrals(*m2))
            assert np.array_equal(stack.entries[k], lone.entries)
        single = rho_single_boost_general(theta, m2s)
        for k, m2 in enumerate(m2s.tolist()):
            lone = rho_single_boost_general(theta, MomentIntegrals(*m2))
            assert np.array_equal(single.entries[k], lone.entries)

    def test_odd_moments_in_a_stack(self):
        m = MomentIntegrals(0.93, 0.02, 0.07)
        stack = rho_single_boost_general(0.5, np.array([[0.93, 0.02, 0.07]] * 2))
        lone = rho_single_boost_general(0.5, m)
        assert np.allclose(stack.entries, lone.entries, rtol=0.0, atol=1e-16)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            rho_dual_boost_perturbative(0.5, np.array([0.1, 0.1]), np.array([0.1]))
        with pytest.raises(ValueError, match="same length"):
            rho_dual_boost_general(0.5, np.array([[1.0, 0.0, 0.0]] * 2), np.array([[1.0, 0.0, 0.0]]))

    def test_factor_gate_applies_to_every_point(self):
        with pytest.raises(ValueError, match="F1 \\+ F2 must be < 1/2"):
            rho_dual_boost_perturbative(0.5, np.array([0.1, 0.1]), np.array([0.1, 0.45]))

