"""Tests for the reduced density-matrix constructors and the spin amplitudes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcoh import (
    boost_from_beta,
    half_angle_perp,
    moments_quadrature,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)

from oracles import (
    amplitudes_dual, amplitudes_single, dual_coefficient_table, ptrace_reference, spin_half_matrix,
    wigner_matrix_tol, wigner_rotation_matrix, x_matrices,
)

ANGLES = st.floats(min_value=0.0, max_value=math.pi / 2)


def col(*values) -> np.ndarray:
    """A column of F values, or of (I1, I3) rows, one per point."""
    return np.array(values, dtype=float)


def one(rho) -> np.ndarray:
    """The 4x4 matrix of a one-point stack, which must have passed validation."""
    assert rho.blocks.shape == (1, 2, 3) and rho.errors == (None,)
    return x_matrices(rho.blocks)[0]


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

    @given(theta=ANGLES, phi1=HALF_ANGLES, phi2=HALF_ANGLES)
    def test_coefficient_table_contracts_to_amplitudes(self, theta, phi1, phi2):
        # The table the einsum oracle contracts, checked against the
        # amplitudes written out term by term.
        u, v = (math.cos(phi1), math.sin(phi1)), (math.cos(phi2), math.sin(phi2))
        got = np.einsum("aij,i,j->a", dual_coefficient_table(theta), u, v)
        assert got == pytest.approx(amplitudes_dual(theta, u, v), abs=1e-15)


# A discrete distribution of half-angles phi/2 for one particle: 1-6 angles
# with positive weights, normalized and mirrored below.
HALF_ANGLE_DISTRIBUTIONS = st.lists(
    st.tuples(HALF_ANGLES, st.floats(min_value=0.01, max_value=1.0)), min_size=1, max_size=6
)


def _half_angles_and_moments(dist):
    """Per angle its weight and (cos, sin) pair, and the distribution's moments.

    Each angle comes with its mirror -phi/2 at the same weight, as a
    momentum p comes with -p in the even |psi(p)|^2 of every packet, so
    the odd moment I2 adds up to exactly zero.
    """
    total = sum(w for _, w in dist)
    points = []
    for a, w in dist:
        c, s = math.cos(a), math.sin(a)
        points += [(w / (2 * total), (c, s)), (w / (2 * total), (c, -s))]
    i1 = sum(w * c * c for w, (c, _) in points)
    i2 = sum(w * c * s for w, (c, s) in points)
    i3 = sum(w * s * s for w, (_, s) in points)
    assert i2 == 0.0
    return points, col((i1, i3))


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
        assert np.max(np.abs(one(rho) - want)) <= 1e-14

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
        assert np.max(np.abs(one(rho) - want)) <= 1e-14



def _sharp_momentum_moments(boost, x: float) -> np.ndarray:
    """The (I1, I3) row of a packet concentrated at p/m = x and -x with equal weight.

    cos^2 and sin^2 of the half-angle are even in p and sin cos is odd, so
    I2 = 0.
    """
    cos2, sin2, _ = half_angle_perp(boost, np.array([x]))[0]
    return col((cos2, sin2))


def _mixture(theta: float, rotations) -> np.ndarray:
    """The equal-weight mixture of the pure state turned by each of ``rotations``."""
    vecs = [r @ pure_state_vector(theta) for r in rotations]
    return sum(np.outer(v, v.conj()) for v in vecs) / len(vecs)


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
    up along z.  For a packet at p/m = x and -x with equal weight, the
    constructors reproduce the mixture of the two turned pure states (four
    when both particles are boosted)."""

    @pytest.mark.parametrize("beta", [0.2, 0.8, 0.99])
    @pytest.mark.parametrize("x", [-3.0, 0.4, 10.0])
    def test_single_boost_rotates_the_first_spin(self, beta, x):
        theta = 0.3
        boost = boost_from_beta(beta)
        want = _mixture(theta, [np.kron(_spin_rotation(boost, sign * x), np.eye(2))
                                for sign in (1.0, -1.0)])
        rho = rho_single_boost_general(theta, _sharp_momentum_moments(boost, x))
        assert np.max(np.abs(one(rho) - want)) <= _rotation_tol((boost, x))

    @given(theta=ANGLES, beta1=BOOST_BETAS, x1=SHARP_MOMENTA, beta2=BOOST_BETAS, x2=SHARP_MOMENTA)
    def test_dual_boost_rotates_both_spins(self, theta, beta1, x1, beta2, x2):
        b1, b2 = boost_from_beta(beta1), boost_from_beta(beta2)
        # m1 binds to the second spin, m2 to the first
        want = _mixture(theta, [
            np.kron(_spin_rotation(b2, s2 * x2), _spin_rotation(b1, s1 * x1))
            for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
        ])
        rho = rho_dual_boost_general(
            theta, _sharp_momentum_moments(b1, x1), _sharp_momentum_moments(b2, x2)
        )
        assert np.max(np.abs(one(rho) - want)) <= _rotation_tol((b1, x1), (b2, x2))


class TestPartialTrace:
    """One-particle marginals of the constructed states."""

    @given(theta=ANGLES, f=st.floats(0.0, 0.45))
    def test_single_boost_reduction(self, theta, f):
        rho = rho_single_boost_perturbative(theta, col(f))
        reduced = ptrace_reference(one(rho), "first").real
        cos2t = math.cos(2 * theta)
        assert reduced[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(math.cos(theta) ** 2 - cos2t * f, abs=1e-12)
        assert abs(reduced[0, 1]) < 1e-15

    @given(f=st.floats(0.0, 0.45))
    def test_maximal_entanglement_hides_the_boost(self, f):
        rho = rho_single_boost_perturbative(math.pi / 4, col(f))
        reduced = ptrace_reference(one(rho), "first").real
        assert reduced[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert reduced[1, 1] == pytest.approx(0.5, abs=1e-12)

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_dual_boost_reductions(self, theta, f1, f2):
        rho = rho_dual_boost_perturbative(theta, col(f1), col(f2))
        cos2t = math.cos(2 * theta)
        first = ptrace_reference(one(rho), "first").real
        assert first[0, 0] == pytest.approx(math.sin(theta) ** 2 + cos2t * f2, abs=1e-12)
        second = ptrace_reference(one(rho), "second").real
        assert second[0, 0] == pytest.approx(math.cos(theta) ** 2 - cos2t * f1, abs=1e-12)
        assert second[1, 1] == pytest.approx(math.sin(theta) ** 2 + cos2t * f1, abs=1e-12)

    def test_unboosted_pure_state(self):
        theta = 0.9
        zero = col(0.0)
        rho = rho_dual_boost_perturbative(theta, zero, zero)
        first = ptrace_reference(one(rho), "first").real
        second = ptrace_reference(one(rho), "second").real
        assert np.allclose(np.diag(first), [math.sin(theta) ** 2, math.cos(theta) ** 2])
        assert np.allclose(np.diag(second), [math.cos(theta) ** 2, math.sin(theta) ** 2])

    @given(theta=ANGLES, dist=HALF_ANGLE_DISTRIBUTIONS)
    def test_single_boost_leaves_the_partner_alone(self, theta, dist):
        # the boost acts on the first spin only
        _, m = _half_angles_and_moments(dist)
        second = ptrace_reference(one(rho_single_boost_general(theta, m)), "second")
        want = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2])
        assert np.max(np.abs(second - want)) <= 1e-14

    @given(theta=ANGLES, dist1=HALF_ANGLE_DISTRIBUTIONS, dist1b=HALF_ANGLE_DISTRIBUTIONS,
           dist2=HALF_ANGLE_DISTRIBUTIONS)
    def test_dual_boost_marginal_ignores_the_other_boost(self, theta, dist1, dist1b, dist2):
        # the first spin's marginal depends on m2 alone, whatever m1 is
        _, m1 = _half_angles_and_moments(dist1)
        _, m1b = _half_angles_and_moments(dist1b)
        _, m2 = _half_angles_and_moments(dist2)
        first = ptrace_reference(one(rho_dual_boost_general(theta, m1, m2)), "first")
        other = ptrace_reference(one(rho_dual_boost_general(theta, m1b, m2)), "first")
        assert np.max(np.abs(first - other)) <= 1e-14

class TestRhoSingleBoostGeneral:
    def test_unboosted_is_pure_projector(self):
        rho = rho_single_boost_general(
            math.pi / 4, col((1.0, 0.0))
        )
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.allclose(one(rho), expected, atol=1e-15)

    def test_theta_zero_entries(self):
        rho = rho_single_boost_general(0.0, col((0.9, 0.1)))
        e = one(rho)
        assert e[0, 0] == pytest.approx(0.1)
        assert e[2, 2] == pytest.approx(0.9)
        assert e[0, 3] == 0.0 and e[1, 2] == 0.0

    def test_quadrature_moments_at_rest_give_pure_state(self):
        m, errors = moments_quadrature(2, boost_from_beta(0.0), col(0.1))
        assert errors.tolist() == [None]
        for theta in (0.0, 0.4, math.pi / 4, math.pi / 2):
            rho = rho_single_boost_general(theta, m)
            assert np.max(np.abs(one(rho) - pure_state_projector(theta))) < 1e-12

    def test_nonzero_i2_layout(self):
        # one half-angle's odd moment c s populates exactly the off-X
        # positions of its pure state; the mirror angle's cancels it
        theta, angle = 0.3, 0.2
        st_, ct = math.sin(theta), math.cos(theta)
        points, m = _half_angles_and_moments([(angle, 1.0)])
        states = []
        for _, pair in points:
            a, b, c, d = amplitudes_single(theta, pair)
            vec = np.array([c, a, d, b])  # basis order |00>, |01>, |10>, |11>
            states.append(np.outer(vec, vec))
        i2 = math.cos(angle) * math.sin(angle)
        for state, sign in zip(states, (1.0, -1.0)):
            assert state[0, 1] == pytest.approx(sign * st_ * ct * i2, rel=1e-13)
            assert state[0, 2] == pytest.approx(sign * ct**2 * i2, rel=1e-13)
            assert state[1, 3] == pytest.approx(-sign * st_**2 * i2, rel=1e-13)
        rho = one(rho_single_boost_general(theta, m))
        assert np.max(np.abs(rho - (states[0] + states[1]) / 2)) <= 1e-15

    @given(theta=ANGLES)
    def test_matches_perturbative_by_substitution(self, theta):
        f = 0.0032756246548487538
        general = rho_single_boost_general(theta, col((1.0 - f, f)))
        pert = rho_single_boost_perturbative(theta, col(f))
        assert np.array_equal(one(general), one(pert))


class TestRhoSingleBoostPerturbative:
    def test_pure_at_zero_factor(self):
        rho = rho_single_boost_perturbative(math.pi / 4, col(0.0))
        purity = float(np.trace(one(rho) @ one(rho)))
        assert purity == pytest.approx(1.0, abs=1e-14)

    @given(
        theta=ANGLES,
        f=st.floats(min_value=0.0, max_value=0.49),
    )
    def test_rank_two_purity(self, theta, f):
        rho = rho_single_boost_perturbative(theta, col(f))
        purity = float(np.trace(one(rho) @ one(rho)))
        assert purity == pytest.approx(f**2 + (1 - f) ** 2, abs=1e-12)

    def test_spectrum_cross_check(self):
        f = 0.0032756246548487538
        rho = rho_single_boost_perturbative(math.pi / 4, col(f))
        eig = np.sort(np.linalg.eigvalsh(one(rho)))[::-1]
        assert np.allclose(eig, [1 - f, f, 0.0, 0.0], atol=1e-14)

    def test_rejects_large_factor(self):
        with pytest.raises(ValueError):
            rho_single_boost_perturbative(0.3, col(0.5))


class TestRhoDualBoostPerturbative:
    def test_pure_at_zero_factors(self):
        zero = col(0.0)
        rho = rho_dual_boost_perturbative(0.7, zero, zero)
        assert np.max(np.abs(one(rho) - pure_state_projector(0.7))) < 1e-15

    @given(theta=ANGLES, f=st.floats(min_value=0.0, max_value=0.45))
    def test_single_boost_limit(self, theta, f):
        # in the corner convention of the closed form, dropping the first
        # factor leaves exactly the single-boost matrix
        dual = rho_dual_boost_perturbative(theta, col(0.0), col(f))
        single = rho_single_boost_perturbative(theta, col(f))
        assert np.max(np.abs(one(dual) - one(single))) < 1e-15

    @given(theta=ANGLES, f=st.floats(min_value=0.0, max_value=0.45))
    def test_other_single_boost_limit_is_swap_conjugate(self, theta, f):
        # dropping the second factor gives the qubit-swapped single-boost
        # matrix at the complementary angle
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        dual = rho_dual_boost_perturbative(theta, col(f), col(0.0))
        single = rho_single_boost_perturbative(math.pi / 2 - theta, col(f))
        assert np.max(np.abs(one(dual) - swap @ one(single) @ swap)) < 1e-12

    def test_corner_entries(self):
        rho = one(rho_dual_boost_perturbative(math.pi / 4, col(0.002), col(0.003)))
        assert rho[0, 0] == pytest.approx(0.0025, rel=1e-13)
        assert rho[3, 3] == pytest.approx(0.0025, rel=1e-13)
        assert rho[0, 3] == pytest.approx(-0.0025, rel=1e-13)
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_swap_symmetry(self, theta, f1, f2):
        # swapping the factors equals swapping qubits and theta -> pi/2 - theta
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        a = one(rho_dual_boost_perturbative(theta, col(f1), col(f2)))
        b = one(rho_dual_boost_perturbative(math.pi / 2 - theta, col(f2), col(f1)))
        assert np.max(np.abs(a - swap @ b @ swap)) < 1e-12

    def test_rejects_large_sum(self):
        with pytest.raises(ValueError):
            rho_dual_boost_perturbative(0.3, col(0.3), col(0.25))


class TestRhoDualBoostGeneral:
    @given(theta=ANGLES, f1=st.floats(0.0, 0.2), f2=st.floats(0.0, 0.2))
    def test_collapses_to_perturbative_without_odd_moments(self, theta, f1, f2):
        # exact products like (1 - f1) f2 reduce to the first-order sums of
        # the closed form up to the quadratic cross term f1 f2
        general = rho_dual_boost_general(
            theta,
            col((1 - f1, f1)),
            col((1 - f2, f2)),
        )
        pert = rho_dual_boost_perturbative(
            theta, col(f1), col(f2)
        )
        assert np.max(np.abs(one(general) - one(pert))) <= f1 * f2 + 1e-14

    def test_one_boost_limit_reduces_to_single(self):
        m = col((0.93, 0.07))
        rest = col((1.0, 0.0))
        for theta in (0.0, 0.5, 1.2):
            dual = rho_dual_boost_general(theta, rest, m)
            single = rho_single_boost_general(theta, m)
            assert np.max(np.abs(one(dual) - one(single))) == 0.0

    def test_quadrature_pipeline(self):
        (m1, e1), (m2, e2) = (moments_quadrature(2, boost_from_beta(b), col(0.1)) for b in (0.95, 0.8))
        assert e1.tolist() == e2.tolist() == [None]
        rho = rho_dual_boost_general(0.6, m1, m2)
        assert one(rho).trace() == pytest.approx(1.0, abs=1e-12)


FACTORS = st.lists(st.tuples(st.floats(0.0, 0.24), st.floats(0.0, 0.24)), min_size=1, max_size=8)


class TestStackedConstructors:
    """Per-point arguments build one stack, each matrix bit for bit its one-point call's."""

    @given(theta=ANGLES, points=FACTORS)
    def test_perturbative_stack_matches_lone_calls(self, theta, points):
        f1s, f2s = np.array(points).T
        stack = rho_dual_boost_perturbative(theta, f1s, f2s)
        assert stack.blocks.shape == (len(points), 2, 3)
        assert stack.errors == (None,) * len(points)
        for k, (f1, f2) in enumerate(points):
            alone = rho_dual_boost_perturbative(theta, col(f1), col(f2))
            assert np.array_equal(stack.blocks[k], alone.blocks[0])
        single = rho_single_boost_perturbative(theta, f2s)
        for k, (_, f2) in enumerate(points):
            alone = rho_single_boost_perturbative(theta, col(f2))
            assert np.array_equal(single.blocks[k], alone.blocks[0])

    @given(theta=ANGLES, points=FACTORS)
    def test_general_stack_matches_lone_calls(self, theta, points):
        m1s = np.array([(1 - a, a) for a, _ in points])
        m2s = np.array([(1 - b, b) for _, b in points])
        stack = rho_dual_boost_general(theta, m1s, m2s)
        for k in range(len(points)):
            alone = rho_dual_boost_general(theta, m1s[k:k + 1], m2s[k:k + 1])
            assert np.array_equal(stack.blocks[k], alone.blocks[0])
        single = rho_single_boost_general(theta, m2s)
        for k in range(len(points)):
            alone = rho_single_boost_general(theta, m2s[k:k + 1])
            assert np.array_equal(single.blocks[k], alone.blocks[0])

    def test_odd_moments_in_a_stack(self):
        # the odd moments of a +/-p pair cancel, so the even ones are the state
        _, m = _half_angles_and_moments([(0.3, 1.0), (-1.1, 0.5)])
        stack = rho_single_boost_general(0.5, np.concatenate([m, m]))
        alone = rho_single_boost_general(0.5, m).blocks
        assert stack.blocks.tobytes() == np.concatenate([alone] * 2).tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            rho_dual_boost_perturbative(0.5, np.array([0.1, 0.1]), np.array([0.1]))
        with pytest.raises(ValueError, match="same length"):
            rho_dual_boost_general(0.5, np.array([[1.0, 0.0]] * 2), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("call", [
        lambda: rho_dual_boost_perturbative(0.5, 0.1, 0.1),
        lambda: rho_single_boost_perturbative(0.5, np.array([[0.1]])),
        lambda: rho_dual_boost_general(0.5, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        lambda: rho_dual_boost_general(0.5, np.array([[0.9, 0.0, 0.1]]), np.array([[1.0, 0.0]])),
        lambda: rho_single_boost_general(0.5, np.array([[0.9, 0.0, 0.1]])),
    ], ids=["scalar-F", "F-rows", "one-moment-row", "moment-triples", "single-moment-triples"])
    def test_arguments_must_be_per_point_rows(self, call):
        with pytest.raises(ValueError):
            call()

    def test_factor_gate_applies_to_every_point(self):
        with pytest.raises(ValueError, match="F1 \\+ F2 must be < 1/2"):
            rho_dual_boost_perturbative(0.5, np.array([0.1, 0.1]), np.array([0.1, 0.45]))



def einsum_entries(theta: float, m1s: np.ndarray, m2s: np.ndarray) -> np.ndarray:
    """The contraction over every moment that the general constructor's entries equal.

    ``m1s`` and ``m2s`` are (points x 3) arrays of (I1, I2, I3) rows.
    """
    table = dual_coefficient_table(theta)
    mom1, mom2 = (m[:, [0, 1, 1, 2]].reshape(-1, 2, 2) for m in (m1s, m2s))
    return np.einsum("aij,bkl,pik,pjl->pab", table, table, mom2, mom1)


# I3 of an X-state's moments, with signed zeros and subnormals; I1 = 1 - I3.
X_I3 = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestXStateAssembly:
    """The entries of (I1, I3) rows are built without the einsum, with the bits
    it gives on the (I1, +/-0.0, I3) rows."""

    @staticmethod
    def x_moments(i3s, i2_signs) -> np.ndarray:
        """(I1, I2, I3) rows with I2 a signed zero, for the einsum."""
        i3 = np.array(i3s)
        return np.stack([1.0 - i3, np.copysign(0.0, i2_signs), i3], axis=1)

    @staticmethod
    def build(theta, m1s, m2s) -> np.ndarray:
        """The general constructor's 4x4 matrices for the (I1, I3) columns of the rows."""
        return x_matrices(rho_dual_boost_general(theta, m1s[:, [0, 2]], m2s[:, [0, 2]]).blocks)

    @settings(max_examples=200)
    @given(
        theta=st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | ANGLES,
        rows=st.lists(st.tuples(X_I3, X_I3, st.sampled_from([1.0, -1.0])), min_size=1, max_size=8),
    )
    def test_entries_match_einsum(self, theta, rows):
        i3a, i3b, signs = zip(*rows)
        m1s, m2s = self.x_moments(i3a, signs), self.x_moments(i3b, signs[::-1])
        want = einsum_entries(theta, m1s, m2s)
        with mock.patch.object(np, "einsum", side_effect=AssertionError("einsum called")):
            got = self.build(theta, m1s, m2s)
        assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_entries_match_einsum_on_random_rows(self):
        rng = np.random.default_rng(20261018)
        for theta in (0.0, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 48)):
            i3 = rng.uniform(0.0, 1.0, (2, 1024)) ** rng.integers(1, 40, (2, 1024))
            i3[rng.random(i3.shape) < 0.05] = 0.0
            m1s, m2s = (self.x_moments(v, rng.choice([1.0, -1.0], len(v))) for v in i3)
            got = self.build(theta, m1s, m2s)
            assert got.tobytes() == einsum_entries(theta, m1s, m2s).tobytes()

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.07), (math.inf, 0.0, 0.0)], ids=["nan", "inf"])
    def test_nonfinite_rows_fail_validation(self, bad):
        m1s = np.array([[0.9, 0.0, 0.1], bad])
        m2s = np.array([[0.8, 0.0, 0.2]] * 2)
        with np.errstate(invalid="ignore"):
            stack = self.build(0.7, m1s, m2s)
            errors = rho_dual_boost_general(0.7, m1s[:, [0, 2]], m2s[:, [0, 2]]).errors
            alone = rho_dual_boost_general(0.7, m1s[1:, [0, 2]], m2s[1:, [0, 2]]).errors
        assert errors[0] is None and "trace" in str(errors[1])
        assert "trace" in str(alone[0])  # the matrix in a stack of its own
        assert stack[0].tobytes() == einsum_entries(0.7, m1s, m2s)[0].tobytes()
