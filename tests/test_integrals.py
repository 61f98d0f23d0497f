"""Tests for the moment integrals: quadrature engine and closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcoh import (
    BoostParams,
    MomentIntegrals,
    PerturbativeFactor,
    QuadratureToleranceError,
    WavePacket,
    boost_from_beta,
    f_factor,
    gauss_hermite_nodes,
    i2_bracket_magnitude,
    moments_perturbative,
    moments_quadrature,
    n_bounds,
)
from boostcoh.integrals import MAX_ORDER, MIN_ORDER

from oracles import hermite_value, hermite_weight, mp_f_factor, trapezoid_moments

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermiteNodes:
    def test_order_two_closed_form(self):
        # H_2(k) = 4k^2 - 2: nodes +/- 1/sqrt(2), weights sqrt(pi)/2
        nodes, weights = gauss_hermite_nodes(2)
        assert np.allclose(sorted(nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
        assert np.allclose(weights, SQRT_PI / 2, atol=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 16, 64, 97, 128, 256])
    def test_weight_sum(self, order):
        _, weights = gauss_hermite_nodes(order)
        assert weights.sum() == pytest.approx(SQRT_PI, abs=1e-12)

    def test_second_moment(self):
        nodes, weights = gauss_hermite_nodes(64)
        assert float(weights @ nodes**2) == pytest.approx(SQRT_PI / 2, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 16, 33])
    def test_nodes_symmetric(self, order):
        nodes, weights = gauss_hermite_nodes(order)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])

    @pytest.mark.parametrize("order", [3, 5, 8])
    def test_against_hermite_recurrence(self, order):
        # nodes are roots of H_order; weights follow the classical formula
        nodes, weights = gauss_hermite_nodes(order)
        for x, w in zip(nodes, weights):
            assert abs(float(hermite_value(order, x))) < 1e-8 * max(
                1.0, abs(float(hermite_value(order, x + 0.1)))
            )
            assert w == pytest.approx(float(hermite_weight(order, x)), rel=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 257, 2.5])
    def test_order_domain(self, order):
        with pytest.raises(ValueError):
            gauss_hermite_nodes(order)

    def test_arrays_read_only(self):
        nodes, weights = gauss_hermite_nodes(16)
        with pytest.raises(ValueError):
            nodes[0] = 0.0


class TestMomentsQuadrature:
    def test_identity_boost(self):
        # b = 1 makes cos^2 = 1 and sin^2 = 0 at every node
        m = moments_quadrature(WavePacket(3, 0.2, 1.0), boost_from_beta(0.0))
        assert m.i1 == pytest.approx(1.0, abs=1e-14)
        assert m.i2 == 0.0
        assert m.i3 == 0.0
        assert m.method == "quadrature"

    # frozen against 50-digit mpmath quadrature of the same integrals
    @pytest.mark.parametrize(
        "n, i3_expected",
        [(0, 6.4903410919822e-4), (2, 3.20555897469125e-3)],
    )
    def test_frozen_values(self, n, i3_expected):
        pkt = WavePacket(n, 0.1, 1.0)
        m = moments_quadrature(pkt, boost_from_beta(0.95))
        assert m.i3 == pytest.approx(i3_expected, rel=1e-12)
        assert m.i1 == pytest.approx(1.0 - i3_expected, rel=1e-12)
        assert m.i2 == 0.0

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("beta", [0.3, 0.95])
    def test_against_trapezoid_oracle(self, n, beta):
        pkt = WavePacket(n, 0.08, 1.0)
        m = moments_quadrature(pkt, boost_from_beta(beta))
        t1, t2, t3 = trapezoid_moments(n, beta, 0.08)
        assert m.i1 == pytest.approx(t1, abs=1e-11)
        assert m.i2 == pytest.approx(t2, abs=1e-13)
        assert m.i3 == pytest.approx(t3, abs=1e-11)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_odd_moment_vanishes(self, n):
        for beta in (0.3, 0.8, 0.95):
            m = moments_quadrature(WavePacket(n, 0.05, 1.0), boost_from_beta(beta))
            assert m.i2 == 0.0

    @pytest.mark.parametrize("n", [0, 2, 5, 8])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_partition_of_unity(self, n, eps):
        m = moments_quadrature(WavePacket(n, eps, 1.0), boost_from_beta(0.8))
        assert m.i1 + m.i3 == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance_beyond_convergence(self):
        pkt = WavePacket(2, 0.1, 1.0)
        boost = boost_from_beta(0.95)
        a = moments_quadrature(pkt, boost, 96, adaptive=False)
        b = moments_quadrature(pkt, boost, 128, adaptive=False)
        assert a.i1 == pytest.approx(b.i1, rel=1e-12)
        assert a.i3 == pytest.approx(b.i3, rel=1e-12)

    def test_tolerance_error_carries_best_estimate(self):
        pkt = WavePacket(2, 0.1, 1.0)
        with pytest.raises(QuadratureToleranceError) as info:
            moments_quadrature(pkt, boost_from_beta(0.95), 16, max_order=16)
        err = info.value
        assert isinstance(err.best, MomentIntegrals)
        assert err.best.i3 == pytest.approx(3.2056e-3, rel=1e-3)
        assert err.delta > err.rtol or math.isinf(err.delta)

    def test_crude_unconverged_estimate_is_a_tolerance_error(self):
        # At orders 2 and 4, n = 8 leaves i1 + i3 far from 1: not a triple.
        pkt = WavePacket(8, 10.0, 939.36)
        boost = boost_from_beta(0.5)
        with pytest.raises(QuadratureToleranceError) as info:
            moments_quadrature(pkt, boost, 2, max_order=4)
        assert info.value.best is None
        with pytest.raises(ValueError, match="i1 \\+ i3"):
            moments_quadrature(pkt, boost, 2, adaptive=False)

    @pytest.mark.parametrize("order, max_order", [(16, 0), (16, 8), (16, 512), (32, 16)])
    def test_max_order_out_of_range_rejected(self, order, max_order):
        pkt = WavePacket(2, 0.1, 1.0)
        with pytest.raises(ValueError, match="max_order"):
            moments_quadrature(pkt, boost_from_beta(0.95), order, max_order=max_order)
        with pytest.raises(ValueError, match="max_order"):
            moments_quadrature([pkt, pkt], boost_from_beta(0.95), order, max_order=max_order)

    def test_sequence_needs_shared_n(self):
        pkts = [WavePacket(2, 0.1, 1.0), WavePacket(3, 0.1, 1.0)]
        with pytest.raises(ValueError, match="share n"):
            moments_quadrature(pkts, boost_from_beta(0.95))

    @settings(deadline=None)
    @given(
        n=st.integers(0, 8),
        eps=st.lists(st.floats(0.0, 0.99, exclude_min=True), max_size=12),
        beta=st.floats(0.0, 0.999),
        order=st.integers(MIN_ORDER, 64),
        adaptive=st.booleans(),
        data=st.data(),
    )
    def test_sequence_matches_one_packet_calls(self, n, eps, beta, order, adaptive, data):
        # Each point's bits must not depend on the points evaluated with it,
        # nor on when they leave the order doubling.
        max_order = data.draw(st.integers(order, MAX_ORDER))
        boost = boost_from_beta(beta)
        pkts = [WavePacket(n, e, 1.0) for e in eps]
        entries = moments_quadrature(pkts, boost, order, max_order=max_order, adaptive=adaptive)
        assert len(entries) == len(pkts)
        for pkt, entry in zip(pkts, entries):
            try:
                want = moments_quadrature(
                    pkt, boost, order, max_order=max_order, adaptive=adaptive
                )
            except QuadratureToleranceError as exc:
                assert isinstance(entry, QuadratureToleranceError)
                assert (entry.delta, entry.best) == (exc.delta, exc.best)
            except ValueError as exc:  # too low an order to integrate kappa^2n exactly
                assert isinstance(entry, ValueError) and str(entry) == str(exc)
            else:
                assert entry == want

    def test_moment_triple_validation(self):
        with pytest.raises(ValueError):
            MomentIntegrals(i1=0.9, i2=0.0, i3=0.2, method="quadrature")
        with pytest.raises(ValueError):
            MomentIntegrals(i1=0.4, i2=0.7, i3=0.6, method="quadrature")
        with pytest.raises(ValueError):
            MomentIntegrals(i1=0.5, i2=0.0, i3=0.5, method="magic")


class TestFFactor:
    def test_identity_boost(self):
        assert f_factor(3, boost_from_beta(0.0), 0.1).f == 0.0

    # 50-digit mpmath evaluations of the closed form
    @pytest.mark.parametrize(
        "n, expected",
        [(0, 6.55124930969751e-4), (2, 3.27562465484875e-3)],
    )
    def test_frozen_values(self, n, expected):
        assert f_factor(n, boost_from_beta(0.95), 0.1).f == pytest.approx(expected, rel=1e-13)

    def test_neutron_point(self):
        value = f_factor(2, boost_from_beta(0.95), 100.0 / 939.36).f
        assert value == pytest.approx(3.71218836507159e-3, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    @pytest.mark.parametrize("beta", [0.1, 0.6, 0.99])
    @pytest.mark.parametrize("eps", [0.02, 0.3, 0.9])
    def test_matches_mpmath_oracle(self, n, beta, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # widest grid corner has F > 1
            value = f_factor(n, boost_from_beta(beta), eps).f
        assert value == pytest.approx(float(mp_f_factor(n, beta, eps)), rel=1e-14)

    def test_monotonicity(self):
        base = f_factor(2, boost_from_beta(0.8), 0.1).f
        assert f_factor(2, boost_from_beta(0.9), 0.1).f > base
        assert f_factor(3, boost_from_beta(0.8), 0.1).f > base
        assert f_factor(2, boost_from_beta(0.8), 0.2).f > base

    def test_validity_warning(self):
        # F > 1 means the first-order I1 = 1 - F leaves [0, 1]
        with pytest.warns(UserWarning, match="1 - F"):
            f_factor(150, boost_from_beta(0.99), 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_factor(2, boost_from_beta(0.9), 1.5)
        with pytest.raises(ValueError):
            f_factor(-1, boost_from_beta(0.9), 0.1)

    def test_factor_type_rejects_negative(self):
        with pytest.raises(ValueError):
            PerturbativeFactor(-0.01)


class TestMomentsPerturbative:
    def test_identity_boost(self):
        m = moments_perturbative(2, boost_from_beta(0.0), 0.1)
        assert (m.i1, m.i2, m.i3) == (1.0, 0.0, 0.0)
        assert m.method == "perturbative"

    def test_frozen_value(self):
        m = moments_perturbative(2, boost_from_beta(0.95), 0.1)
        assert m.i3 == pytest.approx(3.27562465484875e-3, rel=1e-13)
        assert m.i1 + m.i3 == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("beta", [0.3, 0.8, 0.95])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_agrees_with_quadrature_to_truncation_order(self, n, beta, eps):
        pkt = WavePacket(n, eps, 1.0)
        exact = moments_quadrature(pkt, boost_from_beta(beta))
        approx = moments_perturbative(n, boost_from_beta(beta), eps)
        assert abs(exact.i3 - approx.i3) <= 5.0 * eps**4


class TestI2ParityTerm:
    def test_bracket_frozen_value(self):
        # Gamma(1)/Gamma(1/2) * sinh / (2 (cosh + 1)) * 0.1 at beta = 0.95
        value = i2_bracket_magnitude(0, boost_from_beta(0.95), 0.1)
        assert value == pytest.approx(0.0204221811867952, rel=1e-13)

    def test_bracket_zero_at_rest(self):
        for n in (0, 3):
            assert i2_bracket_magnitude(n, boost_from_beta(0.0), 0.1) == 0.0

    def test_bracket_gamma_ratio_stable_for_large_n(self):
        # ratio Gamma(n+1)/Gamma(n+1/2) grows like sqrt(n); no overflow
        value = i2_bracket_magnitude(500, boost_from_beta(0.9), 0.1)
        assert 0.0 < value < 10.0

    def test_bracket_matches_math_gamma(self):
        boost = boost_from_beta(0.7)
        for n in (1, 4, 9):
            expected = (
                math.gamma(n + 1) / math.gamma(n + 0.5)
                * boost.sinh_alpha / (2 * (boost.cosh_alpha + 1)) * 0.2
            )
            assert i2_bracket_magnitude(n, boost, 0.2) == pytest.approx(expected, rel=1e-13)


class TestNBounds:
    def test_single(self):
        lower, upper = n_bounds(0.1, "single_boost")
        assert lower == -0.5
        assert upper == pytest.approx(299.5, abs=1e-9)

    def test_dual(self):
        lower, upper = n_bounds(0.1, "dual_boost")
        assert lower == -0.5
        assert upper == pytest.approx(149.5, abs=1e-9)

    def test_wide_packet_limit(self):
        _, upper = n_bounds(1.0 - 1e-12, "single_boost")
        assert upper == pytest.approx(2.5, abs=1e-9)

    def test_domain(self):
        for eps in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(ValueError):
                n_bounds(eps, "single_boost")
        with pytest.raises(ValueError):
            n_bounds(0.1, "both")
