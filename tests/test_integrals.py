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
    moments_quadrature,
    n_bounds,
)
from boostcoh.integrals import MAX_ORDER, MIN_ORDER, _moment_faults, _moments_at_order

from oracles import (
    hermite_value, hermite_weight, moments_at_order, mp_f_factor, trapezoid_moments,
)

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
        # A broad packet at beta 0.999: orders 16 and 32 still differ by 1.75e-8.
        pkt = WavePacket(1, 0.5, 1.0)
        with pytest.raises(QuadratureToleranceError) as info:
            moments_quadrature(pkt, boost_from_beta(0.999), 16, max_order=32)
        err = info.value
        assert isinstance(err.best, MomentIntegrals)
        # the order-32 estimate, within its delta of the trapezoid oracle's 0.0616716449206
        assert err.best.i3 == pytest.approx(0.0616716449192, rel=1e-11)
        assert err.delta == pytest.approx(1.7496e-8, rel=1e-4)
        assert err.delta > err.rtol

    def test_crude_unconverged_estimate_is_a_tolerance_error(self):
        # At orders 2 and 4, n = 8 leaves i1 + i3 far from 1: not a triple.
        pkt = WavePacket(8, 10.0, 939.36)
        boost = boost_from_beta(0.5)
        with pytest.raises(QuadratureToleranceError) as info:
            moments_quadrature(pkt, boost, 2, max_order=4)
        assert info.value.best is None
        with pytest.raises(ValueError, match="i1 \\+ i3"):
            moments_quadrature(pkt, boost, 2, adaptive=False)

    @pytest.mark.parametrize(
        "order, max_order", [(16, 0), (16, 8), (16, 512), (32, 16), (16, 16), (256, 256)]
    )
    def test_max_order_out_of_range_rejected(self, order, max_order):
        # An adaptive run needs max_order >= 2 order: its first delta compares the two.
        pkt = WavePacket(2, 0.1, 1.0)
        with pytest.raises(ValueError, match="max_order"):
            moments_quadrature(pkt, boost_from_beta(0.95), order, max_order=max_order)
        with pytest.raises(ValueError, match="max_order"):
            moments_quadrature(
                (2, np.array([0.1, 0.1])), boost_from_beta(0.95), order, max_order=max_order
            )

    @pytest.mark.parametrize(
        "n, eps, match",
        [
            (-1, [0.1], "n must be nonnegative"),
            (2.0, [0.1], "n must be an integer"),
            (2, [0.1, 0.0], "sigma/m"),
            (2, [math.nan], "sigma/m"),
            (2, [math.inf], "sigma/m"),
            (2, [[0.1]], "sigma/m"),
        ],
    )
    def test_block_rejects_bad_n_or_sigma_over_m(self, n, eps, match):
        with pytest.raises(ValueError, match=match):
            moments_quadrature((n, np.array(eps)), boost_from_beta(0.95))

    @pytest.mark.parametrize("sigma, mass", [(1e300, 1e-10), (1e-300, 1e300)])
    def test_packet_rejects_sigma_over_m_out_of_range(self, sigma, mass):
        # a valid packet whose sigma/m overflows to inf or underflows to 0
        # is rejected at once, as the block form rejects the same value
        pkt = WavePacket(0, sigma, mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma/m must be positive and finite"):
                moments_quadrature(pkt, boost_from_beta(0.95))
            with pytest.raises(ValueError, match="sigma/m must be positive and finite"):
                moments_quadrature((0, np.array([pkt.sigma_over_m])), boost_from_beta(0.95))

    # sigma/m from narrow to far past the closed forms, with extremes whose
    # squares underflow or whose nodes leave the double range
    HALF_NODE_EPS = np.concatenate([np.linspace(0.001, 0.99, 25), [1e-300, 5e-324, 3.0, 100.0, 1e150]])

    @pytest.mark.parametrize("order", [2, 3, 5, 16, 17, 33, 64, 97, 128, 255, 256])
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 149])
    def test_half_node_contraction_bit_for_bit(self, order, n):
        # The contraction over every node with all three integrands gives the
        # same I1 and I3 bits, and an I2 of +0.0 (not -0.0) at every point.
        for beta in (0.0, 0.3, 0.95, 0.999999):
            boost = boost_from_beta(beta)
            got = _moments_at_order(n, self.HALF_NODE_EPS, boost, order)
            assert got.tobytes() == moments_at_order(n, self.HALF_NODE_EPS, boost, order).tobytes()
            assert got[1].tobytes() == np.zeros(len(self.HALF_NODE_EPS)).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(0, 300),
        order=st.integers(MIN_ORDER, MAX_ORDER),
        beta=st.floats(0.0, 0.999999),
        eps=st.lists(st.floats(1e-6, 100.0), min_size=1, max_size=8),
    )
    def test_half_node_contraction_matches_on_draws(self, n, order, beta, eps):
        boost, eps = boost_from_beta(beta), np.array(eps)
        got = _moments_at_order(n, eps, boost, order)
        assert got.tobytes() == moments_at_order(n, eps, boost, order).tobytes()

    @staticmethod
    def check_block_against_one_packet_calls(n, eps, beta, order, max_order, adaptive):
        """Each point's moments and error are bit for bit the one-packet call's.

        Returns the kind of each point: "ok", "ValueError", or
        "tolerance" / "crude" for a tolerance error with / without a triple.
        """
        boost = boost_from_beta(beta)
        values, errors = moments_quadrature(
            (n, np.array(eps, dtype=float)), boost, order, max_order=max_order, adaptive=adaptive
        )
        assert values.shape == (len(eps), 3) and errors.shape == (len(eps),)
        kinds = []
        for e, row, entry in zip(eps, values, errors):
            try:
                want = moments_quadrature(
                    WavePacket(n, e, 1.0), boost, order, max_order=max_order, adaptive=adaptive
                )
            except QuadratureToleranceError as exc:
                assert isinstance(entry, QuadratureToleranceError)
                assert (entry.delta, entry.best) == (exc.delta, exc.best)
                assert str(entry) == str(exc)
                if exc.best is not None:
                    assert row.tobytes() == np.array([exc.best.i1, exc.best.i2, exc.best.i3]).tobytes()
                kinds.append("crude" if exc.best is None else "tolerance")
            except ValueError as exc:  # too low an order to integrate kappa^2n exactly
                assert type(entry) is ValueError and str(entry) == str(exc)
                kinds.append("ValueError")
            else:
                assert entry is None
                assert row.tobytes() == np.array([want.i1, want.i2, want.i3]).tobytes()
                kinds.append("ok")
        return kinds

    @pytest.mark.parametrize(
        "n, eps, beta, order, max_order, adaptive, kinds",
        [
            # orders 2 and 4 cannot integrate kappa^16: no estimate is a triple
            (8, [0.001, 0.3, 0.9], 0.5, 2, 4, True, {"crude"}),
            (8, [0.001, 0.3, 0.9], 0.5, 2, 4, False, {"ValueError"}),
            # broad packets at beta 0.999 miss RTOL by order 64
            (2, [0.01, 0.1, 0.5, 0.9, 0.95], 0.999, 16, 64, True, {"ok", "tolerance"}),
        ],
    )
    def test_block_covers_failing_points(self, n, eps, beta, order, max_order, adaptive, kinds):
        got = self.check_block_against_one_packet_calls(n, eps, beta, order, max_order, adaptive)
        assert set(got) == kinds

    @settings(deadline=None)
    @given(
        n=st.integers(0, 8),
        eps=st.lists(st.floats(0.0, 0.99, exclude_min=True), max_size=12),
        beta=st.floats(0.0, 0.999),
        order=st.integers(MIN_ORDER, 64),
        adaptive=st.booleans(),
        data=st.data(),
    )
    def test_block_matches_one_packet_calls(self, n, eps, beta, order, adaptive, data):
        # Each point's bits must not depend on the points evaluated with it,
        # nor on when they leave the order doubling.
        max_order = data.draw(st.integers(2 * order, MAX_ORDER))
        self.check_block_against_one_packet_calls(n, eps, beta, order, max_order, adaptive)

    @staticmethod
    def reference_faults(i1, i2, i3):
        """The triple checks as scalar comparisons, the reference for finite values."""
        return [
            abs(i1 + i3 - 1.0) > 1e-10,
            not (-1e-12 <= i1 <= 1.0 + 1e-12 and -1e-12 <= i3 <= 1.0 + 1e-12),
            abs(i2) > 0.5 + 1e-12,
        ]

    def test_block_rule_agrees_with_triple_at_boundaries(self):
        # For each check, triples on either side of its bound: the block rule
        # flags what the scalar comparisons flag, MomentIntegrals rejects
        # exactly the flagged triples, and its message names the first flag.
        def around(x):  # one ulp below, x itself, one ulp above
            return np.nextafter(x, [-math.inf, x, math.inf]).tolist()

        def straddle(ulp):  # the two multiples of ulp next to 1e-10
            k = math.floor(1e-10 / ulp)
            return [k * ulp, (k + 1) * ulp]

        groups = {
            # i1 + i3 - 1 is exact: the ulp of 1 is 2^-52 above it, 2^-53 below
            "i1 + i3": [(0.5, 0.0, 0.5 + d) for d in straddle(2.0**-52)]
                       + [(0.5, 0.0, 0.5 - d) for d in straddle(2.0**-53)],
            "i1 and i3": [(x, 0.0, 1.0 - x) for x in around(-1e-12) + around(1.0 + 1e-12)]
                         + [(1.0 - x, 0.0, x) for x in around(-1e-12) + around(1.0 + 1e-12)],
            "|i2|": [(0.5, s * x, 0.5) for s in (1.0, -1.0) for x in around(0.5 + 1e-12)],
        }
        for check, triples in groups.items():
            flagged = []
            for triple in triples:
                flags = _moment_faults(np.array([triple]))[:, 0].tolist()
                assert flags == self.reference_faults(*triple), triple
                first = next((name for name, flag in zip(groups, flags) if flag), None)
                try:
                    MomentIntegrals(*triple)
                except ValueError as exc:
                    assert first is not None and str(exc).startswith(first), triple
                else:
                    assert first is None, triple
                flagged.append(first)
            assert check in flagged and None in flagged, check
        # NaN fails the rule wherever it appears
        for triple in [(math.nan, 0.0, 0.5), (0.5, math.nan, 0.5), (0.5, 0.0, math.nan)]:
            assert _moment_faults(np.array([triple])).any()
            with pytest.raises(ValueError):
                MomentIntegrals(*triple)

    def test_moment_triple_validation(self):
        with pytest.raises(ValueError):
            MomentIntegrals(i1=0.9, i2=0.0, i3=0.2)
        with pytest.raises(ValueError):
            MomentIntegrals(i1=0.4, i2=0.7, i3=0.6)


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

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("beta", [0.3, 0.8, 0.95])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_agrees_with_quadrature_to_truncation_order(self, n, beta, eps):
        # the closed form I3 = F drops terms of order (sigma/m)^4
        exact = moments_quadrature(WavePacket(n, eps, 1.0), boost_from_beta(beta))
        assert abs(exact.i3 - f_factor(n, boost_from_beta(beta), eps).f) <= 5.0 * eps**4


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
