"""Tests for the moment integrals: quadrature engine and closed forms."""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcoh import (
    QuadratureToleranceError,
    boost_from_beta,
    f_factor,
    gauss_hermite_nodes,
    moments_quadrature,
    n_bounds,
    rho_single_boost_perturbative,
)
from boostcoh import integrals
from boostcoh.integrals import (
    MAX_ORDER, MIN_ORDER, N_LOWER, _moment_faults, _moments_at_order, check_factor_sum,
    check_n_in_bounds,
)

from oracles import (
    hermite_value, hermite_weight, moments_at_order, mp_boost, mp_f_factor, mp_i3,
    mp_i3_ultrarelativistic, mp_i3_ultrarelativistic_quad, narrow_series, series_i3,
    trapezoid_moments,
)

SQRT_PI = math.sqrt(math.pi)


def moments(n, beta, eps):
    """The (I1, I3) row of one sigma/m, and its error."""
    values, errors = moments_quadrature(n, boost_from_beta(beta), np.array([eps]))
    assert values.shape == (1, 2) and errors.shape == (1,)
    return values[0], errors[0]


def converged(n, beta, eps):
    """(I1, I3) of one sigma/m, which must have converged."""
    (i1, i3), error = moments(n, beta, eps)
    assert error is None
    return i1, i3


def factor(n, beta, eps):
    return f_factor(n, boost_from_beta(beta), np.array([eps]))[0]


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
        i1, i3 = converged(3, 0.0, 0.2)
        assert i1 == pytest.approx(1.0, abs=1e-14)
        assert i3 == 0.0

    # frozen against 50-digit mpmath quadrature of the same integrals
    @pytest.mark.parametrize(
        "n, i3_expected",
        [(0, 6.4903410919822e-4), (2, 3.20555897469125e-3)],
    )
    def test_frozen_values(self, n, i3_expected):
        i1, i3 = converged(n, 0.95, 0.1)
        assert i3 == pytest.approx(i3_expected, rel=1e-12)
        assert i1 == pytest.approx(1.0 - i3_expected, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("beta", [0.3, 0.95])
    def test_against_trapezoid_oracle(self, n, beta):
        i1, i3 = converged(n, beta, 0.08)
        t1, t2, t3 = trapezoid_moments(n, beta, 0.08)
        assert i1 == pytest.approx(t1, abs=1e-11)
        assert t2 == pytest.approx(0.0, abs=1e-13)  # the odd moment is not evaluated
        assert i3 == pytest.approx(t3, abs=1e-11)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_odd_moment_vanishes(self, n):
        # every node's sin*cos term cancels its mirror's exactly
        for beta in (0.3, 0.8, 0.95):
            _, i2, _ = moments_at_order(n, np.array([0.05]), boost_from_beta(beta), 16)
            assert i2.tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("n", [0, 2, 5, 8])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_partition_of_unity(self, n, eps):
        i1, i3 = converged(n, 0.8, eps)
        assert i1 + i3 == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance_beyond_convergence(self):
        eps, boost = np.array([0.1]), boost_from_beta(0.95)
        a, b = (_moments_at_order(2, eps, boost, order) for order in (96, 128))
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    # Past n ~ 110 the orders below 128 miss the weight's peak at kappa ~
    # sqrt(n), and their estimates are near zero: two of them agree to
    # RTOL, yet are no moment pair (i1 + i3 = 6.5e-28 at n = 149).
    @pytest.mark.parametrize("n", [112, 130, 163])
    def test_large_n_matches_mpmath(self, n):
        # inside the two-boost n bounds at sigma/m = 0.09 (n <= 184)
        assert check_n_in_bounds(n, np.array([0.09]), 2)[0]
        _, i3 = converged(n, 0.95, 0.09)
        assert i3 == pytest.approx(float(mp_i3(n, 0.95, 0.09)), rel=1e-12)

    def test_near_zero_estimates_are_not_converged(self):
        # orders 16 and 32 agree to RTOL at n = 149, and fail the moment checks
        eps, boost = np.array([0.1]), boost_from_beta(0.95)
        low = [_moments_at_order(149, eps, boost, order) for order in (16, 32)]
        assert np.all(np.abs(low[1] - low[0]) < integrals.RTOL)
        assert _moment_faults(low[1].T).any()
        i1, i3 = converged(149, 0.95, 0.1)
        assert i1 + i3 == pytest.approx(1.0, abs=1e-13)

    def test_tolerance_error_names_delta_and_sum(self):
        # At n = 200 only order 256 reaches the weight: orders 128 and 256
        # differ by 2.9e-4, and the row holds the order-256 estimate.
        eps, boost = np.array([0.9 / 939.36]), boost_from_beta(0.3)
        row, err = moments(200, 0.3, eps[0])
        assert isinstance(err, QuadratureToleranceError)
        assert row.tobytes() == _moments_at_order(200, eps, boost, MAX_ORDER).T[0].tobytes()
        last = _moments_at_order(200, eps, boost, MAX_ORDER // 2).T[0]
        assert err.delta == np.max(np.abs(row - last) / np.maximum(1.0, np.abs(row)))
        assert err.delta == pytest.approx(2.928e-4, rel=1e-3)
        i1, i3 = row.tolist()
        assert str(err) == (
            f"quadrature did not converge by order {MAX_ORDER}: delta {err.delta:.3e}, "
            f"i1 + i3 = {i1 + i3!r}"
        )

    def test_crude_unconverged_estimate_is_a_tolerance_error(self):
        # Orders up to 128 cannot integrate kappa^400, and order 256 has no
        # successor to agree with: a tolerance error, never a ValueError.
        _, err = moments(200, 0.3, 0.9 / 939.36)
        assert type(err) is QuadratureToleranceError

    @pytest.mark.parametrize(
        "n, eps, match",
        [
            (-1, [0.1], "n must be nonnegative"),
            (2.0, [0.1], "n must be an integer"),
            (2, [0.1, 0.0], "sigma/m"),
            (2, [math.nan], "sigma/m"),
            (2, [math.inf], "sigma/m"),
            (2, [[0.1]], "sigma/m"),
            (2, 0.1, "sigma/m"),
        ],
    )
    def test_block_rejects_bad_n_or_sigma_over_m(self, n, eps, match):
        with pytest.raises(ValueError, match=match):
            moments_quadrature(n, boost_from_beta(0.95), np.array(eps))

    @pytest.mark.parametrize("sigma, mass", [(1e300, 1e-10), (1e-300, 1e300)])
    def test_packet_rejects_sigma_over_m_out_of_range(self, sigma, mass):
        # a valid sigma and mass whose sigma/m overflows to inf or
        # underflows to 0 are rejected at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma/m must be a 1-D array of positive finite"):
                moments_quadrature(0, boost_from_beta(0.95), np.array([sigma / mass]))

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
            i1, i2, i3 = moments_at_order(n, self.HALF_NODE_EPS, boost, order)
            assert got.tobytes() == np.stack([i1, i3]).tobytes()
            assert i2.tobytes() == np.zeros(len(self.HALF_NODE_EPS)).tobytes()

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
        i1, i2, i3 = moments_at_order(n, eps, boost, order)
        assert got.tobytes() == np.stack([i1, i3]).tobytes()
        assert i2.tobytes() == np.zeros(len(eps)).tobytes()

    @staticmethod
    def check_block_against_one_point_calls(n, eps, beta):
        """Each point's moments and error are bit for bit those of its one-element call.

        Returns the kind of each point: "ok" or "tolerance".
        """
        boost = boost_from_beta(beta)
        values, errors = moments_quadrature(n, boost, np.array(eps, dtype=float))
        assert values.shape == (len(eps), 2) and errors.shape == (len(eps),)
        kinds = []
        for e, row, entry in zip(eps, values, errors):
            (want,), (alone,) = moments_quadrature(n, boost, np.array([e]))
            assert row.tobytes() == want.tobytes()
            assert type(entry) is type(alone) and str(entry) == str(alone)
            if alone is None:
                kinds.append("ok")
            else:
                assert type(alone) is QuadratureToleranceError and entry.delta == alone.delta
                kinds.append("tolerance")
        return kinds

    @pytest.mark.parametrize(
        "n, eps, beta, kinds",
        [
            # order 256 cannot agree with a lower order on kappa^400
            pytest.param(200, [0.001, 0.05, 0.09], 0.3, {"tolerance"}, id="large-n"),
            # broad packets at beta 0.999 miss RTOL by order 256
            pytest.param(1, [0.5, 1.0, 1.5, 2.0, 3.0], 0.999, {"ok", "tolerance"},
                         id="broad-packets"),
        ],
    )
    def test_block_covers_failing_points(self, n, eps, beta, kinds):
        got = self.check_block_against_one_point_calls(n, eps, beta)
        assert set(got) == kinds

    @settings(deadline=None)
    @given(
        n=st.integers(0, 8) | st.integers(100, 220),
        eps=st.lists(st.floats(0.0, 0.99, exclude_min=True), max_size=12),
        beta=st.floats(0.0, 0.999),
    )
    def test_block_matches_one_packet_calls(self, n, eps, beta):
        # Each point's bits must not depend on the points evaluated with it,
        # nor on when they leave the order doubling.
        self.check_block_against_one_point_calls(n, eps, beta)

    @staticmethod
    def reference_faults(i1, i3):
        """The moment checks as scalar comparisons, the reference for finite values."""
        return [
            abs(i1 + i3 - 1.0) > 1e-10,
            not (-1e-12 <= i1 <= 1.0 + 1e-12 and -1e-12 <= i3 <= 1.0 + 1e-12),
        ]

    def test_block_rule_agrees_with_triple_at_boundaries(self):
        # For each check, pairs on either side of its bound: the rule flags
        # a pair where a scalar comparison does, and each check flags some
        # pair and passes another.
        def around(x):  # one ulp below, x itself, one ulp above
            return np.nextafter(x, [-math.inf, x, math.inf]).tolist()

        def straddle(ulp):  # the two multiples of ulp next to 1e-10
            k = math.floor(1e-10 / ulp)
            return [k * ulp, (k + 1) * ulp]

        groups = {
            # i1 + i3 - 1 is exact: the ulp of 1 is 2^-52 above it, 2^-53 below
            "i1 + i3": [(0.5, 0.5 + d) for d in straddle(2.0**-52)]
                       + [(0.5, 0.5 - d) for d in straddle(2.0**-53)],
            "i1 and i3": [(x, 1.0 - x) for x in around(-1e-12) + around(1.0 + 1e-12)]
                         + [(1.0 - x, x) for x in around(-1e-12) + around(1.0 + 1e-12)],
        }
        for check, pairs in groups.items():
            flagged = []
            for pair in pairs:
                flags = self.reference_faults(*pair)
                assert _moment_faults(np.array([pair])).tolist() == [any(flags)], pair
                flagged.append(next((name for name, flag in zip(groups, flags) if flag), None))
            assert check in flagged and None in flagged, check
        # NaN fails the rule wherever it appears
        for pair in [(math.nan, 0.5), (0.5, math.nan)]:
            assert _moment_faults(np.array([pair])).any()

    def test_moment_triple_validation(self):
        rows = np.array([[0.9, 0.2], [1.2, -0.2], [0.4, 0.6]])
        # off the sum, off the range, a moment pair
        assert _moment_faults(rows).tolist() == [True, True, False]


class TestUltrarelativisticLimit:
    """I3 as beta -> 1, exactly, against its integral and the quadrature route."""

    @pytest.mark.parametrize("n", [0, 2, 8])
    @pytest.mark.parametrize("eps", [0.05, 1.0, 30.0])
    def test_closed_form_matches_its_integral(self, n, eps):
        limit = mp_i3_ultrarelativistic(n, eps)
        assert 0 < limit < 0.5
        assert abs(limit - mp_i3_ultrarelativistic_quad(n, eps)) < 1e-40

    def test_quadrature_approaches_the_limit_as_one_over_b(self):
        # b (I3 - I3_inf) settles to a constant as b = cosh alpha grows 10x
        # per step, so its change shrinks about 10x per step.
        limit = float(mp_i3_ultrarelativistic(2, 0.05))
        scaled = []
        for beta in (0.9999, 0.999999, 0.99999999):
            _, i3 = converged(2, beta, 0.05)
            scaled.append(boost_from_beta(beta).cosh_alpha * (i3 - limit))
        assert scaled == pytest.approx([-0.0030549, -0.0030936, -0.0030975], abs=2e-7)
        steps = np.diff(scaled)
        assert 5.0 < steps[0] / steps[1] < 20.0


class TestNarrowPacketSeries:
    """The all-orders narrow-packet series of I3 against its known terms and mpmath's I3."""

    @pytest.mark.parametrize("beta", [0.3, 0.95, 0.999999])
    def test_first_term_is_f(self, beta):
        b = mp_boost(beta)[2]
        g1 = next(narrow_series(beta))
        assert abs(g1 / ((b - 1) / (4 * (1 + b))) - 1) < 1e-45
        # so the k = 1 term, g_1 (n + 1/2) eps^2, is F
        for n, eps in [(0, 0.1), (2, 1e-3), (40, 0.03)]:
            term = g1 * (n + mp.mpf(1) / 2) * mp.mpf(eps) ** 2
            assert abs(term / mp_f_factor(n, beta, eps) - 1) < 1e-45

    @pytest.mark.parametrize("beta", [0.3, 0.95])
    def test_second_coefficient(self, beta):
        b = mp_boost(beta)[2]
        g1, g2 = itertools.islice(narrow_series(beta), 2)
        assert abs((g2 / g1) / (-(1 + 3 * b) / (4 * (1 + b))) - 1) < 1e-45

    # Each n, beta and sigma/m of the grid {0, 2, 8, 40} x {0.3, 0.95,
    # 0.999999} x {1e-7, 1e-3, 0.03} appears; mp_i3 costs ~0.5 s a point at
    # n = 40 on a 2-core machine, so that n has one, where (n + 1/2) eps^2 is largest.
    @pytest.mark.parametrize("n, beta, eps", [
        (0, 0.3, 1e-7), (0, 0.999999, 0.03), (2, 0.95, 1e-3), (2, 0.3, 0.03),
        (2, 0.999999, 1e-7), (8, 0.999999, 1e-3), (8, 0.95, 0.03), (8, 0.3, 1e-3),
        (40, 0.999999, 0.03),
    ])
    def test_matches_mpmath_i3(self, n, beta, eps):
        total, smallest = series_i3(n, beta, eps)
        # the sum's error, below its smallest term, is under 1e-20 of it
        assert smallest < 1e-20 * total
        assert abs(total / mp_i3(n, beta, eps) - 1) < 1e-20


class TestFFactor:
    def test_identity_boost(self):
        assert factor(3, 0.0, 0.1) == 0.0

    # 50-digit mpmath evaluations of the closed form
    @pytest.mark.parametrize(
        "n, expected",
        [(0, 6.55124930969751e-4), (2, 3.27562465484875e-3)],
    )
    def test_frozen_values(self, n, expected):
        assert factor(n, 0.95, 0.1) == pytest.approx(expected, rel=1e-13)

    def test_neutron_point(self):
        value = factor(2, 0.95, 100.0 / 939.36)
        assert value == pytest.approx(3.71218836507159e-3, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    @pytest.mark.parametrize("beta", [0.1, 0.6, 0.99])
    @pytest.mark.parametrize("eps", [0.02, 0.3, 0.9])
    def test_matches_mpmath_oracle(self, n, beta, eps):
        value = factor(n, beta, eps)
        assert value == pytest.approx(float(mp_f_factor(n, beta, eps)), rel=1e-14)

    def test_monotonicity(self):
        base = factor(2, 0.8, 0.1)
        assert factor(2, 0.9, 0.1) > base
        assert factor(3, 0.8, 0.1) > base
        assert factor(2, 0.8, 0.2) > base

    def test_no_warning_outside_the_n_bounds(self):
        # F > 1 leaves the first-order I1 = 1 - F outside [0, 1]; the column
        # still holds it, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert factor(150, 0.99, 0.5) > 1.0

    # F = ((2n + 1)/8) r (sigma/m)^2 with r = (cosh a - 1)/(cosh a + 1) < 1,
    # and the n bounds give 2n + 1 <= 6 (m/sigma)^2 with one boost and
    # 3 (m/sigma)^2 with two.
    F_BOUND = {1: 0.75, 2: 0.375}  # per number of boosted particles

    @settings(max_examples=500)
    @given(
        boosted=st.sampled_from(list(F_BOUND)),
        beta=st.sampled_from([0.0, 0.999999, math.nextafter(1.0, 0.0)])
        | st.floats(0.0, 1.0, exclude_max=True),
        eps=st.sampled_from([1e-300, 1e-3, 0.5, math.nextafter(1.0, 0.0)])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        below=st.integers(0, 3),
    )
    def test_below_three_quarters_inside_the_n_bounds(self, boosted, beta, eps, below):
        # Every F the package forms is masked to the n bounds first
        # (cli._block_values, c_frobenius_perturbative): there it cannot
        # reach 1, where the first-order I1 = 1 - F would leave [0, 1].
        upper = n_bounds(np.array([eps]), boosted)
        n = max(0, int(min(upper[0], 2.0**62)) - below)
        assert check_n_in_bounds(n, np.array([eps]), boosted)[0]
        assert factor(n, beta, eps) < self.F_BOUND[boosted]

    def test_largest_f_inside_the_n_bounds(self):
        # the largest n the bounds allow, at the fastest boost
        eps = np.linspace(0.001, 0.999, 999)
        for boosted, bound in self.F_BOUND.items():
            upper = n_bounds(eps, boosted)
            largest = max(factor(int(u), math.nextafter(1.0, 0.0), e) for u, e in zip(upper, eps))
            assert 0.99 * bound < largest < bound

    def test_domain(self):
        # NaN outside (0, 1); a bad n or a sigma/m that is not a column raises
        column = f_factor(2, boost_from_beta(0.9), np.array([1.5, 0.1, 0.0, -0.3, math.nan]))
        assert np.isnan(column).tolist() == [True, False, True, True, True]
        with pytest.raises(ValueError):
            f_factor(-1, boost_from_beta(0.9), np.array([0.1]))
        with pytest.raises(ValueError, match="1-D"):
            f_factor(2, boost_from_beta(0.9), 0.1)

    def test_factor_type_rejects_negative(self):
        # f_factor gives no negative F; a negative one puts a negative weight
        # on the corner block's diagonal, and the state fails validation
        assert (f_factor(2, boost_from_beta(0.9), np.array([1e-300, 0.1, 0.9])) >= 0.0).all()
        with pytest.raises(ValueError, match="semidefinite"):
            rho_single_boost_perturbative(0.3, np.array([-0.01]))

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("beta", [0.3, 0.8, 0.95])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_agrees_with_quadrature_to_truncation_order(self, n, beta, eps):
        # the closed form I3 = F drops terms of order (sigma/m)^4
        _, i3 = converged(n, beta, eps)
        assert abs(i3 - factor(n, beta, eps)) <= 5.0 * eps**4


class TestNBounds:
    def test_single(self):
        assert N_LOWER == -0.5
        upper = n_bounds(np.array([0.1]), 1)
        assert upper[0] == pytest.approx(299.5, abs=1e-9)

    def test_dual(self):
        upper = n_bounds(np.array([0.1]), 2)
        assert upper[0] == pytest.approx(149.5, abs=1e-9)
        # 3.0 / 2 is exactly 1.5: the budget per particle is halved bit for bit
        eps = np.array([1e-3, 0.1, 0.3, 0.7, math.nextafter(1.0, 0.0)])
        inv2 = np.float_power(1.0 / eps, 2.0)
        assert n_bounds(eps, 1).tobytes() == (3.0 * inv2 - 0.5).tobytes()
        assert n_bounds(eps, 2).tobytes() == (1.5 * inv2 - 0.5).tobytes()

    def test_wide_packet_limit(self):
        upper = n_bounds(np.array([1.0 - 1e-12]), 1)
        assert upper[0] == pytest.approx(2.5, abs=1e-9)

    def test_domain(self):
        upper = n_bounds(np.array([0.0, 1.0, 1.2, -0.3, 0.5]), 1)
        assert np.isnan(upper).tolist() == [True, True, True, True, False]
        for boosted in (0, 3):  # one or two boosted particles
            with pytest.raises(ValueError, match="boosted must be 1 or 2"):
                n_bounds(np.array([0.1]), boosted)
            with pytest.raises(ValueError, match="boosted must be 1 or 2"):
                check_n_in_bounds(2, np.array([0.1]), boosted)
        with pytest.raises(ValueError, match="1-D"):
            n_bounds(0.1, 1)

    def test_masks(self):
        eps = np.array([0.1, 0.1, 1.5])
        assert check_n_in_bounds(299, eps, 1).tolist() == [True, True, False]
        assert check_n_in_bounds(300, eps, 1).tolist() == [False, False, False]
        # the lower bound -1/2 is open
        assert check_n_in_bounds(-0.5, eps, 1).tolist() == [False, False, False]
        assert check_n_in_bounds(-0.25, eps, 1).tolist() == [True, True, False]
        assert check_factor_sum(np.array([0.2, 0.3, math.nan])).tolist() == [True, True, False]
        sums = check_factor_sum(np.array([0.2, 0.3, 0.1]), np.array([0.2, 0.2, math.nan]))
        assert sums.tolist() == [True, False, False]
