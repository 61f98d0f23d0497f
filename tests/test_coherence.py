"""Tests for the coherence measures, spectra, and the Jacobi eigensolver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from boostcoh import (
    DensityMatrix,
    boost_from_beta,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    f_factor,
    hermitian_eigenvalues,
    moments_quadrature,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
    spectrum_dual_boost,
    spectrum_single_boost,
)
from boostcoh.coherence import _descending
from boostcoh.integrals import check_factor_sum

from oracles import (
    c_re, c_re_eigvalsh, entropy_bits, jacobi_eigenvalues, mp_binary_entropy, mp_c_re,
    mp_frobenius_from_spectrum, spectrum_faults, x_blocks, x_matrices,
)

THETAS = [k * math.pi / 24 for k in range(13)]


def col(*values) -> np.ndarray:
    """A column of F values, or a (points x 4) array of spectra, one per point."""
    return np.array(values, dtype=float)


def states(*matrices) -> DensityMatrix:
    """The states of the given real symmetric 4x4 X matrices, each of which must pass validation."""
    stack = np.stack(matrices)
    rho = DensityMatrix(x_blocks(stack))
    assert np.array_equal(x_matrices(rho.blocks), stack)  # nothing off the X was dropped
    return rho


def random_x_state(rng) -> np.ndarray:
    """Random real trace-one 4x4 X-state, each block a Ginibre draw g g^T (test-only oracle input)."""
    m = np.zeros((4, 4))
    for block in ((0, 3), (1, 2)):
        g = rng.normal(size=(2, 2))
        m[np.ix_(block, block)] = g @ g.T
    return x_matrices(states(m / m.trace()).blocks)[0]


class TestCL1:
    def test_diagonal_state(self):
        rho = states(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert c_l1(rho).tolist() == [0.0]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("f", [0.0, 0.1, 0.4999])
    def test_single_boost_invariance(self, theta, f):
        rho = rho_single_boost_perturbative(theta, col(f))
        assert c_l1(rho)[0] == pytest.approx(math.sin(2 * theta), abs=1e-12)

    def test_dual_boost_value(self):
        rho = rho_dual_boost_perturbative(math.pi / 6, col(0.002), col(0.004))
        assert c_l1(rho)[0] == pytest.approx(math.sin(math.pi / 3), abs=1e-12)
        assert c_l1(rho)[0] == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_negative_pivot(self):
        x = np.diag([0.25] * 4)
        x[0, 3] = x[3, 0] = -0.1
        x[1, 2] = x[2, 1] = 0.2
        assert c_l1(states(x))[0] == pytest.approx(0.6, rel=1e-15)


class TestCFrobenius:
    def test_pure_state(self):
        assert c_frobenius(col((1.0, 0.0, 0.0, 0.0)))[0] == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert c_frobenius(col((0.25, 0.25, 0.25, 0.25))).tolist() == [0.0]

    def test_rank_two_value(self):
        # sqrt((8/3) F^2 - (8/3) F + 1) at F = 0.0032756246548487538,
        # cross-checked with 40-digit mpmath
        f = 0.0032756246548487538
        spec = col((1.0 - f, f, 0.0, 0.0))
        assert c_frobenius(spec)[0] == pytest.approx(0.9956372901306723, rel=1e-13)

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_matches_mpmath(self, raw):
        total = sum(raw)
        values = tuple(sorted((v / total for v in raw), reverse=True))
        expected = float(mp_frobenius_from_spectrum(values))
        assert c_frobenius(col(values))[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_is_the_row_width(self):
        # every state is two qubits: a spectrum row holds 4 eigenvalues
        assert c_frobenius(col((1.0, 0.0, 0.0, 0.0))).tolist() == [1.0]
        for spectra in (col((1.0,)), col((1.0, 0.0)), np.array([1.0, 0.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match=r"\(points x 4\) array"):
                c_frobenius(spectra)


class TestSpectrumValidation:
    """The oracle's spectrum checks, a mask per check; c_frobenius gives NaN only for a NaN row."""

    @staticmethod
    def faults(row) -> list[bool]:
        off_sum, off_range = spectrum_faults(col(row))
        return [bool(off_sum[0]), bool(off_range[0])]

    def test_sorted_and_validated(self):
        assert _descending(col((0.1, 0.9, 0.0, 0.0))).tolist() == [[0.9, 0.1, 0.0, 0.0]]
        assert self.faults((0.1, 0.9, 0.0, 0.0)) == [False, False]
        sorted_value = c_frobenius(col((0.9, 0.1, 0.0, 0.0)))
        assert bits(c_frobenius(col((0.1, 0.9, 0.0, 0.0)))) == bits(sorted_value)

    def test_rejects_wrong_sum(self):
        assert self.faults((0.9, 0.3, 0.0, 0.0)) == [True, False]

    def test_rejects_negative(self):
        assert self.faults((1.1, -0.1, 0.0, 0.0)) == [False, True]

    NAN_ROWS = [(math.nan,) * 4, (math.nan, 0.5, 0.5, 0.0)]

    @pytest.mark.parametrize("row", NAN_ROWS)
    def test_rejects_nan(self, row):
        # the range check, not the sum check, fails a NaN
        assert self.faults(row) == [False, True]
        assert np.isnan(c_frobenius(col(row))[0])

    def test_column_check_rejects_nan(self):
        rows = np.array([*self.NAN_ROWS, (0.5, 0.5, 0.0, 0.0)])
        off_sum, off_range = spectrum_faults(rows)
        assert (off_sum | off_range).tolist() == [True, True, False]
        assert off_range.tolist() == [True, True, False]


class TestSpectrumSingleBoost:
    def test_no_boost(self):
        assert spectrum_single_boost(0.3, col(0.0)).tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_plain_value(self):
        assert spectrum_single_boost(1.0, col(0.1)).tolist() == [[0.9, 0.1, 0.0, 0.0]]

    def test_matches_jacobi_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(0, math.pi / 2)
            f = col(rng.uniform(0, 0.499))
            analytic = spectrum_single_boost(theta, f)
            jacobi = hermitian_eigenvalues(rho_single_boost_perturbative(theta, f))
            assert np.allclose(analytic, jacobi, atol=1e-12)

    def test_refuses_unphysical_factor(self):
        spectra = spectrum_single_boost(0.3, col(0.6, 0.4))
        assert np.isnan(spectra[0]).all() and not np.isnan(spectra[1]).any()
        assert np.isnan(c_frobenius(spectra)).tolist() == [True, False]

    @pytest.mark.parametrize("f", [1e-160, 1e-300])
    def test_tiny_factor_does_not_underflow(self, f):
        assert spectrum_single_boost(0.7, col(f)).tolist() == [[1.0, f, 0.0, 0.0]]


class TestSpectrumDualBoost:
    def test_no_boost(self):
        zero = col(0.0)
        assert spectrum_dual_boost(0.9, zero, zero).tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_equal_factors_at_quarter_pi(self):
        # cos(4 theta) = -1 makes the corner-block gap saturate: {2f, 0}
        f = 0.01
        (spec,) = spectrum_dual_boost(math.pi / 4, col(f), col(f))
        assert tuple(spec) == pytest.approx((1 - 2 * f, 2 * f, 0.0, 0.0), abs=1e-15)

    def test_aligned_factors_at_theta_zero(self):
        # cos(4 theta) = 1 leaves the bare gap |f1 - f2|
        (spec,) = spectrum_dual_boost(0.0, col(0.002), col(0.004))
        assert tuple(spec) == pytest.approx((0.994, 0.004, 0.002, 0.0), abs=1e-15)

    @given(
        theta=st.floats(0.0, math.pi / 2),
        f1=st.floats(0.0, 0.24),
        f2=st.floats(0.0, 0.24),
    )
    def test_matches_jacobi(self, theta, f1, f2):
        p1, p2 = col(f1), col(f2)
        analytic = spectrum_dual_boost(theta, p1, p2)
        jacobi = hermitian_eigenvalues(rho_dual_boost_perturbative(theta, p1, p2))
        assert np.allclose(analytic, jacobi, atol=1e-11)

    @given(theta=st.floats(0.0, math.pi / 2), f1=st.floats(0.0, 0.24), f2=st.floats(0.0, 0.24))
    def test_swap_symmetry(self, theta, f1, f2):
        a = spectrum_dual_boost(theta, col(f1), col(f2))
        b = spectrum_dual_boost(theta, col(f2), col(f1))
        assert a.tolist() == b.tolist()

    def test_refuses_unphysical_sum(self):
        spectra = spectrum_dual_boost(0.3, col(0.3, 0.2), col(0.2, 0.2))
        assert np.isnan(spectra[0]).all() and not np.isnan(spectra[1]).any()
        assert np.isnan(c_frobenius(spectra)).tolist() == [True, False]

    def test_tiny_factors_do_not_underflow(self):
        f = col(1e-160)
        (spec,) = spectrum_dual_boost(math.pi / 4, f, f)
        assert tuple(spec) == pytest.approx((1.0, 2e-160, 0.0, 0.0), rel=1e-15, abs=0.0)


# F columns of gated rows: F >= 0, drawn near the edges too (zero,
# subnormal, and a sum just below 1/2).
GATED_F = st.sampled_from([0.0, 5e-324, 1e-300, 0.25, math.nextafter(0.5, 0.0)]) | st.floats(
    0.0, 0.5, exclude_max=True
)


class TestGatedClosedSpectra:
    """The closed spectrum of a row that passes the gates cannot fail the spectrum checks.

    With F1, F2 >= 0 and s = F1 + F2 < 1/2, the corner pair is s/2 +/- g
    with 0 <= g <= s/2, so all four values lie in [0, 1] and add up to 1
    within rounding, at any theta.  This is why c_frobenius checks no
    spectrum: the gates decide these rows, and the state checks the Jacobi
    ones (see test_tolerances.py).
    """

    @staticmethod
    def assert_pass(spectra):
        off_sum, off_range = spectrum_faults(spectra)
        assert not (off_sum | off_range).any()

    @settings(max_examples=300)
    @given(
        theta=st.sampled_from([0.0, math.pi / 8, math.pi / 4, math.pi / 2]) | st.floats(-10.0, 10.0),
        rows=st.lists(st.tuples(GATED_F, GATED_F), min_size=1, max_size=8),
    )
    def test_gated_rows_pass(self, theta, rows):
        f1, f2 = np.array(rows).T
        gated = check_factor_sum(f1, f2)
        assume(gated.any())
        self.assert_pass(spectrum_dual_boost(theta, f1[gated], f2[gated]))
        self.assert_pass(spectrum_single_boost(theta, f2[check_factor_sum(f2)]))

    def test_gated_rows_pass_on_a_scan(self):
        rng = np.random.default_rng(20261019)
        for theta in (0.0, math.pi / 4, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 13)):
            s = 0.5 * (1.0 - rng.random(65536) ** 8)  # crowded near 1/2
            f1 = s * rng.random(len(s))
            f2 = s - f1
            gated = check_factor_sum(f1, f2)
            self.assert_pass(spectrum_dual_boost(theta, f1[gated], f2[gated]))
            self.assert_pass(spectrum_single_boost(theta, s[check_factor_sum(s)]))


class TestHermitianEigenvalues:
    def test_diagonal(self):
        spec = hermitian_eigenvalues(states(np.diag([0.1, 0.4, 0.2, 0.3])))
        assert spec.tolist() == [[0.4, 0.3, 0.2, 0.1]]

    def test_known_rank_two_state(self):
        spec = hermitian_eigenvalues(rho_single_boost_perturbative(math.pi / 3, col(0.05)))
        assert np.allclose(spec, [(0.95, 0.05, 0.0, 0.0)], atol=1e-12)

    def test_x_matrix_block_eigenvalues(self):
        # blocks [[0.3, 0.1], [0.1, 0.2]] on the corners and
        # [[0.3, -0.05], [-0.05, 0.2]] inside; closed-form 2x2 spectra
        x = np.zeros((4, 4))
        x[0, 0], x[3, 3], x[0, 3], x[3, 0] = 0.3, 0.2, 0.1, 0.1
        x[1, 1], x[2, 2], x[1, 2], x[2, 1] = 0.3, 0.2, -0.05, -0.05
        rho = states(x)

        def block_eigs(a, d, b):
            mid, gap = (a + d) / 2, math.hypot((a - d) / 2, b)
            return mid + gap, mid - gap

        expected = sorted(block_eigs(0.3, 0.2, 0.1) + block_eigs(0.3, 0.2, 0.05), reverse=True)
        assert np.allclose(hermitian_eigenvalues(rho), [expected], atol=1e-13)

    def test_random_hermitian_against_numpy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            matrix = random_x_state(rng)
            (ours,) = hermitian_eigenvalues(states(matrix))
            ref = np.sort(np.linalg.eigvalsh(matrix))[::-1]
            assert np.allclose(ours, ref, atol=1e-12)
            assert bits(ours) == bits(jacobi_eigenvalues(matrix))

    def test_sorted_descending(self):
        rng = np.random.default_rng(3)
        (values,) = hermitian_eigenvalues(states(random_x_state(rng)))
        assert all(values[i] >= values[i + 1] for i in range(3))


# One state the sweep pipeline can build: (n, theta, betas, sigma/m, quadrature-fed).
PIPELINE_STATE = st.tuples(
    st.integers(0, 8),
    st.floats(0.0, math.pi / 2),
    st.lists(st.floats(0.0, 0.999), min_size=1, max_size=2),
    st.floats(0.0, 0.95, exclude_min=True, exclude_max=True),
    st.booleans(),
)


def pipeline_state(n, theta, betas, eps, quadrature):
    """The sweep's 4x4 matrix for one point, or None outside the route's domain."""
    boosts = [boost_from_beta(b) for b in betas]
    general = rho_single_boost_general if len(boosts) == 1 else rho_dual_boost_general
    closed = (rho_single_boost_perturbative if len(boosts) == 1
              else rho_dual_boost_perturbative)
    if quadrature:
        moments = [moments_quadrature(n, b, col(eps)) for b in boosts]
        if any(errors[0] is not None for _, errors in moments):
            return None
        rho = general(theta, *(values for values, _ in moments))
    else:
        factors = [f_factor(n, b, col(eps)) for b in boosts]
        if not check_factor_sum(*factors)[0]:
            return None
        rho = closed(theta, *factors)
    return x_matrices(rho.blocks)[0]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestStackedJacobi:
    """Stacks of X-states against the one-matrix Jacobi oracle."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(PIPELINE_STATE, min_size=1, max_size=6))
    def test_pipeline_states_bit_for_bit(self, points):
        matrices = [m for p in points if (m := pipeline_state(*p)) is not None]
        assume(matrices)
        got = hermitian_eigenvalues(states(*matrices))
        for matrix, row in zip(matrices, got):
            want = jacobi_eigenvalues(matrix)
            assert bits(row) == bits(want)
            assert bits(hermitian_eigenvalues(states(matrix))[0]) == bits(want)

    # The one-matrix oracle's tau overflows on subnormal pivots, as it should.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_subnormal_pivot_without_warnings(self):
        # The inner pivot puts the norm above the tolerance, so the corner
        # block is rotated too: tau = -0.1 / 2e-310 overflows to -inf, and
        # the scalar solver gives t = -0.
        entries = np.diag([0.3, 0.3, 0.2, 0.2])
        entries[0, 3] = entries[3, 0] = 1e-310
        entries[1, 2] = entries[2, 1] = 0.1
        rho = states(entries, np.diag([0.25] * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_eigenvalues(rho)
        assert bits(got[0]) == bits(jacobi_eigenvalues(entries))
        assert got[1].tolist() == [0.25] * 4

    def test_invalid_matrix_left_out(self):
        # an invalid matrix cannot reach the solver: its stack raises
        good = np.diag([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match=r"trace = 1\.4, .* at point 1$"):
            DensityMatrix(x_blocks(np.stack([good, np.diag([0.7, 0.7, 0.0, 0.0])])))
        got = hermitian_eigenvalues(states(good))
        assert bits(got[0]) == bits(jacobi_eigenvalues(good))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(PIPELINE_STATE, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_stacked_c_l1_bit_for_bit(self, points, seed):
        rng = np.random.default_rng(seed)
        matrices = [m for p in points if (m := pipeline_state(*p)) is not None]
        matrices.append(random_x_state(rng))
        stack = c_l1(states(*matrices))
        off_diagonal = ~np.eye(4, dtype=bool)
        for matrix, value in zip(matrices, stack):
            # the per-matrix formula before stacking: a 1-D numpy sum
            assert bits(value) == bits(np.abs(matrix[off_diagonal]).sum())
            assert bits(value) == bits(c_l1(states(matrix))[0])


# Pivots of an X-state: zeros, subnormals, values whose norm is below the
# 1e-13 tolerance or just above it, and a fraction of the PSD limit.
X_PIVOT = st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 1e-160, 3e-14, -7e-14, 1.2e-13, 0.5, 1.0]
) | st.floats(-1.0, 1.0)


def x_state(diag, pivots) -> np.ndarray:
    """A real 4x4 X-state: ``diag`` scaled to trace one, each pivot times sqrt(d_p d_q).

    A pivot of modulus below 1e-12 is taken as it is, so that zeros,
    subnormals and values near the Jacobi tolerance reach the solver; the
    state stays within the 1e-10 PSD tolerance.
    """
    d = np.array(diag) / sum(diag)
    a = np.diag(d)
    for (p, q), v in zip(((0, 3), (1, 2)), pivots):
        a[p, q] = a[q, p] = v if abs(v) < 1e-12 else v * math.sqrt(d[p] * d[q])
    return a


class TestXStateRotation:
    """One rotation per block on real X-states, bit for bit the full sweeps."""

    @staticmethod
    def oracle_rows(a: np.ndarray) -> np.ndarray:
        return np.array([jacobi_eigenvalues(m) for m in a])

    # The one-matrix oracle's tau overflows on subnormal pivots, as it should.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 1.0), min_size=4, max_size=4)
            .filter(lambda d: sum(d) > 0.1),
        st.tuples(X_PIVOT, X_PIVOT),
    ), min_size=1, max_size=6))
    def test_matches_the_one_matrix_solver(self, points):
        matrices = [x_state(*p) for p in points]
        got = hermitian_eigenvalues(states(*matrices))
        for matrix, row in zip(matrices, got):
            want = jacobi_eigenvalues(matrix)
            alone = hermitian_eigenvalues(states(matrix))[0]
            assert bits(row) == bits(want) and bits(alone) == bits(want)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_the_one_matrix_solver_on_random_rows(self):
        rng = np.random.default_rng(20261018)
        count = 4096
        a = np.zeros((count, 4, 4))
        d = rng.uniform(0.0, 1.0, (count, 4)) ** rng.integers(1, 4, (count, 4))
        d /= d.sum(axis=1, keepdims=True)
        a[:, range(4), range(4)] = d
        special = np.array([0.0, -0.0, 5e-324, -1e-310, 3e-14, -9e-14, 1.5e-13])
        for p, q in ((0, 3), (1, 2)):
            v = rng.uniform(-1.0, 1.0, count) * np.sqrt(d[:, p] * d[:, q])
            pick = rng.random(count) < 0.3
            v[pick] = rng.choice(special, pick.sum())
            a[:, p, q] = a[:, q, p] = v
        got = hermitian_eigenvalues(DensityMatrix(x_blocks(a)))
        assert got.tobytes() == self.oracle_rows(a).tobytes()

    def test_pivots_below_the_tolerance_are_not_rotated(self):
        # norm sqrt(2 (3e-14^2 + 4e-14^2)) = 7.1e-14 < 1e-13: the diagonal, sorted
        a = x_state([0.1, 0.2, 0.3, 0.4], (3e-14, 4e-14))
        assert hermitian_eigenvalues(states(a)).tolist() == [[0.4, 0.3, 0.2, 0.1]]


# F values for the closed spectra, with the tiny ones whose squares underflow
CLOSED_FACTOR = st.sampled_from([0.0, 1e-160, 1e-300]) | st.floats(0.0, 0.3)


class TestColumnForms:
    """Each point's value is bit for bit its one-point call's, NaN outside the domain."""

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(0, 8),
        betas=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=2),
        eps=st.lists(st.floats(0.0, 0.95, exclude_min=True, exclude_max=True),
                     min_size=1, max_size=8),
    )
    def test_factors_and_perturbative_coherence(self, n, betas, eps):
        boosts = [boost_from_beta(b) for b in betas]
        for b in boosts:
            column = f_factor(n, b, np.array(eps))
            assert bits(column) == bits([f_factor(n, b, col(e))[0] for e in eps])
        values = c_frobenius_perturbative(n, boosts, np.array(eps))
        budget = 3.0 if len(boosts) == 1 else 1.5
        for e, value in zip(eps, values.tolist()):
            alone = c_frobenius_perturbative(n, boosts, col(e))[0]
            assert bits(value) == bits(alone)
            # NaN exactly outside the n bounds or where F1 + F2 >= 1/2
            total = sum(f_factor(n, b, col(e))[0] for b in boosts)
            with np.errstate(over="ignore"):  # a tiny sigma/m allows any n
                upper = budget * np.float_power(1.0 / e, 2.0) - 0.5
            outside = not n <= upper or not total < 0.5
            assert math.isnan(value) == outside

    @settings(deadline=None, max_examples=80)
    @given(
        theta=st.floats(0.0, math.pi / 2),
        points=st.lists(st.tuples(CLOSED_FACTOR, CLOSED_FACTOR), min_size=1, max_size=8),
    )
    def test_closed_spectra_and_frobenius(self, theta, points):
        f1 = np.array([a for a, _ in points])
        f2 = np.array([b for _, b in points])
        forms = [
            (spectrum_dual_boost(theta, f1, f2),
             lambda a, b: spectrum_dual_boost(theta, col(a), col(b)), lambda a, b: a + b),
            (spectrum_single_boost(theta, f2),
             lambda a, b: spectrum_single_boost(theta, col(b)), lambda a, b: b),
        ]
        for spectra, one_point_call, total in forms:
            values = c_frobenius(spectra)
            for (a, b), row, value in zip(points, spectra, values):
                alone = one_point_call(a, b)
                if total(a, b) >= 0.5:
                    assert np.isnan(row).all() and np.isnan(alone).all() and np.isnan(value)
                else:
                    assert bits(row) == bits(alone[0])
                    assert bits(value) == bits(c_frobenius(alone)[0])

    def test_frobenius_rows_are_checked_as_spectra(self):
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.ones(4), size=200)
        rows = np.take_along_axis(rows, rng.permuted(np.tile(np.arange(4), (200, 1)), axis=1), 1)
        rows[7] = (0.6, 0.5, 0.0, 0.0)  # sums to 1.1
        rows[9] = (1.2, -0.2, 0.0, 0.0)  # leaves [0, 1]
        values = c_frobenius(rows)
        # only the oracle's check rejects rows 7 and 9; c_frobenius gives
        # them the formula's value, as every other row
        off_sum, off_range = spectrum_faults(rows)
        assert np.flatnonzero(off_sum | off_range).tolist() == [7, 9]
        for row, value in zip(rows.tolist(), values.tolist()):
            assert bits(value) == bits(c_frobenius(col(sorted(row, reverse=True)))[0])

    @given(st.floats(-1e150, 1e150))
    def test_float_power_rounds_as_python_pow(self, x):
        assert bits(np.float_power(np.array([x]), 2.0)) == bits([x**2])

    def test_float_power_on_random_doubles(self):
        # x * x and np.square can round differently from Python's x**2,
        # which is C pow; float_power calls pow.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.uniform(-300, 150, 100_000)
        assert bits(np.float_power(x, 2.0)) == bits([v**2 for v in x.tolist()])


def perturbative(n, boosts, eps) -> float:
    """c_F of one sigma/m by the closed form."""
    return c_frobenius_perturbative(n, boosts, col(eps))[0]


class TestCFrobeniusPerturbative:
    def test_rest_frame_is_exact_unity(self):
        assert perturbative(2, (boost_from_beta(0.0),), 0.1) == 1.0
        both = (boost_from_beta(0.0), boost_from_beta(0.0))
        assert perturbative(2, both, 0.1) == 1.0

    def test_neutron_reference_point(self):
        # 1 - (4/3) F at n = 2, beta = 0.95, sigma = 100 MeV, m = 939.36 MeV
        value = perturbative(2, (boost_from_beta(0.95),), 100.0 / 939.36)
        assert value == pytest.approx(0.9950504155132379, rel=1e-13)

    def test_ultrarelativistic_limit(self):
        # cosh -> infinity turns the boost ratio into 1
        boost = boost_from_beta(1 - 1e-12)
        for n, eps in ((0, 0.1), (2, 0.1), (4, 0.05)):
            single = perturbative(n, (boost,), eps)
            assert single == pytest.approx(1 - (2 * n + 1) / 6 * eps**2, abs=1e-6)
            dual = perturbative(n, (boost, boost), eps)
            assert dual == pytest.approx(1 - (2 * n + 1) / 3 * eps**2, abs=1e-6)

    def test_dual_is_sum_of_deficits(self):
        b1, b2 = boost_from_beta(0.9), boost_from_beta(0.5)
        d1 = 1 - perturbative(3, (b1,), 0.1)
        d2 = 1 - perturbative(3, (b2,), 0.1)
        both = perturbative(3, (b1, b2), 0.1)
        assert both == pytest.approx(1 - d1 - d2, abs=1e-15)

    def test_n_bounds_enforced(self):
        boost = boost_from_beta(0.5)
        assert perturbative(299, (boost,), 0.1) < 1.0
        assert math.isnan(perturbative(300, (boost,), 0.1))
        assert perturbative(149, (boost, boost), 0.1) < 1.0
        assert math.isnan(perturbative(150, (boost, boost), 0.1))
        for count in (0, 3):  # the n bounds take the number of boosts, and check it
            with pytest.raises(ValueError, match="boosted must be 1 or 2"):
                perturbative(2, (boost,) * count, 0.1)

    def test_factor_sum_gate(self):
        # n = 299 (149 for two boosts) is inside the n bounds at
        # sigma/m = 0.1, but F1 + F2 is about 3/4
        boost = boost_from_beta(0.999999)
        assert math.isnan(perturbative(299, (boost,), 0.1))
        assert math.isnan(perturbative(149, (boost, boost), 0.1))
        assert perturbative(149, (boost,), 0.1) < 1.0  # F is about 3/8

    def test_monotone_decreasing(self):
        base = perturbative(2, (boost_from_beta(0.8),), 0.1)
        assert perturbative(2, (boost_from_beta(0.9),), 0.1) < base
        assert perturbative(3, (boost_from_beta(0.8),), 0.1) < base
        assert perturbative(2, (boost_from_beta(0.8),), 0.12) < base


class TestTruncationQuality:
    @pytest.mark.parametrize("f", [0.001, 0.01, 0.05, 0.1])
    def test_exact_vs_perturbative_single(self, f):
        # sqrt(1 - (8/3) F (1 - F)) = 1 - (4/3) F + O(F^2); the O(F^2)
        # coefficient is 4/9, comfortably below 3
        exact = c_frobenius(col((1 - f, f, 0.0, 0.0)))[0]
        assert abs(exact - (1 - 4 * f / 3)) <= 3 * f**2

    @pytest.mark.parametrize("total", [0.002, 0.01])
    def test_dual_theta_spread_is_second_order(self, total):
        # at first order the Frobenius measure depends on F1 + F2 only
        f1, f2 = 0.35 * total, 0.65 * total
        thetas = np.linspace(0.0, math.pi / 2, 31)
        values = [c_frobenius(spectrum_dual_boost(t, col(f1), col(f2)))[0] for t in thetas]
        assert max(values) - min(values) <= 5 * total**2

    def test_refused_beyond_validity(self):
        # the closed forms hold for F1 + F2 < 1/2: refuse rather than clamp
        with pytest.raises(ValueError):
            rho_single_boost_perturbative(0.3, col(0.51))
        spectra = spectrum_dual_boost(0.3, col(0.26), col(0.25))
        assert np.isnan(spectra).all() and np.isnan(c_frobenius(spectra)).all()


def quadrature_rows(n, beta, eps) -> np.ndarray:
    """The converged (I1, I3) rows of a 1-D array of sigma/m."""
    values, errors = moments_quadrature(n, boost_from_beta(beta), np.asarray(eps, dtype=float))
    assert not errors.any()
    return values


class TestRelativeEntropyOfCoherence:
    """C_re = S(diag rho) - S(rho) (the ``c_re`` oracle) and its invariance theorems.

    Each block's a d - c^2 is cos^2(2 theta) I1 I3 J1 J3, so with one boost
    (J3 = 0), or at theta = pi/4, both blocks have rank 1 and C_re is the
    trace times H2(sin^2 theta) exactly.  The entries are rounded, so a
    rank-1 block keeps a smaller root near 1e-17, and its entropy term
    -x log2 x reaches ~20 ulp: 32 ulp is the bound (21 seen in 1500
    random draws).
    """

    ULPS = 32 * 2.0**-52
    THETA = st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(0.0, math.pi / 2)
    BETA = st.sampled_from([0.0, 0.999999]) | st.floats(0.0, 0.999999)
    EPS = st.sampled_from([1e-6, 0.99]) | st.floats(1e-6, 0.99)

    @staticmethod
    def trace(rho: DensityMatrix) -> np.ndarray:
        return rho.blocks[:, :, :2].sum(axis=(1, 2))

    def test_zero_log_zero(self):
        assert entropy_bits(np.array([[0.0, 1.0, 0.0, -1e-17]])).tolist() == [0.0]
        assert entropy_bits(np.array([[0.5, 0.5, 0.0, 0.0]])).tolist() == [1.0]
        # theta = 0 at rest is the product state |10>: no coherence, zeros on the diagonal
        rho = rho_single_boost_general(0.0, np.array([[1.0, 0.0]]))
        assert c_re(rho.blocks).tolist() == c_re_eigvalsh(rho.blocks).tolist() == [0.0]

    @settings(max_examples=300, deadline=None)
    @given(theta=THETA, i3=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           j3=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    # eigvalsh moves this state's two roots near 1e-15 by ~1e-16, an ulp of
    # its largest, and the entropy's slope there (~50) turns that into a
    # C_re of -1.27e-14, below zero; the exact roots give 1.8e-31
    @example(theta=math.pi / 2, i3=1.0562165631760898e-14, j3=0.13762586142604552)
    def test_closed_form_matches_exact_root_entropy(self, theta, i3, j3):
        # any pair of moment rows summing to one, not only the ones a packet gives
        rho = rho_dual_boost_general(theta, col([1.0 - i3, i3]), col([1.0 - j3, j3]))
        assert abs(c_re(rho.blocks)[0] - mp_c_re(rho.blocks)[0]) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(theta=THETA, beta=BETA, eps=EPS, n=st.integers(0, 40))
    def test_one_boost_is_the_binary_entropy_of_sin2_theta(self, theta, beta, eps, n):
        want = float(mp_binary_entropy(math.sin(theta) ** 2))
        rho = rho_single_boost_general(theta, quadrature_rows(n, beta, [eps]))
        assert abs(c_re(rho.blocks)[0] - self.trace(rho)[0] * want) <= self.ULPS
        f = f_factor(n, boost_from_beta(beta), col(eps))
        assume(f[0] < 0.5)
        rho = rho_single_boost_perturbative(theta, f)
        assert abs(c_re(rho.blocks)[0] - self.trace(rho)[0] * want) <= self.ULPS

    @settings(max_examples=150, deadline=None)
    @given(beta1=BETA, beta2=BETA, eps=EPS, n=st.integers(0, 40))
    def test_two_boosts_at_quarter_pi_give_one(self, beta1, beta2, eps, n):
        rows = [quadrature_rows(n, b, [eps]) for b in (beta1, beta2)]
        rho = rho_dual_boost_general(math.pi / 4, *rows)
        assert abs(c_re(rho.blocks)[0] - self.trace(rho)[0]) <= self.ULPS
        factors = [f_factor(n, boost_from_beta(b), col(eps)) for b in (beta1, beta2)]
        assume(check_factor_sum(*factors)[0])
        rho = rho_dual_boost_perturbative(math.pi / 4, *factors)
        assert abs(c_re(rho.blocks)[0] - self.trace(rho)[0]) <= self.ULPS

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.6, 1.0, 1.3])
    def test_two_boosts_decay_off_quarter_pi(self, theta):
        # both particles boosted with one beta: C_re falls as the packet
        # widens and as the boost grows, from H2(sin^2 theta) at rest
        def c_re_dual(beta, eps):
            rows = quadrature_rows(2, beta, eps)
            return c_re(rho_dual_boost_general(theta, rows, rows).blocks)

        eps = np.linspace(0.01, 0.95, 24)
        for beta in (0.3, 0.8, 0.999):
            assert (np.diff(c_re_dual(beta, eps)) < 0.0).all()
        betas = np.linspace(0.0, 0.999999, 16)
        for e in (0.05, 0.3, 0.9):
            decay = [c_re_dual(beta, [e])[0] for beta in betas]
            assert decay[0] == pytest.approx(float(mp_binary_entropy(math.sin(theta) ** 2)),
                                             abs=self.ULPS)
            assert (np.diff(decay) < 0.0).all()
