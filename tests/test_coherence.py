"""Tests for the coherence measures, spectra, and the Jacobi eigensolver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boostcoh import (
    DensityMatrix,
    JacobiConvergenceError,
    PerturbativeFactor,
    QuadratureToleranceError,
    Spectrum,
    WavePacket,
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
from boostcoh.coherence import _descending, _spectrum_faults

from oracles import jacobi_eigenvalues, mp_frobenius_from_spectrum

THETAS = [k * math.pi / 24 for k in range(13)]


def random_density_matrix(rng, dim):
    """Random PSD trace-one matrix from a Ginibre draw (test-only oracle input)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


class TestCL1:
    def test_diagonal_state(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert c_l1(rho) == 0.0

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("f", [0.0, 0.1, 0.4999])
    def test_single_boost_invariance(self, theta, f):
        rho = rho_single_boost_perturbative(theta, PerturbativeFactor(f))
        assert c_l1(rho) == pytest.approx(math.sin(2 * theta), abs=1e-12)

    def test_dual_boost_value(self):
        rho = rho_dual_boost_perturbative(
            math.pi / 6, PerturbativeFactor(0.002), PerturbativeFactor(0.004)
        )
        assert c_l1(rho) == pytest.approx(math.sin(math.pi / 3), abs=1e-12)
        assert c_l1(rho) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_complex_entries(self):
        rho = DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))
        assert c_l1(rho) == pytest.approx(0.6, rel=1e-15)


class TestCFrobenius:
    def test_pure_state(self):
        assert c_frobenius(Spectrum((1.0, 0.0, 0.0, 0.0)), 4) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert c_frobenius(Spectrum((0.25, 0.25, 0.25, 0.25)), 4) == 0.0

    def test_rank_two_value(self):
        # sqrt((8/3) F^2 - (8/3) F + 1) at F = 0.0032756246548487538,
        # cross-checked with 40-digit mpmath
        f = 0.0032756246548487538
        spec = Spectrum((1.0 - f, f, 0.0, 0.0))
        assert c_frobenius(spec, 4) == pytest.approx(0.9956372901306723, rel=1e-13)

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_matches_mpmath(self, raw):
        total = sum(raw)
        values = tuple(sorted((v / total for v in raw), reverse=True))
        spec = Spectrum(values)
        expected = float(mp_frobenius_from_spectrum(values))
        assert c_frobenius(spec, 4) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            c_frobenius(Spectrum((1.0, 0.0)), 4)


class TestSpectrumValidation:
    def test_sorted_and_validated(self):
        spec = Spectrum((0.1, 0.9, 0.0, 0.0))
        assert spec.eigenvalues == (0.9, 0.1, 0.0, 0.0)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            Spectrum((0.9, 0.3, 0.0, 0.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Spectrum((1.1, -0.1, 0.0, 0.0))

    NAN_ROWS = [(math.nan,) * 4, (math.nan, 0.5, 0.5, 0.0)]

    @pytest.mark.parametrize("row", NAN_ROWS)
    def test_rejects_nan(self, row):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            Spectrum(row)

    def test_column_check_rejects_nan(self):
        rows = np.array([*self.NAN_ROWS, (0.5, 0.5, 0.0, 0.0)])
        _, off_sum, off_range = _spectrum_faults(_descending(rows))
        assert (off_sum | off_range).tolist() == [True, True, False]
        assert off_range.tolist() == [True, True, False]


class TestSpectrumSingleBoost:
    def test_no_boost(self):
        assert spectrum_single_boost(0.3, PerturbativeFactor(0.0)).eigenvalues == (1.0, 0.0, 0.0, 0.0)

    def test_plain_value(self):
        spec = spectrum_single_boost(1.0, PerturbativeFactor(0.1))
        assert spec.eigenvalues == (0.9, 0.1, 0.0, 0.0)

    def test_matches_jacobi_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(0, math.pi / 2)
            f = PerturbativeFactor(rng.uniform(0, 0.499))
            analytic = spectrum_single_boost(theta, f).eigenvalues
            jacobi = hermitian_eigenvalues(rho_single_boost_perturbative(theta, f)).eigenvalues
            assert np.allclose(analytic, jacobi, atol=1e-12)

    def test_refuses_unphysical_factor(self):
        with pytest.raises(ValueError):
            spectrum_single_boost(0.3, PerturbativeFactor(0.6))

    @pytest.mark.parametrize("f", [1e-160, 1e-300])
    def test_tiny_factor_does_not_underflow(self, f):
        spec = spectrum_single_boost(0.7, PerturbativeFactor(f))
        assert spec.eigenvalues == (1.0, f, 0.0, 0.0)


class TestSpectrumDualBoost:
    def test_no_boost(self):
        zero = PerturbativeFactor(0.0)
        assert spectrum_dual_boost(0.9, zero, zero).eigenvalues == (1.0, 0.0, 0.0, 0.0)

    def test_equal_factors_at_quarter_pi(self):
        # cos(4 theta) = -1 makes the corner-block gap saturate: {2f, 0}
        f = 0.01
        spec = spectrum_dual_boost(math.pi / 4, PerturbativeFactor(f), PerturbativeFactor(f))
        assert spec.eigenvalues == pytest.approx((1 - 2 * f, 2 * f, 0.0, 0.0), abs=1e-15)

    def test_aligned_factors_at_theta_zero(self):
        # cos(4 theta) = 1 leaves the bare gap |f1 - f2|
        spec = spectrum_dual_boost(0.0, PerturbativeFactor(0.002), PerturbativeFactor(0.004))
        assert spec.eigenvalues == pytest.approx((0.994, 0.004, 0.002, 0.0), abs=1e-15)

    @given(
        theta=st.floats(0.0, math.pi / 2),
        f1=st.floats(0.0, 0.24),
        f2=st.floats(0.0, 0.24),
    )
    def test_matches_jacobi(self, theta, f1, f2):
        p1, p2 = PerturbativeFactor(f1), PerturbativeFactor(f2)
        analytic = spectrum_dual_boost(theta, p1, p2).eigenvalues
        jacobi = hermitian_eigenvalues(rho_dual_boost_perturbative(theta, p1, p2)).eigenvalues
        assert np.allclose(analytic, jacobi, atol=1e-11)

    @given(theta=st.floats(0.0, math.pi / 2), f1=st.floats(0.0, 0.24), f2=st.floats(0.0, 0.24))
    def test_swap_symmetry(self, theta, f1, f2):
        a = spectrum_dual_boost(theta, PerturbativeFactor(f1), PerturbativeFactor(f2))
        b = spectrum_dual_boost(theta, PerturbativeFactor(f2), PerturbativeFactor(f1))
        assert a.eigenvalues == b.eigenvalues

    def test_refuses_unphysical_sum(self):
        with pytest.raises(ValueError):
            spectrum_dual_boost(0.3, PerturbativeFactor(0.3), PerturbativeFactor(0.2))

    def test_tiny_factors_do_not_underflow(self):
        f = PerturbativeFactor(1e-160)
        spec = spectrum_dual_boost(math.pi / 4, f, f)
        assert spec.eigenvalues == pytest.approx((1.0, 2e-160, 0.0, 0.0), rel=1e-15, abs=0.0)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        spec = hermitian_eigenvalues(DensityMatrix(np.diag([0.7, 0.3]).astype(complex)))
        assert spec.eigenvalues == pytest.approx((0.7, 0.3), abs=1e-15)

    def test_known_rank_two_state(self):
        spec = hermitian_eigenvalues(
            rho_single_boost_perturbative(math.pi / 3, PerturbativeFactor(0.05))
        )
        assert np.allclose(spec.eigenvalues, (0.95, 0.05, 0.0, 0.0), atol=1e-12)

    def test_x_matrix_block_eigenvalues(self):
        # blocks [[0.3, 0.1], [0.1, 0.2]] on the corners and
        # [[0.3, -0.05], [-0.05, 0.2]] inside; closed-form 2x2 spectra
        x = np.zeros((4, 4), dtype=complex)
        x[0, 0], x[3, 3], x[0, 3], x[3, 0] = 0.3, 0.2, 0.1, 0.1
        x[1, 1], x[2, 2], x[1, 2], x[2, 1] = 0.3, 0.2, -0.05, -0.05
        rho = DensityMatrix(x)

        def block_eigs(a, d, b):
            mid, gap = (a + d) / 2, math.hypot((a - d) / 2, b)
            return mid + gap, mid - gap

        expected = sorted(block_eigs(0.3, 0.2, 0.1) + block_eigs(0.3, 0.2, 0.05), reverse=True)
        assert np.allclose(hermitian_eigenvalues(rho).eigenvalues, expected, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_hermitian_against_numpy(self, dim):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rho = random_density_matrix(rng, dim)
            ours = hermitian_eigenvalues(rho).eigenvalues
            ref = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
            assert np.allclose(ours, ref, atol=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(3)
        spec = hermitian_eigenvalues(random_density_matrix(rng, 4))
        values = spec.eigenvalues
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
    """The sweep's matrix for one point, or None outside the route's domain."""
    boosts = [boost_from_beta(b) for b in betas]
    pkt = WavePacket(n, eps, 1.0)
    general = rho_single_boost_general if len(boosts) == 1 else rho_dual_boost_general
    closed = (rho_single_boost_perturbative if len(boosts) == 1
              else rho_dual_boost_perturbative)
    try:
        if quadrature:
            return general(theta, *(moments_quadrature(pkt, b) for b in boosts))
        return closed(theta, *(f_factor(n, b, eps) for b in boosts))
    except (ValueError, QuadratureToleranceError):
        return None


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestStackedJacobi:
    """The lockstep solver against the one-matrix solver it replaced."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(PIPELINE_STATE, min_size=1, max_size=6))
    @pytest.mark.filterwarnings("ignore:F = .* > 1")
    def test_pipeline_states_bit_for_bit(self, points):
        states = [rho for p in points if (rho := pipeline_state(*p)) is not None]
        assume(states)
        stack = DensityMatrix(np.stack([rho.entries for rho in states]))
        got = hermitian_eigenvalues(stack)
        for rho, row in zip(states, got):
            want = jacobi_eigenvalues(rho).eigenvalues
            assert bits(row) == bits(want)
            assert bits(hermitian_eigenvalues(rho).eigenvalues) == bits(want)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([2, 4]),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    def test_complex_states_within_an_ulp(self, dim, seeds):
        states = [random_density_matrix(np.random.default_rng(seed), dim) for seed in seeds]
        got = hermitian_eigenvalues(DensityMatrix(np.stack([rho.entries for rho in states])))
        for rho, row in zip(states, got):
            assert np.max(np.abs(row - jacobi_eigenvalues(rho).eigenvalues)) <= 1e-15

    def test_subnormal_pivot_without_warnings(self):
        # tau = -0.2 / 2e-310 overflows to -inf; the scalar solver gives t = -0
        entries = np.array([[0.6, 1e-310], [1e-310, 0.4]], dtype=complex)
        rho = DensityMatrix(np.stack([entries, np.diag([0.5, 0.5])]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_eigenvalues(rho)
        assert bits(got[0]) == bits(jacobi_eigenvalues(DensityMatrix(entries)).eigenvalues)
        assert got[1].tolist() == [0.5, 0.5]

    def test_invalid_matrix_left_out(self):
        good = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        stack = DensityMatrix(np.stack([good.entries, np.diag([0.7, 0.7])]))
        got = hermitian_eigenvalues(stack)
        assert bits(got[0]) == bits(jacobi_eigenvalues(good).eigenvalues)
        assert np.isnan(got[1]).all()

    @settings(deadline=None, max_examples=60)
    @given(st.lists(PIPELINE_STATE, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore:F = .* > 1")
    def test_stacked_c_l1_bit_for_bit(self, points, seed):
        rng = np.random.default_rng(seed)
        states = [rho for p in points if (rho := pipeline_state(*p)) is not None]
        states.append(random_density_matrix(rng, 4))  # complex entries too
        stack = c_l1(DensityMatrix(np.stack([rho.entries for rho in states])))
        off_diagonal = ~np.eye(4, dtype=bool)
        for rho, value in zip(states, stack):
            # the per-matrix formula before stacking: a lone 1-D numpy sum
            assert bits(value) == bits(np.abs(rho.entries[off_diagonal]).sum())
            assert bits(value) == bits(c_l1(rho))


# F values for the closed spectra, with the tiny ones whose squares underflow
CLOSED_FACTOR = st.sampled_from([0.0, 1e-160, 1e-300]) | st.floats(0.0, 0.3)


class TestColumnForms:
    """Each array call equals the one-value calls bit for bit, NaN where those raise."""

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(0, 8),
        betas=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=2),
        eps=st.lists(st.floats(0.0, 0.95, exclude_min=True, exclude_max=True),
                     min_size=1, max_size=8),
    )
    @pytest.mark.filterwarnings("ignore:F = .* > 1")
    def test_factors_and_perturbative_coherence(self, n, betas, eps):
        boosts = [boost_from_beta(b) for b in betas]
        for b in boosts:
            column = f_factor(n, b, np.array(eps))
            assert bits(column) == bits([f_factor(n, b, e).f for e in eps])
        values = c_frobenius_perturbative(n, boosts, np.array(eps))
        for e, value in zip(eps, values.tolist()):
            try:
                lone = c_frobenius_perturbative(n, boosts, e)
            except ValueError:
                assert math.isnan(value)
            else:
                assert bits(value) == bits(lone)

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
             lambda a, b: spectrum_dual_boost(theta, PerturbativeFactor(a), PerturbativeFactor(b))),
            (spectrum_single_boost(theta, f2),
             lambda a, b: spectrum_single_boost(theta, PerturbativeFactor(b))),
        ]
        for spectra, lone_call in forms:
            values = c_frobenius(spectra, 4)
            for (a, b), row, value in zip(points, spectra, values):
                try:
                    lone = lone_call(a, b)
                except ValueError:  # F1 + F2 >= 1/2
                    assert np.isnan(row).all() and np.isnan(value)
                else:
                    assert bits(row) == bits(lone.eigenvalues)
                    assert bits(value) == bits(c_frobenius(lone, 4))

    def test_frobenius_rows_are_checked_as_spectra(self):
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.ones(4), size=200)
        rows = np.take_along_axis(rows, rng.permuted(np.tile(np.arange(4), (200, 1)), axis=1), 1)
        rows[7] = (0.6, 0.5, 0.0, 0.0)  # sums to 1.1
        rows[9] = (1.2, -0.2, 0.0, 0.0)  # leaves [0, 1]
        values = c_frobenius(rows, 4)
        for k, (row, value) in enumerate(zip(rows.tolist(), values.tolist())):
            if k in (7, 9):
                with pytest.raises(ValueError):
                    Spectrum(tuple(row))
                assert math.isnan(value)
            else:
                assert bits(value) == bits(c_frobenius(Spectrum(tuple(row)), 4))

    @given(st.floats(-1e150, 1e150))
    def test_float_power_rounds_as_python_pow(self, x):
        assert bits(np.float_power(np.array([x]), 2.0)) == bits([x**2])

    def test_float_power_on_random_doubles(self):
        # x * x and np.square can round differently from Python's x**2,
        # which is C pow; float_power calls pow.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.uniform(-300, 150, 100_000)
        assert bits(np.float_power(x, 2.0)) == bits([v**2 for v in x.tolist()])


class TestCFrobeniusPerturbative:
    def test_rest_frame_is_exact_unity(self):
        assert c_frobenius_perturbative(2, boost_from_beta(0.0), 0.1) == 1.0
        both = (boost_from_beta(0.0), boost_from_beta(0.0))
        assert c_frobenius_perturbative(2, both, 0.1) == 1.0

    def test_neutron_reference_point(self):
        # 1 - (4/3) F at n = 2, beta = 0.95, sigma = 100 MeV, m = 939.36 MeV
        value = c_frobenius_perturbative(2, boost_from_beta(0.95), 100.0 / 939.36)
        assert value == pytest.approx(0.9950504155132379, rel=1e-13)

    def test_ultrarelativistic_limit(self):
        # cosh -> infinity turns the boost ratio into 1
        boost = boost_from_beta(1 - 1e-12)
        for n, eps in ((0, 0.1), (2, 0.1), (4, 0.05)):
            single = c_frobenius_perturbative(n, boost, eps)
            assert single == pytest.approx(1 - (2 * n + 1) / 6 * eps**2, abs=1e-6)
            dual = c_frobenius_perturbative(n, (boost, boost), eps)
            assert dual == pytest.approx(1 - (2 * n + 1) / 3 * eps**2, abs=1e-6)

    def test_dual_is_sum_of_deficits(self):
        b1, b2 = boost_from_beta(0.9), boost_from_beta(0.5)
        d1 = 1 - c_frobenius_perturbative(3, b1, 0.1)
        d2 = 1 - c_frobenius_perturbative(3, b2, 0.1)
        both = c_frobenius_perturbative(3, (b1, b2), 0.1)
        assert both == pytest.approx(1 - d1 - d2, abs=1e-15)

    def test_n_bounds_enforced(self):
        boost = boost_from_beta(0.5)
        assert c_frobenius_perturbative(299, boost, 0.1) < 1.0
        with pytest.raises(ValueError, match="allowed range"):
            c_frobenius_perturbative(300, boost, 0.1)
        assert c_frobenius_perturbative(149, (boost, boost), 0.1) < 1.0
        with pytest.raises(ValueError, match="allowed range"):
            c_frobenius_perturbative(150, (boost, boost), 0.1)

    def test_factor_sum_gate(self):
        # n = 299 (149 for two boosts) is inside the n bounds at
        # sigma/m = 0.1, but F1 + F2 is about 3/4
        boost = boost_from_beta(0.999999)
        with pytest.raises(ValueError, match="F1 \\+ F2 must be < 1/2"):
            c_frobenius_perturbative(299, boost, 0.1)
        with pytest.raises(ValueError, match="F1 \\+ F2 must be < 1/2"):
            c_frobenius_perturbative(149, (boost, boost), 0.1)

    def test_monotone_decreasing(self):
        base = c_frobenius_perturbative(2, boost_from_beta(0.8), 0.1)
        assert c_frobenius_perturbative(2, boost_from_beta(0.9), 0.1) < base
        assert c_frobenius_perturbative(3, boost_from_beta(0.8), 0.1) < base
        assert c_frobenius_perturbative(2, boost_from_beta(0.8), 0.12) < base


class TestTruncationQuality:
    @pytest.mark.parametrize("f", [0.001, 0.01, 0.05, 0.1])
    def test_exact_vs_perturbative_single(self, f):
        # sqrt(1 - (8/3) F (1 - F)) = 1 - (4/3) F + O(F^2); the O(F^2)
        # coefficient is 4/9, comfortably below 3
        exact = c_frobenius(Spectrum((1 - f, f, 0.0, 0.0)), 4)
        assert abs(exact - (1 - 4 * f / 3)) <= 3 * f**2

    @pytest.mark.parametrize("total", [0.002, 0.01])
    def test_dual_theta_spread_is_second_order(self, total):
        # at first order the Frobenius measure depends on F1 + F2 only
        f1, f2 = 0.35 * total, 0.65 * total
        values = [
            c_frobenius(
                spectrum_dual_boost(theta, PerturbativeFactor(f1), PerturbativeFactor(f2)), 4
            )
            for theta in np.linspace(0.0, math.pi / 2, 31)
        ]
        assert max(values) - min(values) <= 5 * total**2

    def test_refused_beyond_validity(self):
        # the PSD-safe range ends at F = 1/2: refuse rather than clamp
        with pytest.raises(ValueError):
            rho_single_boost_perturbative(0.3, PerturbativeFactor(0.51))
        with pytest.raises(ValueError):
            spectrum_dual_boost(0.3, PerturbativeFactor(0.26), PerturbativeFactor(0.25))
