"""The tolerance table of ``boostcoh.core`` composes.

A state built from inputs that pass the checks upstream of it passes the
``DensityMatrix`` checks, and its Jacobi spectrum passes the spectrum
checks. That is what lets the pipeline build its stacks without a
per-state verdict. The inputs are the ones the pipeline feeds in:

* (I1, I3) moment rows that pass ``integrals._moment_faults``, including
  sums of i1 + i3 on either side of each +/-NORM_TOL edge and i3 down to
  -MOMENT_TOL;
* gated F columns: F >= 0 and F1 + F2 < 1/2.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boostcoh import (
    c_frobenius,
    hermitian_eigenvalues,
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)
from boostcoh.coherence import _spectrum_faults
from boostcoh.core import (
    MOMENT_TOL, NORM_TOL, PSD_TOL, SPECTRUM_RANGE_TOL, SPECTRUM_SUM_TOL, TRACE_TOL,
)
from boostcoh.integrals import _moment_faults

from oracles import jacobi_eigenvalues, x_matrices
from test_coherence import GATED_F

THETAS = st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(0.0, math.pi / 2)


def edge_sums() -> list[float]:
    """The doubles next to 1 + NORM_TOL and to 1 - NORM_TOL, two on each side of each edge.

    Above 1 the doubles are 2^-52 apart, below it 2^-53.
    """
    sums = []
    for sign, ulp in ((1.0, 2.0**-52), (-1.0, 2.0**-53)):
        k = math.floor(NORM_TOL / ulp)
        sums += [1.0 + sign * j * ulp for j in (k - 1, k, k + 1, k + 2)]
    return sums


EDGE_SUMS = edge_sums()
EDGE_I3 = [-MOMENT_TOL, 0.0, 5e-324, 1e-12, 0.1, 0.5, 1.0 - 1e-12, 1.0, 1.0 + MOMENT_TOL]


def checked(rows) -> np.ndarray:
    """The (I1, I3) rows that pass the moment checks."""
    rows = np.array(rows, dtype=float).reshape(-1, 2)
    return rows[~_moment_faults(rows)]


def moment_row(total: float, i3: float) -> tuple[float, float]:
    return (total - i3, i3)


# A row (i1, i3) whose sum is drawn near or at the edges, kept when it passes.
MOMENT_ROW = st.builds(
    moment_row,
    st.sampled_from(EDGE_SUMS) | st.floats(1.0 - NORM_TOL, 1.0 + NORM_TOL),
    st.sampled_from(EDGE_I3) | st.floats(-MOMENT_TOL, 1.0 + MOMENT_TOL),
).filter(lambda row: len(checked([row])) == 1)


def assert_spectra_pass(rho) -> None:
    """The Jacobi spectra of ``rho``, which construction accepted, pass the spectrum checks."""
    off_sum, off_range = _spectrum_faults(hermitian_eigenvalues(rho))
    assert not (off_sum | off_range).any()


def test_the_table_is_derived_upward():
    # The CLI transcript pins "expected 1 within 1e-10" for the moment check.
    assert NORM_TOL == 1e-10 and f"{NORM_TOL:g}" == "1e-10"
    assert TRACE_TOL > (1.0 + NORM_TOL) ** 2 - 1.0 > 2 * NORM_TOL
    assert PSD_TOL > 2 * MOMENT_TOL * (1.0 + MOMENT_TOL)
    assert TRACE_TOL < SPECTRUM_SUM_TOL < 2.001e-10
    assert PSD_TOL < SPECTRUM_RANGE_TOL < 1.001e-10


def test_edge_sums_straddle_the_norm_check():
    # each edge has two passing sums inside it and two failing ones past it
    rows = [moment_row(total, 0.5) for total in EDGE_SUMS]
    assert [len(checked([row])) for row in rows] == [1, 1, 0, 0] * 2


class TestRegression:
    """States from moment rows that pass the moment checks, which a 1e-10 trace check rejected."""

    def test_dual_boost_row_inside_the_norm_check(self):
        m = np.array([[0.9 + 0.9e-10, 0.1]])
        assert len(checked(m)) == 1
        rho = rho_dual_boost_general(math.pi / 4, m, m)
        trace = rho.blocks[0, :, :2].sum()
        assert 1e-10 < trace - 1.0 <= TRACE_TOL
        assert math.isfinite(c_frobenius(hermitian_eigenvalues(rho))[0])
        assert_spectra_pass(rho)

    def test_dual_boost_row_passes_the_jacobi_oracle(self):
        # The oracle checks its spectrum against the same table, so it
        # accepts this state too, and gives the package's bits.
        m = np.array([[0.9 + 0.9e-10, 0.1]])
        rho = rho_dual_boost_general(math.pi / 4, m, m)
        want = jacobi_eigenvalues(x_matrices(rho.blocks)[0])
        assert 1e-10 < sum(want.tolist()) - 1.0 <= SPECTRUM_SUM_TOL
        assert hermitian_eigenvalues(rho)[0].tobytes() == want.tobytes()

    def test_single_boost_row_below_zero(self):
        m = np.array([[0.9999999999010001, -1e-12]])
        assert len(checked(m)) == 1
        rho = rho_single_boost_general(math.pi / 4, m)
        assert math.isfinite(c_frobenius(hermitian_eigenvalues(rho))[0])
        assert_spectra_pass(rho)


class TestCheckedInputsGiveValidStates:
    """Construction accepts every state of checked inputs, and its spectrum passes."""

    @settings(max_examples=100, deadline=None)
    @given(theta=THETAS, rows=st.lists(MOMENT_ROW, min_size=1, max_size=8))
    def test_one_boost_moments(self, theta, rows):
        assert_spectra_pass(rho_single_boost_general(theta, np.array(rows)))

    @settings(max_examples=100, deadline=None)
    @given(theta=THETAS, rows=st.lists(st.tuples(MOMENT_ROW, MOMENT_ROW), min_size=1, max_size=8))
    def test_two_boost_moments(self, theta, rows):
        m1, m2 = (np.array(side) for side in zip(*rows))
        assert_spectra_pass(rho_dual_boost_general(theta, m1, m2))

    @settings(max_examples=60, deadline=None)
    @given(theta=THETAS, f=st.lists(GATED_F, min_size=1, max_size=8))
    def test_one_boost_factors(self, theta, f):
        assert_spectra_pass(rho_single_boost_perturbative(theta, np.array(f)))

    @settings(max_examples=60, deadline=None)
    @given(theta=THETAS, rows=st.lists(st.tuples(GATED_F, GATED_F), min_size=1, max_size=8))
    def test_two_boost_factors(self, theta, rows):
        f1, f2 = np.array(rows).T
        assume((f1 + f2 < 0.5).all())
        assert_spectra_pass(rho_dual_boost_perturbative(theta, f1, f2))

    def test_every_pair_of_edge_rows(self):
        # each pairing of the edge sums and edge i3 values that passes, at
        # the three named angles and a few others
        rows = checked([moment_row(total, i3) for total in EDGE_SUMS for i3 in EDGE_I3])
        assert len(rows) > 20
        m1, m2 = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
        for theta in (0.0, math.pi / 4, math.pi / 2, 0.3, 1.2):
            assert_spectra_pass(rho_single_boost_general(theta, rows))
            assert_spectra_pass(rho_dual_boost_general(theta, m1, m2))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows_at_the_edges(self, seed):
        # 2^15 pairs of rows with sums within 1e-13 of an edge or anywhere
        # inside, and i3 at or near the ends of its range
        rng = np.random.default_rng(seed)
        count = 2**15
        sign = rng.choice([-1.0, 1.0], (2, count))
        total = 1.0 + sign * np.where(
            rng.random((2, count)) < 0.5, NORM_TOL - rng.uniform(0.0, 1e-13, (2, count)),
            rng.uniform(0.0, NORM_TOL, (2, count)),
        )
        i3 = rng.choice([-MOMENT_TOL, 0.0, 1.0, 1.0 + MOMENT_TOL], (2, count))
        inside = rng.random((2, count)) < 0.5
        i3[inside] = rng.uniform(-MOMENT_TOL, 1.0 + MOMENT_TOL, inside.sum())
        m1, m2 = (np.stack([total[k] - i3[k], i3[k]], axis=1) for k in range(2))
        keep = ~(_moment_faults(m1) | _moment_faults(m2))
        assert keep.mean() > 0.3
        for theta in (0.0, math.pi / 4, math.pi / 2, rng.uniform(0.0, math.pi / 2)):
            assert_spectra_pass(rho_single_boost_general(theta, m2[keep]))
            assert_spectra_pass(rho_dual_boost_general(theta, m1[keep], m2[keep]))
