"""Tests for the shared domain types."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import boostcoh
from boostcoh import (
    BoostParams,
    DensityMatrix,
    boost_from_beta,
    gauss_hermite_nodes,
)
from boostcoh.cli import main
from boostcoh.core import check_theta

from oracles import X_PAIRS, gamma_half_integer, mp_boost, psi_amplitude, x_matrices


def test_public_names_resolve():
    assert [name for name in boostcoh.__all__ if not hasattr(boostcoh, name)] == []


class TestBoostFromBeta:
    def test_identity_boost(self):
        b = boost_from_beta(0.0)
        assert b.alpha == 0.0
        assert b.sinh_alpha == 0.0
        assert b.cosh_alpha == 1.0

    # 50-digit mpmath values of 1/sqrt((1-beta)(1+beta)) and beta * cosh.
    @pytest.mark.parametrize(
        "beta, cosh, sinh",
        [
            (0.95, 3.2025630761017413, 3.0424349222966541),
            (0.3, 1.0482848367219183, 0.3144854510165755),
        ],
    )
    def test_frozen_values(self, beta, cosh, sinh):
        b = boost_from_beta(beta)
        assert b.cosh_alpha == pytest.approx(cosh, rel=1e-14)
        assert b.sinh_alpha == pytest.approx(sinh, rel=1e-14)

    def test_matches_mpmath_oracle(self):
        for beta in (0.1, 0.5, 0.8, 0.99, 1 - 1e-12):
            b = boost_from_beta(beta)
            alpha, sinh, cosh = mp_boost(beta)
            assert b.cosh_alpha == pytest.approx(float(cosh), rel=1e-13)
            assert b.sinh_alpha == pytest.approx(float(sinh), rel=1e-13)
            assert b.alpha == pytest.approx(float(alpha), rel=1e-13)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5, math.inf])
    def test_domain_errors(self, beta):
        with pytest.raises(ValueError):
            boost_from_beta(beta)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_hyperbolic_identity(self, beta):
        # the literal difference of squares is representable up to here
        b = boost_from_beta(beta)
        assert b.cosh_alpha >= 1.0
        hyper = (b.cosh_alpha - b.sinh_alpha) * (b.cosh_alpha + b.sinh_alpha)
        assert hyper == pytest.approx(1.0, abs=1e-12)

    def test_ultrarelativistic_construction(self):
        # beta one ulp below 1 must still construct (v -> c limiting case)
        b = boost_from_beta(math.nextafter(1.0, 0.0))
        assert b.cosh_alpha > 1e7

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(0.0)
    @example(5e-324)
    @example(math.nextafter(1.0, 0.0))
    def test_fields_are_the_closed_expressions(self, beta):
        # bit for bit: cosh = 1/sqrt((1 - beta)(1 + beta)), sinh = beta cosh,
        # alpha = atanh(beta)
        b = BoostParams(beta)
        cosh = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        want = (beta, math.atanh(beta), beta * cosh, cosh)
        assert [v.hex() for v in (b.beta, b.alpha, b.sinh_alpha, b.cosh_alpha)] == [
            v.hex() for v in want
        ]

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError, match=r"^beta must satisfy 0 <= beta < 1, got 1.0$"):
            BoostParams(1.0)

    def test_inconsistent_fields_rejected(self):
        # only beta is given: the derived fields cannot be passed at all
        with pytest.raises(TypeError, match="alpha"):
            BoostParams(0.5, alpha=0.2)
        with pytest.raises(TypeError):
            BoostParams(beta=0.5, alpha=0.2, sinh_alpha=1.0, cosh_alpha=1.5)


# A wave packet p^n exp(-p^2 / 2 sigma^2) has no type of its own: the CLI
# checks n, sigma and mass, and the momentum amplitude is a test oracle.
class TestWavePacket:
    def test_valid(self, capsys):
        assert main(["coherence", "--beta", "0.5", "--n", "2", "--sigma", "100",
                     "--mass", "939.36"]) == 0
        report = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        assert float(report["sigma_over_m"]) == 100.0 / 939.36

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # argparse reads --n as an int, and the library checks it
            (dict(n=-1, sigma=1.0, mass=1.0), "error: n must be nonnegative, got -1"),
            (dict(n=0.5, sigma=1.0, mass=1.0), "argument --n: invalid int value: '0.5'"),
            (dict(n=0, sigma=0.0, mass=1.0), "sigma must be positive and finite, got 0.0"),
            (dict(n=0, sigma=1.0, mass=-2.0), "mass must be positive and finite, got -2.0"),
            (dict(n=2, sigma=math.nan, mass=1.0), "sigma must be positive and finite, got nan"),
            (dict(n=2, sigma=1.0, mass=math.inf), "mass must be positive and finite, got inf"),
        ],
        ids=[f"kwargs{i}" for i in range(6)],
    )
    def test_rejects_invalid(self, kwargs, message, capsys):
        argv = ["coherence", "--beta", "0.5", *(f"--{k}={v}" for k, v in kwargs.items())]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("n,sigma,mass", [(0, 1.0, 1.0), (1, 0.5, 2.0),
                                              (3, 100.0, 939.36), (6, 7.0, 10.0)])
    def test_unit_norm(self, n, sigma, mass):
        # integral |psi|^2 dp via Gauss-Hermite in kappa = p/sigma: the
        # e^{+kappa^2} factor undoes the weight already inside |psi|^2.
        # The mass does not enter the amplitude.
        kappa, w = gauss_hermite_nodes(64)
        values = psi_amplitude(n, sigma, sigma * kappa)
        norm = float(np.sum(w * values**2 * sigma * np.exp(kappa**2)))
        assert norm == pytest.approx(1.0, abs=1e-10)


# The momentum amplitude and Gamma(k + 1/2) are test oracles; these tests
# pin the oracles themselves.
class TestPsiAmplitude:
    def test_plain_gaussian_peak(self):
        # Gamma(1/2) = sqrt(pi) makes psi(0) = pi^(-1/4).
        assert psi_amplitude(0, 1.0, 0.0) == pytest.approx(0.7511255444649425, rel=1e-14)

    def test_zero_momentum_vanishes_for_positive_n(self):
        assert psi_amplitude(1, 1.0, 0.0) == 0.0

    def test_generalized_value(self):
        # 4 e^(-1/2) / sqrt(2^5 Gamma(5/2)), evaluated with mpmath.
        assert psi_amplitude(2, 2.0, 2.0) == pytest.approx(0.3719800610340088, rel=1e-13)

    def test_odd_n_is_odd(self):
        assert psi_amplitude(3, 2.0, -1.3) == pytest.approx(-psi_amplitude(3, 2.0, 1.3), rel=1e-15)

    def test_array_input(self):
        values = psi_amplitude(2, 2.0, np.array([0.0, 2.0]))
        assert values.shape == (2,)
        assert values[1] == pytest.approx(0.3719800610340088, rel=1e-13)


class TestGammaHalfInteger:
    def test_base_case(self):
        assert gamma_half_integer(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_recurrence_values(self):
        # Gamma(5/2) = 3 sqrt(pi)/4 and Gamma(11/2) = 945 sqrt(pi)/32.
        assert gamma_half_integer(2) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-14)
        assert gamma_half_integer(5) == pytest.approx(945 * math.sqrt(math.pi) / 32, rel=1e-14)
        assert gamma_half_integer(5) == pytest.approx(52.34277778455352, rel=1e-13)

    @pytest.mark.parametrize("k", range(0, 40, 3))
    def test_against_math_gamma(self, k):
        assert gamma_half_integer(k) == pytest.approx(math.gamma(k + 0.5), rel=1e-12)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_half_integer(200)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gamma_half_integer(-1)
        with pytest.raises(ValueError):
            gamma_half_integer(1.5)


class TestCheckTheta:
    def test_range(self):
        check_theta(0.0)
        check_theta(math.pi / 2)
        for bad in (-0.1, 2.0, math.nan):
            with pytest.raises(ValueError, match="theta"):
                check_theta(bad)


def state(corner=(1.0, 0.0, 0.0), inner=(0.0, 0.0, 0.0)) -> np.ndarray:
    """One X-state's blocks: the (a, d, c) of the block on (|00>, |11>), then on (|01>, |10>)."""
    return np.array([corner, inner], dtype=float)


def verdict(blocks) -> ValueError | None:
    """The error of one state validated in a stack of its own, or None."""
    try:
        DensityMatrix(np.asarray(blocks)[None])
    except ValueError as error:
        return error
    return None


def assert_rejected(blocks, message: str) -> None:
    with pytest.raises(ValueError, match=message):
        DensityMatrix(np.asarray(blocks)[None])


class TestDensityMatrix:
    def test_valid_pure_state(self):
        rho = DensityMatrix(state((1.0, 0.0, 0.0))[None])
        assert rho.blocks.shape == (1, 2, 3)
        assert rho.blocks.dtype == np.float64 and not rho.blocks.flags.writeable

    def test_rejects_wrong_trace(self):
        # diag(0.7, 0.7, 0, 0): 0.7 on |00> and on |01>
        assert_rejected(state((0.7, 0.0, 0.0), (0.7, 0.0, 0.0)), "trace")

    def test_trace_error_prints_a_real_number(self):
        with pytest.raises(ValueError) as info:
            DensityMatrix(state((0.7, 0.0, 0.0), (0.7, 0.0, 0.0))[None])
        assert str(info.value) == "trace = 1.4, expected 1 within 2e-10 at point 0"

    def test_rejects_negative_eigenvalue(self):
        assert_rejected(state((0.6, 0.4, 0.55)), "semidefinite")

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.3, 0.2])[None])

    def test_stack_reports_each_verdict(self):
        stack = np.stack([
            state((0.4, 0.1, 0.0), (0.3, 0.2, 0.0)),
            state((0.7, 0.0, 0.0), (0.7, 0.0, 0.0)),
            state((0.6, 0.4, 0.55)),
            np.full((2, 3), np.nan),
        ])
        assert verdict(stack[0]) is None
        # the first bad state raises, with its own error and its point
        for k in range(1, len(stack)):
            alone = str(verdict(stack[k]))
            assert alone.endswith(" at point 0")
            with pytest.raises(ValueError) as info:
                DensityMatrix(stack[[0, k, *range(k + 1, len(stack))]])
            assert str(info.value) == alone.replace(" at point 0", " at point 1")
        assert "trace = nan" in str(verdict(stack[3]))  # NaN fails the checks
        with pytest.raises(ValueError, match="trace = 1.4, .* at point 1"):
            DensityMatrix(stack)

    def test_rejects_complex_blocks(self):
        blocks = state((0.5, 0.0, 0.0), (0.3, 0.2, 0.0)).astype(np.complex128)
        blocks[0, 2] = 0.1j  # would validate as a zero pivot once cast to float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="blocks must be real"):
                DensityMatrix(blocks[None])

    def test_rejects_bad_stack_shape(self):
        with pytest.raises(ValueError, match=r"points x 2 x 3"):
            DensityMatrix(np.zeros((2, 2, 4, 4)))

    # The first four columns are diagonal entries, which the trace check
    # sees; a pivot only reaches the PSD check.
    @pytest.mark.parametrize("column, message", [
        (0, "trace"), (1, "trace"), (2, "semidefinite"),
        (3, "trace"), (4, "trace"), (5, "semidefinite"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_entry_is_an_error(self, column, message, bad):
        blocks = state((0.4, 0.2, 0.1), (0.3, 0.1, -0.05))
        DensityMatrix(blocks[None])  # valid until one entry is spoiled
        blocks.flat[column] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rejected(blocks, message)


def x_block_state(least: float, block: int, angle: float, rest=(0.3, 0.2)) -> np.ndarray:
    """The blocks of a trace-one X-state whose least eigenvalue is ``least``.

    The block on (|00>, |11>) (``block`` 0) or on (|01>, |10>) (``block``
    1) has eigenvalues ``least`` and 0.5 - least turned by ``angle``; the
    other block is diagonal with ``rest``.
    """
    c, s = math.cos(angle), math.sin(angle)
    lo, hi = least, 0.5 - least
    blocks = np.zeros((2, 3))
    blocks[block] = c * c * lo + s * s * hi, s * s * lo + c * c * hi, c * s * (hi - lo)
    blocks[1 - block, :2] = rest
    return blocks


class TestXStateValidation:
    """The PSD verdict of an X-state in closed form, as eigvalsh gives it on the 4x4 matrix."""

    @staticmethod
    def eigvalsh_verdicts(stack):
        return (np.linalg.eigvalsh(x_matrices(stack)).min(axis=-1) >= -1e-10).tolist()

    def test_verdicts_at_the_tolerance(self):
        stack = np.stack([
            x_block_state(least, block, angle)
            for least in (-1e-10 - 1e-12, -1e-10 + 1e-12, -1e-9, 0.0, 1e-12)
            for block in (0, 1)
            for angle in (0.0, 0.3, math.pi / 4, 1.2)
        ])
        want = self.eigvalsh_verdicts(stack)
        assert want.count(False) == 2 * 2 * 4  # -1e-10 - 1e-12 and -1e-9 fail
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            assert [verdict(blocks) is None for blocks in stack] == want
            with pytest.raises(ValueError, match=f"at point {want.index(False)}$"):
                DensityMatrix(stack)
        for blocks, ok in zip(stack, want):
            if not ok:
                assert_rejected(blocks, "semidefinite")

    def test_verdicts_on_random_states(self):
        rng = np.random.default_rng(20261018)
        count = 8192
        d = rng.uniform(0.0, 1.0, (count, 4))
        d /= d.sum(axis=1, keepdims=True)
        stack = np.zeros((count, 2, 3))
        for k, (p, q) in enumerate(X_PAIRS):
            stack[:, k, 0], stack[:, k, 1] = d[:, p], d[:, q]
            # up to 1.01 of the PSD limit, so some states fail
            stack[:, k, 2] = rng.uniform(-1.01, 1.01, count) * np.sqrt(d[:, p] * d[:, q])
        want = self.eigvalsh_verdicts(stack)
        assert 0 < want.count(False) < count
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            assert [verdict(blocks) is None for blocks in stack] == want
            with pytest.raises(ValueError, match=f"at point {want.index(False)}$"):
                DensityMatrix(stack)

    # a lone state, a 4x4 stack, a 2x2 stack and blocks of the wrong width
    @pytest.mark.parametrize("shape", [(2, 3), (3, 4, 4), (3, 2, 2), (3, 3, 2)])
    def test_only_block_stacks(self, shape):
        blocks = np.zeros(shape)
        blocks[..., 0, 0] = 1.0
        with pytest.raises(ValueError, match=r"blocks must be a \(points x 2 x 3\) stack"):
            DensityMatrix(blocks)
