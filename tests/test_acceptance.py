"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and enforces the stated tolerance and, where given, the
stated runtime budget.
"""

import csv
import io
import math
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest

from boostcoh import (
    boost_from_beta,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    f_factor,
    hermitian_eigenvalues,
    moments_quadrature,
    rho_dual_boost_perturbative,
    rho_single_boost_perturbative,
)
from boostcoh.cli import figure_spec, main, write_sweep_csv

from oracles import (
    moments_at_order, mp_frobenius_from_spectrum, ptrace_reference, trapezoid_moments,
    x_matrices,
)

THETA_GRID = [k * math.pi / 24 for k in range(13)]  # 0, pi/12 steps.. pi/2
MOMENT_GRID = [
    (n, beta, eps)
    for n in (0, 1, 2, 4)
    for beta in (0.3, 0.8, 0.95)
    for eps in (0.01, 0.05, 0.1)
]


def col(*values) -> np.ndarray:
    """A column of F values, sigma/m values or spectra, one per point."""
    return np.array(values, dtype=float)


def quadrature(n, boost, eps, *args, **kwargs) -> tuple[float, float]:
    """(I1, I3) of one sigma/m, which must have converged."""
    values, errors = moments_quadrature(n, boost, col(eps), *args, **kwargs)
    assert errors.tolist() == [None]
    return tuple(values[0].tolist())


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    print(f"criterion {num:2d} PASS  {description}  [{time.perf_counter() - start:.2f}s]")


def test_criterion_01_l1_boost_invariance():
    with criterion(1, "l1 coherence equals sin(2 theta) for both boosted states"):
        start = time.perf_counter()
        single_factors = [0.0, 1e-4, 3.2756e-3, 0.05, 0.2, 0.49]
        dual_factors = [(0.0, 0.0), (0.002, 0.0), (0.003, 0.004), (0.2, 0.1), (0.24, 0.24)]
        for theta in THETA_GRID:
            expected = math.sin(2 * theta)
            for f in single_factors:
                rho = rho_single_boost_perturbative(theta, col(f))
                assert abs(c_l1(rho)[0] - expected) <= 1e-12
            for f1, f2 in dual_factors:
                rho = rho_dual_boost_perturbative(theta, col(f1), col(f2))
                assert abs(c_l1(rho)[0] - expected) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_single_boost_spectrum():
    with criterion(2, "Jacobi spectrum of the one-boost state is {F, 1-F, 0, 0}"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240501)
        for _ in range(200):
            theta = rng.uniform(0.0, math.pi / 2)
            f = rng.uniform(0.0, 0.499)
            rho = rho_single_boost_perturbative(theta, col(f))
            got = hermitian_eigenvalues(rho)[0].tolist()
            want = sorted((f, 1.0 - f, 0.0, 0.0), reverse=True)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-11
        assert time.perf_counter() - start < 1.0


def test_criterion_03_dual_boost_spectrum():
    with criterion(3, "Jacobi spectrum of the two-boost state matches the xi formulas"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240502)
        cases = []
        for _ in range(200):
            theta = rng.uniform(0.0, math.pi / 2)
            f1 = rng.uniform(0.0, 0.49)
            f2 = rng.uniform(0.0, 0.4999 - f1)
            cases.append((theta, f1, f2))
        # degenerate corner-block cases: cos(4 theta) = +/- 1
        for theta in (0.0, math.pi / 4, math.pi / 2):
            cases.append((theta, 0.01, 0.01))
            cases.append((theta, 0.002, 0.004))
        for theta, f1, f2 in cases:
            s = f1 + f2
            disc = f1 * f1 + f2 * f2 - 2 * f1 * f2 * math.cos(4 * theta)
            gap = math.sqrt(max(disc, 0.0))
            want = sorted((1.0 - s, s / 2 + gap / 2, s / 2 - gap / 2, 0.0), reverse=True)
            rho = rho_dual_boost_perturbative(theta, col(f1), col(f2))
            got = hermitian_eigenvalues(rho)[0].tolist()
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-11
        assert time.perf_counter() - start < 1.0


def test_criterion_04_perturbative_vs_exact_moments():
    with criterion(4, "quadrature I3 tracks F to fourth order and I2 vanishes"):
        start = time.perf_counter()
        for n, beta, eps in MOMENT_GRID:
            boost = boost_from_beta(beta)
            _, i3 = quadrature(n, boost, eps)
            f = f_factor(n, boost, col(eps))[0]
            assert abs(i3 - f) <= 10 * (2 * n + 1) * eps**4
            # I2 is not evaluated: on the same nodes it cancels term by term
            _, i2, _ = moments_at_order(n, col(eps), boost, 64)
            assert abs(i2[0]) <= 1e-13
        assert time.perf_counter() - start < 5.0


def test_criterion_05_frobenius_closed_form():
    with criterion(5, "Frobenius closed form and exact spectrum at the reference point"):
        neutron_eps = 100.0 / 939.36
        pert = c_frobenius_perturbative(2, (boost_from_beta(0.95),), col(neutron_eps))[0]
        assert pert == pytest.approx(0.995051, abs=1e-6)

        # exact-spectrum value at the matching mixing weight for
        # sigma/m = 0.1: frozen 50-digit evaluation of
        # sqrt((8/3) F^2 - (8/3) F + 1), recomputed here with mpmath
        f_tenth = f_factor(2, boost_from_beta(0.95), col(0.1))[0]
        exact_tenth = c_frobenius(col((1 - f_tenth, f_tenth, 0.0, 0.0)))[0]
        assert exact_tenth == pytest.approx(0.9956372901306723, abs=1e-6)
        assert exact_tenth == pytest.approx(
            float(mp_frobenius_from_spectrum((1 - f_tenth, f_tenth, 0.0, 0.0))), abs=1e-12
        )

        # the same check at the reference sigma = 100 MeV weight
        f_ref = f_factor(2, boost_from_beta(0.95), col(neutron_eps))[0]
        exact_ref = c_frobenius(col((1 - f_ref, f_ref, 0.0, 0.0)))[0]
        assert exact_ref == pytest.approx(0.9950565705558469, abs=1e-6)

        # truncation gap between the two routes, at matched weights
        assert abs(exact_ref - pert) <= 3 * f_ref**2
        pert_tenth = 1 - 4.0 / 3.0 * f_tenth
        assert abs(exact_tenth - pert_tenth) <= 3 * f_tenth**2


def test_criterion_06_limiting_cases():
    with criterion(6, "rest-frame coherence is exactly 1; v -> c hits the printed limits"):
        rest = boost_from_beta(0.0)
        assert c_frobenius_perturbative(2, (rest,), col(0.1)).tolist() == [1.0]
        assert c_frobenius_perturbative(2, (rest, rest), col(0.1)).tolist() == [1.0]

        light = boost_from_beta(1.0 - 1e-12)
        for n, eps in ((0, 0.05), (2, 0.1), (4, 0.1)):
            single = c_frobenius_perturbative(n, (light,), col(eps))[0]
            assert abs(single - (1 - (2 * n + 1) / 6 * eps**2)) <= 1e-6
            dual = c_frobenius_perturbative(n, (light, light), col(eps))[0]
            assert abs(dual - (1 - (2 * n + 1) / 3 * eps**2)) <= 1e-6


def test_criterion_07_n_range_enforcement():
    with criterion(7, "generalization exponent range: accept 299/149, reject 300/150/-1"):
        single = boost_from_beta(0.5)
        # the library gives NaN outside the range, the CLI exits 2
        assert 0.0 < c_frobenius_perturbative(299, (single,), col(0.1))[0] < 1.0
        assert np.isnan(c_frobenius_perturbative(300, (single,), col(0.1))).all()
        assert 0.0 < c_frobenius_perturbative(149, (single, single), col(0.1))[0] < 1.0
        assert np.isnan(c_frobenius_perturbative(150, (single, single), col(0.1))).all()

        base = ["coherence", "--scenario", "single", "--beta", "0.5",
                "--sigma", "0.1", "--mass", "1.0", "--method", "perturbative"]
        dual = ["coherence", "--scenario", "dual", "--beta1", "0.5", "--beta2", "0.5",
                "--sigma", "0.1", "--mass", "1.0", "--method", "perturbative"]
        sink, err = io.StringIO(), io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            assert main([*base, "--n", "-1"]) == 2  # rejected at parse level
            assert main([*base, "--n", "299"]) == 0
            assert main([*dual, "--n", "149"]) == 0
        with redirect_stdout(sink), redirect_stderr(err):
            assert main([*base, "--n", "300"]) == 2
            assert main([*dual, "--n", "150"]) == 2
        assert err.getvalue().count("outside the allowed range") == 2
        with pytest.raises(ValueError, match="n must be nonnegative"):
            f_factor(-1, single, col(0.1))


def test_criterion_08_single_particle_reductions():
    with criterion(8, "partial traces reproduce the three diagonal reductions"):
        dual_pairs = [(0.0, 0.0), (0.01, 0.02), (0.2, 0.1), (0.3, 0.15)]
        for theta in THETA_GRID:
            s2 = math.sin(theta) ** 2
            c2 = math.cos(theta) ** 2
            cos2t = math.cos(2 * theta)
            for f in (0.0, 0.01, 0.1, 0.3, 0.49):
                rho = rho_single_boost_perturbative(theta, col(f))
                red = ptrace_reference(x_matrices(rho.blocks)[0], "first")
                want = np.diag([s2 + cos2t * f, c2 - cos2t * f])
                assert np.max(np.abs(red - want)) <= 1e-12
            for f1, f2 in dual_pairs:
                rho = rho_dual_boost_perturbative(theta, col(f1), col(f2))
                first = ptrace_reference(x_matrices(rho.blocks)[0], "first")
                want1 = np.diag([s2 + cos2t * f2, c2 - cos2t * f2])
                assert np.max(np.abs(first - want1)) <= 1e-12
                second = ptrace_reference(x_matrices(rho.blocks)[0], "second")
                want2 = np.diag([c2 - cos2t * f1, s2 + cos2t * f1])
                assert np.max(np.abs(second - want2)) <= 1e-12
        # maximal entanglement hides the boost entirely
        for f in (0.0, 0.1, 0.49):
            rho = rho_single_boost_perturbative(math.pi / 4, col(f))
            red = ptrace_reference(x_matrices(rho.blocks)[0], "first")
            assert np.max(np.abs(red - np.diag([0.5, 0.5]))) <= 1e-12


def _read_series(path):
    """CSV -> {beta: [(sigma, cf_pert, cf_exact)]} sorted by sigma."""
    series = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = float(row["beta1"])
            series.setdefault(key, []).append(
                (float(row["sigma_mev"]),
                 float(row["c_f_perturbative"]),
                 float(row["c_f_exact_eig"]))
            )
    for rows in series.values():
        rows.sort()
    return series


def test_criterion_09_figure_reproduction(tmp_path):
    with criterion(9, "figure data: monotone decay, beta ordering, doubled deficits"):
        start = time.perf_counter()
        fig1 = tmp_path / "fig1.csv"
        fig2 = tmp_path / "fig2.csv"
        write_sweep_csv(figure_spec("fig1"), fig1)
        write_sweep_csv(figure_spec("fig2"), fig2)

        series1 = _read_series(fig1)
        assert sorted(series1) == [0.0, 0.3, 0.8, 0.95]
        for beta, rows in series1.items():
            values_pert = [r[1] for r in rows]
            values_exact = [r[2] for r in rows]
            if beta == 0.0:
                assert all(v == 1.0 for v in values_pert)
                assert all(v == 1.0 for v in values_exact)
            else:
                assert all(a > b for a, b in zip(values_pert, values_pert[1:]))
                assert all(a > b for a, b in zip(values_exact, values_exact[1:]))
        # ordering by boost at every sigma > 0
        for i in range(len(series1[0.0])):
            assert (
                series1[0.95][i][1] < series1[0.8][i][1]
                < series1[0.3][i][1] < series1[0.0][i][1] == 1.0
            )

        series2 = _read_series(fig2)
        for beta in (0.0, 0.3, 0.8, 0.95):
            ones = series2[beta]
            for (s1, cf1, _), (s2, cf2, _) in zip(series1[beta], ones):
                assert s1 == s2
                deficit1 = 1.0 - cf1
                deficit2 = 1.0 - cf2
                # the doubling is exact up to the final rounding of c_F
                # against 1 (one ulp near 1 is 2^-53)
                assert abs(deficit2 - 2.0 * deficit1) <= 2.0**-52
        assert time.perf_counter() - start < 10.0


def test_criterion_10_quadrature_self_consistency():
    with criterion(10, "fixed orders 96/128 agree and match the trapezoid oracle"):
        for n, beta, eps in MOMENT_GRID:
            boost = boost_from_beta(beta)
            m96 = quadrature(n, boost, eps, 96, adaptive=False)
            m128 = quadrature(n, boost, eps, 128, adaptive=False)
            # I2 on the same nodes, from the contraction over every node
            odd96, odd128 = (moments_at_order(n, col(eps), boost, k)[1][0] for k in (96, 128))
            i1_96, i3_96 = m96
            i1_128, i3_128 = m128
            for a, b in ((i1_96, i1_128), (odd96, odd128), (i3_96, i3_128)):
                assert abs(a - b) / max(1.0, abs(b)) <= 1e-12
            t1, t2, t3 = trapezoid_moments(n, beta, eps)
            for got, want in ((i1_128, t1), (odd128, t2), (i3_128, t3)):
                assert abs(got - want) <= 1e-9
            assert abs(i1_96 - t1) <= 1e-9 and abs(i3_96 - t3) <= 1e-9
