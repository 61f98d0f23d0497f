"""Integration tests for the command-line interface."""

import builtins
import contextlib
import csv
import io
import itertools
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcoh import (
    DensityMatrix, boost_from_beta, c_frobenius, c_frobenius_perturbative, c_l1, f_factor,
    hermitian_eigenvalues, moments_quadrature, n_bounds, rho_dual_boost_general,
    rho_dual_boost_perturbative, rho_single_boost_general, rho_single_boost_perturbative,
    spectrum_dual_boost, spectrum_single_boost,
)
from boostcoh import cli, density, integrals
from boostcoh.cli import CSV_HEADER, SweepSpec, build_parser, figure_spec, main, run_sweep
from boostcoh.coherence import _spectrum_faults
from boostcoh.integrals import check_factor_sum, check_n_in_bounds

import oracles

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def parse_report(output: str) -> dict:
    values = {}
    for line in output.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            values[parts[0]] = parts[1].strip()
    return values


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestWignerCommand:
    def test_reference_point(self, capsys):
        assert main(["wigner", "--beta", "0.95", "--p-over-m", "1"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["cos2_half"]) == pytest.approx(0.9174974086627170, rel=1e-13)
        assert float(report["sin2_half"]) == pytest.approx(0.0825025913372830, rel=1e-12)
        assert float(report["sincos_half"]) == pytest.approx(0.2751289038976390, rel=1e-13)

    @pytest.mark.parametrize("args", [["--beta", "0", "--p-over-m", "5"],
                                      ["--beta", "0.7", "--p-over-m", "0"]])
    def test_trivial_points(self, args, capsys):
        assert main(["wigner", *args]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["cos2_half"]) == 1.0
        assert float(report["sin2_half"]) == 0.0
        assert float(report["phi_rad"]) == 0.0

    def test_domain_error_exit_code(self, capsys):
        assert main(["wigner", "--beta", "1.2", "--p-over-m", "1"]) == 2
        assert "beta" in capsys.readouterr().err
        for p_over_m in ("nan", "inf", "-inf"):
            assert main(["wigner", "--beta", "0.5", f"--p-over-m={p_over_m}"]) == 2
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("p_over_m", ["1e300", "-1e300"])
    def test_overflowing_momentum_prints_one_error_line(self, p_over_m):
        # numpy would print its overflow RuntimeWarning, with a source path
        result = subprocess.run(
            [sys.executable, "-m", "boostcoh.cli", "wigner", "--beta", "0.5",
             f"--p-over-m={p_over_m}"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "finite" in line

    def test_missing_flag_exit_code(self, capsys):
        assert main(["wigner", "--beta", "0.5"]) == 2

    @pytest.mark.parametrize("key", ["p_over_m", "p-over-m"])
    def test_config_key_dashes_or_underscores(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"beta = 0.95\n{key} = 1\n", encoding="utf-8")
        assert main(["wigner", "--config", str(cfg)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["cos2_half"]) == pytest.approx(0.9174974086627170, rel=1e-13)


class TestCoherenceCommand:
    def test_reference_point(self, capsys):
        code = main([
            "coherence", "--theta", "0.7853982",
            "--beta", "0.95", "--sigma", "100", "--mass", "939.36",
            "--n", "2", "--method", "perturbative",
        ])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["c_F"]) == pytest.approx(0.995051, abs=1e-6)
        assert float(report["c_l1"]) == pytest.approx(1.0, abs=1e-12)
        assert float(report["F1"]) == pytest.approx(3.71218836507159e-3, rel=1e-12)

    def test_rest_frame(self, capsys):
        code = main([
            "coherence", "--theta", "0.5",
            "--beta", "0", "--sigma", "50", "--mass", "939.36", "--n", "2",
        ])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["c_F"]) == 1.0
        assert float(report["c_l1"]) == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_dual_scenario_all_methods(self, capsys):
        for method in ("perturbative", "exact-eig", "quadrature"):
            code = main([
                "coherence", "--beta", "0.95:0.8", "--sigma", "100", "--mass", "939.36",
                "--n", "2", "--method", method,
            ])
            assert code == 0
            report = parse_report(capsys.readouterr().out)
            assert 0.98 < float(report["c_F"]) <= 1.0
            assert "F2" in report

    def test_negative_n_rejected_at_parse(self, capsys):
        code = main([
            "coherence", "--beta", "0.5",
            "--sigma", "10", "--mass", "100", "--n", "-1",
        ])
        assert code == 2
        assert "n > -1/2" in capsys.readouterr().err

    # The quadrature picks its own order, so the order flags are gone: each
    # exits 2 as an unrecognized argument, whatever its value.
    def test_zero_quad_order_rejected(self, capsys):
        code = main([
            "coherence", "--beta", "0.95",
            "--sigma", "100", "--mass", "939.36", "--n", "2",
            "--method", "quadrature", "--quad-order", "0",
        ])
        assert code == 2
        assert "unrecognized arguments: --quad-order 0" in capsys.readouterr().err

    @pytest.mark.parametrize("max_order", ["0", "8", "1000"])
    def test_quad_max_order_out_of_range_rejected(self, max_order, capsys):
        code = main([
            "coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36",
            "--method", "quadrature", "--quad-max-order", max_order,
        ])
        assert code == 2
        assert f"unrecognized arguments: --quad-max-order {max_order}" in capsys.readouterr().err

    def test_quadrature_tolerance_exit_code(self, capsys):
        # at n = 200 orders 128 and 256 differ by 2.9e-4
        code = main([
            "coherence", "--beta", "0.3",
            "--sigma", "0.9", "--mass", "939.36", "--n", "200", "--method", "quadrature",
        ])
        assert code == 3
        assert "did not converge by order 256: delta 2.928e-04" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", [["--quad-order", "256"], ["--quad-max-order", "16"],
                                        ["--quad-order", "64", "--quad-max-order", "64"]])
    def test_max_order_below_twice_order_rejected(self, orders, capsys):
        code = main([
            "coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36",
            "--method", "quadrature", *orders,
        ])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(orders)}" in capsys.readouterr().err

    def test_crude_estimate_exit_code(self, capsys):
        # Orders up to 256 cannot integrate kappa^598; it is still an
        # unconverged quadrature, not a usage error.
        code = main([
            "coherence", "--method", "quadrature", "--n", "299", "--beta", "0.5",
            "--sigma", "10", "--mass", "939.36",
        ])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_perturbative_validity_rejected(self, capsys):
        # sigma/m >= 1 is outside the expansion's domain
        code = main([
            "coherence", "--beta", "0.5",
            "--sigma", "200", "--mass", "100", "--n", "2",
        ])
        assert code == 2

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference point\n"
            "beta = 0.95\n"
            "sigma = 100\n"
            "mass = 939.36\n"
            "n = 2\n"
            "method = perturbative\n",
            encoding="utf-8",
        )
        assert main(["coherence", "--config", str(cfg)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["c_F"]) == pytest.approx(0.995051, abs=1e-6)

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.95\nsigma = 100\nmass = 939.36\n", encoding="utf-8")
        assert main(["coherence", "--config", str(cfg), "--beta", "0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["c_F"]) == 1.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity = 0.95\n", encoding="utf-8")
        assert main(["coherence", "--config", str(cfg)]) == 2

    POINT = "beta = 0.5\nsigma = 100\nmass = 939.36\n"

    @pytest.mark.parametrize(
        "config, message",
        [
            (POINT + "beta = 0.7\n", "run.cfg:4: key 'beta' is already set on line 1"),
            ("quad_order = 16\n" + POINT + "quad-order = 32\n",
             "run.cfg:5: key 'quad-order' is already set on line 1"),
            (POINT + "config = other.cfg\n",
             "run.cfg:4: key 'config' cannot name another config file"),
            ("conf = other.cfg\n" + POINT,
             "run.cfg:1: key 'conf' cannot name another config file"),
            ("sigma = 100\nsig = 200\nbeta = 0.5\nmass = 939.36\n",
             "run.cfg:2: key 'sig' is already set on line 1"),
            ("sig = 200\nbeta = 0.5\nmass = 939.36\nsigma = 100\n",
             "run.cfg:4: key 'sigma' is already set on line 1"),
        ],
        ids=["repeated-key", "repeated-after-normalisation", "nested-config",
             "nested-config-prefix", "repeated-through-prefix", "prefix-then-full-name"],
    )
    def test_conflicting_config_rejected(self, config, message, tmp_path, capsys):
        # Neither value may silently win: not the last of a repeated key, nor
        # the command line's --config over a nested one.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        (tmp_path / "other.cfg").write_text("beta = 0.9\n", encoding="utf-8")
        assert main(["coherence", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}/{message}\n"

    SWEEP_KEYS = "n = 2\nmass = 939.36\nsigma_min = 1\nsigma_max = 2\nsteps = 2\nbetas = 0.5\n"
    POINT_KEYS = "beta = 0.5\nsigma = 100\nmass = 939.36\n"

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["sweep"], SWEEP_KEYS + "scenario = triple\n"),
            (["coherence"], POINT_KEYS + "method = foo\n"),
            (["sweep"], SWEEP_KEYS + "sigma = 100\n"),
            (["figure", "fig1"], "quad_order = 16\n"),
            (["sweep"], SWEEP_KEYS + "methods =\n"),
            (["wigner"], "beta = 0.5\np_over_m = 1\nn = 2\n"),
        ],
        ids=["bad-scenario", "bad-method", "sweep-sigma", "figure-quad-order",
             "empty-methods", "wigner-n"],
    )
    def test_config_checked_like_flags(self, argv, config, tmp_path, capsys):
        # Config lines are parsed as the subcommand's own flags: bad choices,
        # empty lists and keys the subcommand lacks are usage errors.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = [*argv, "--config", str(cfg)]
        if argv[0] in ("sweep", "figure"):
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    GRID = ["--n", "2", "--mass", "939.36", "--sigma-min", "1", "--sigma-max", "2", "--steps", "2"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, key, value, message",
        [
            (["coherence", "--beta", "0.5:0.5", "--sigma", "100", "--mass", "939.36"],
             "beta1", "0.9", "unrecognized arguments: --beta1"),
            (["coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36"],
             "scenario", "single", "unrecognized arguments: --scenario"),
            (["sweep", "--betas", "0.5:0.5", *GRID], "beta-pairs", "0.3:0.6",
             "not allowed with argument --b"),
            (["sweep", "--betas", "0.9", *GRID], "scenario", "dual",
             "--scenario dual needs every --betas item in the form b1:b2"),
        ],
        ids=["coherence-dual", "coherence-single", "sweep-dual", "sweep-single"],
    )
    def test_other_scenario_betas_rejected(self, argv, key, value, message, source, tmp_path,
                                           capsys):
        # A beta configuration has one spelling.  Coherence's old scenario flags
        # are unrecognized, and sweep's two old spellings may not contradict
        # it, whether they come from the command line or from a config file.
        if source == "flag":
            argv = [*argv, f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        out = tmp_path / "out.csv"
        if argv[0] == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    SMALL = [
        "sweep", "--n", "2", "--mass", "939.36",
        "--sigma-min", "1", "--sigma-max", "2", "--steps", "2", "--betas", "0.0,0.3",
    ]

    def test_row_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--n", "2", "--mass", "939.36",
            "--sigma-min", "1", "--sigma-max", "2", "--steps", "2",
            "--betas", "0.0,0.3,0.95", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == CSV_HEADER
        assert len(rows) == 2 * 3
        # single scenario leaves beta2 and f2 empty
        assert all(row[2] == "" and row[10] == "" for row in rows)

    def test_rows_sorted_by_sigma_then_beta(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--n", "1", "--mass", "100",
            "--sigma-min", "1", "--sigma-max", "3", "--steps", "3",
            "--betas", "0.8,0.0,0.3", "--out", str(out),
        ])
        _, rows = read_csv(out)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    @staticmethod
    def one_point_line(spec, sigma, betas):
        """A sweep's CSV line for one point, from one-point calls alone."""
        eps = np.array([sigma / spec.mass])
        boosts = [boost_from_beta(b) for b in betas]
        factors = [f_factor(spec.n, b, eps) for b in boosts]
        single = len(boosts) == 1
        values = dict.fromkeys(CSV_HEADER[5:])
        if "perturbative" in spec.methods:
            values["c_f_perturbative"] = c_frobenius_perturbative(spec.n, boosts, eps)[0]
        if "exact-eig" in spec.methods:
            closed = (spectrum_single_boost if single else spectrum_dual_boost)
            values["c_f_exact_eig"] = c_frobenius(closed(spec.theta, *factors))[0]
        if "quadrature" in spec.methods:
            moments = [moments_quadrature(spec.n, b, eps) for b in boosts]
            assert all(errors.tolist() == [None] for _, errors in moments)
            general = rho_single_boost_general if single else rho_dual_boost_general
            rho = general(spec.theta, *(values for values, _ in moments))
            values["c_f_quadrature"] = c_frobenius(hermitian_eigenvalues(rho))[0]
        else:
            closed = rho_single_boost_perturbative if single else rho_dual_boost_perturbative
            rho = closed(spec.theta, *factors)
        values["c_l1"] = c_l1(rho)[0]
        values["f1"] = factors[0][0]
        values["f2"] = None if single else factors[1][0]
        values = {k: None if v is None else v.item() for k, v in values.items()}
        fields = [sigma, *betas, *([None] if single else []), spec.theta, *values.values()]
        fields = ["" if v is None else repr(v) for v in fields]
        fields.insert(3, str(spec.n))
        return ",".join(fields)

    ROUND_TRIP_CASES = [
        # an asymmetric and a symmetric pair: f1 and f2 share their text on the latter
        (((0.95, 0.8), (0.3, 0.3)), ("perturbative", "exact-eig", "quadrature")),
        (((0.5, 0.5), (0.0, 0.9)), ("exact-eig",)),
        # f2 empty, and the exact-eig column with it
        (((0.6,), (0.0,)), ("perturbative", "quadrature")),
    ]

    def test_round_trip_bit_for_bit(self, tmp_path, capsys):
        for betas, methods in self.ROUND_TRIP_CASES:
            spec = SweepSpec(
                theta=0.6, n=2, mass=939.36, sigma_grid=(10.0, 250.0, 5),
                betas=betas, methods=methods,
            )
            lines = list(run_sweep(spec))
            expected = [
                self.one_point_line(spec, sigma, cfg)
                for sigma in spec.sigmas(0, 5)
                for cfg in sorted(betas)
            ]
            assert lines == expected
            out = tmp_path / f"{len(betas[0])}-{len(methods)}.csv"
            assert main([
                "sweep", "--theta", "0.6", "--n", "2",
                "--mass", "939.36", "--sigma-min", "10", "--sigma-max", "250", "--steps", "5",
                "--betas", ",".join(":".join(map(str, cfg)) for cfg in betas),
                "--methods", ",".join(methods), "--out", str(out),
            ]) == 0
            assert out.read_text(encoding="utf-8") == "".join(
                line + "\n" for line in [",".join(CSV_HEADER), *lines]
            )

    @pytest.mark.parametrize("spelling", [
        ["--beta-pairs", "0.3:0.95,0.8:0.8"],
        ["--scenario", "dual", "--beta-pairs", "0.3:0.95,0.8:0.8"],
        ["--scenario", "dual", "--betas", "0.3:0.95,0.8:0.8"],
    ], ids=["beta-pairs", "dual-beta-pairs", "dual-betas"])
    def test_old_spellings_write_the_same_bytes(self, spelling, tmp_path, capsys):
        # --beta-pairs is the old name of --betas, and --scenario only checks
        # the form of the items
        grid = ["sweep", "--n", "2", "--mass", "939.36", "--sigma-min", "10", "--sigma-max",
                "250", "--steps", "5", "--methods", "perturbative,exact-eig,quadrature"]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        assert main([*grid, "--betas", "0.3:0.95,0.8:0.8", "--out", str(new)]) == 0
        assert main([*grid, *spelling, "--out", str(old)]) == 0
        assert old.read_bytes() == new.read_bytes()

    def test_truncation_gap_between_methods(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--n", "2", "--mass", "939.36",
            "--sigma-min", "10", "--sigma-max", "150", "--steps", "8",
            "--betas", "0.3,0.95", "--methods", "perturbative,exact-eig",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        for row in rows:
            f1 = float(row[9])
            assert abs(float(row[7]) - float(row[6])) <= 3 * f1**2 + 1e-15

    def test_empty_methods_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main([*self.SMALL, "--methods", "", "--out", str(out)]) == 2
        assert "--methods" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--n", "2", "--mass", "939.36",
            "--sigma-min", "0", "--sigma-max", "2", "--steps", "2",
            "--betas", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_missing_directory_names_the_given_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for given in ("missing/o.csv", str(tmp_path / "missing" / "o.csv")):
            assert main([*self.SMALL, "--out", given]) == 2
            err = capsys.readouterr().err
            assert f"'{given}'" in err
            assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_partial_file_removed_on_mid_sweep_failure(self, tmp_path, capsys):
        # the grid walks sigma past the mass, where sigma/m >= 1 raises
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--n", "2", "--mass", "10",
            "--sigma-min", "1", "--sigma-max", "15", "--steps", "8",
            "--betas", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_existing_file_kept_on_mid_sweep_failure(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"earlier results\n")
        code = main([
            "sweep", "--n", "2", "--mass", "10",
            "--sigma-min", "1", "--sigma-max", "15", "--steps", "8",
            "--betas", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert out.read_bytes() == b"earlier results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.csv"]

    def test_writes_through_symlink(self, tmp_path, capsys):
        target = tmp_path / "data" / "sweep.csv"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(self.SMALL + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().splitlines()[0] == ",".join(CSV_HEADER)
        assert sorted(p.name for p in target.parent.iterdir()) == ["sweep.csv"]

    def test_writes_through_fifo(self, tmp_path, capsys):
        # a nonblocking reader lets the writer open the FIFO without a thread;
        # the small sweep fits in the pipe buffer
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(self.SMALL + ["--out", str(fifo)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert data.decode().splitlines()[0] == ",".join(CSV_HEADER)
        assert [p.name for p in tmp_path.iterdir()] == ["rows.fifo"]

    def test_writes_through_stdout_pipe(self, tmp_path):
        # /dev/stdout on a pipe resolves to /proc/<pid>/fd/pipe:[N], which
        # cannot be opened; the path as given can.
        result = subprocess.run(
            [sys.executable, "-m", "boostcoh.cli", *self.SMALL, "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 2 + 1  # header, rows, "wrote 4 rows to ..."
        assert list(tmp_path.iterdir()) == []

    # sigma/m runs 0.5, 1.0, ..., 3.0; quadrature stops converging past ~1.2.
    CROSSING = [
        "sweep", "--methods", "quadrature", "--n", "1", "--mass", "1",
        "--sigma-min", "0.5", "--sigma-max", "3", "--steps", "6", "--betas", "0.999",
    ]

    def test_domain_gate_fails_before_later_quadrature_errors(self, tmp_path, capsys):
        # The second row's sigma/m gate fails first, although later rows of
        # the same block also fail to converge.
        out = tmp_path / "sweep.csv"
        assert main([*self.CROSSING, "--out", str(out)]) == 2
        assert "sigma/m" in capsys.readouterr().err
        assert not out.exists()

    def test_first_failing_row_sets_exit_code(self, tmp_path, capsys):
        # At n = 200 the first row, sigma/m = 0.1, fails to converge by order
        # 256, before the second row's n bound fails.
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--methods", "quadrature", "--n", "200", "--mass", "1", "--sigma-min", "0.1",
            "--sigma-max", "0.6", "--steps", "6", "--betas", "0.3", "--out", str(out),
        ]) == 3
        assert "did not converge by order 256: delta" in capsys.readouterr().err
        assert not out.exists()

    def test_quadrature_skips_points_that_failed_the_gates(self, tmp_path, monkeypatch, capsys):
        # Only the first point, sigma/m = 0.5, passes the sigma/m gate.
        seen = []
        at_order = integrals._moments_at_order

        def counting(n, eps, boost, order):
            seen.append(eps.tolist())
            return at_order(n, eps, boost, order)

        monkeypatch.setattr(integrals, "_moments_at_order", counting)
        assert main([*self.CROSSING, "--out", str(tmp_path / "sweep.csv")]) == 2
        assert seen and all(eps == [0.5] for eps in seen)

    def test_equal_quad_orders_rejected_before_writing(self, tmp_path, capsys):
        # the removed order flags are unrecognized arguments
        out = tmp_path / "sweep.csv"
        out.write_text("keep\n")
        assert main([*self.CROSSING, "--quad-order", "32", "--quad-max-order", "32",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --quad-order 32 --quad-max-order 32" in err
        assert out.read_text() == "keep\n"

    # 257 sigma points: one full block of 256 and a block of one.
    TWO_BLOCKS = [
        "sweep", "--n", "1", "--mass", "939.36",
        "--sigma-min", "5", "--sigma-max", "560", "--steps", "257",
        "--betas", "0.3:0.95,0.9:0.9", "--methods", "quadrature",
    ]

    def test_rows_across_blocks_match_one_point_calls(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main([*self.TWO_BLOCKS, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 257 * 2
        for row in rows:
            eps = np.array([float(row[0]) / 939.36])
            moments = [moments_quadrature(1, boost_from_beta(float(b)), eps) for b in row[1:3]]
            assert all(errors.tolist() == [None] for _, errors in moments)
            rho = rho_dual_boost_general(math.pi / 4, *(values for values, _ in moments))
            assert float(row[8]) == c_frobenius(hermitian_eigenvalues(rho))[0]

    def test_one_moments_call_per_block_and_distinct_boost(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer times the moments layer at this name.
        calls = []
        original = cli.moments_quadrature

        def counting(n, boost, eps, *args, **kwargs):
            calls.append((boost.beta, len(eps)))  # points in the sigma/m column
            return original(n, boost, eps, *args, **kwargs)

        monkeypatch.setattr(cli, "moments_quadrature", counting)
        assert main([*self.TWO_BLOCKS, "--out", str(tmp_path / "sweep.csv")]) == 0
        # 2 blocks x 3 distinct boosts: the pair 0.9:0.9 shares one call
        assert calls == [(0.3, 256), (0.95, 256), (0.9, 256), (0.3, 1), (0.95, 1), (0.9, 1)]

    def test_one_stack_per_block(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer counts the density-matrix and Jacobi layers
        # at these names.
        calls = {"DensityMatrix": [], "hermitian_eigenvalues": [], "c_l1": []}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[name].append(len(result.blocks) if name == "DensityMatrix" else len(result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        counting(density, "DensityMatrix")
        counting(cli, "hermitian_eigenvalues")
        counting(cli, "c_l1")
        assert main([*self.TWO_BLOCKS, "--out", str(tmp_path / "sweep.csv")]) == 0
        # 2 blocks, each of 2 beta pairs
        for name in calls:
            assert calls[name] == [256 * 2, 1 * 2], name

    def test_one_closed_call_per_block(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer counts the F, closed-spectrum and coherence
        # layers at these names.
        names = ("f_factor", "spectrum_dual_boost", "c_frobenius", "c_frobenius_perturbative")
        calls = {name: [] for name in names}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[name].append(len(result))  # rows of the result
                return result

            monkeypatch.setattr(cli, name, wrapper)

        for name in names:
            counting(name)
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--steps", "257", "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 257 * 4
        # 2 blocks: one F column per distinct boost (4 betas, each as the
        # pair (b, b)), and one call over the 4 pairs' rows for the rest
        assert calls["f_factor"] == [256] * 4 + [1] * 4
        for name in names[1:]:
            assert calls[name] == [256 * 4, 1 * 4], name

    # 300 sigma points: blocks of 256 and 44, each of 2 beta configurations
    PERTURBATIVE = [
        "sweep", "--betas", "0.3,0.9", "--steps", "300", "--n", "2", "--mass", "939.36",
        "--sigma-min", "1", "--sigma-max", "280",
    ]

    @pytest.mark.parametrize("methods, want", [
        ("perturbative", []),
        ("perturbative,exact-eig", [256 * 2, 44 * 2]),
    ])
    def test_closed_spectra_only_for_exact_eig(self, methods, want, tmp_path, monkeypatch,
                                               capsys):
        # Only the exact-eig column reads the closed spectrum; the benchmark's
        # tracer counts the closed-spectrum layer at this name.
        rows = []
        original = cli.spectrum_single_boost

        def counting(theta, f):
            rows.append(len(f))
            return original(theta, f)

        monkeypatch.setattr(cli, "spectrum_single_boost", counting)
        out = tmp_path / "sweep.csv"
        assert main([*self.PERTURBATIVE, "--methods", methods, "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 300 * 2
        assert rows == want

    # n = 40 leaves the dual n bounds at sigma/m = sqrt(1.5 / 40.5) ~ 0.1925,
    # at grid index 304 of 400: mid-way through the second block.
    N_BOUNDS_MID_BLOCK = [
        "sweep", "--n", "40", "--mass", "1", "--sigma-min", "0.01",
        "--sigma-max", "0.25", "--steps", "400", "--betas", "0.5:0.5,0.3:0.6",
        "--methods", "perturbative,exact-eig",
    ]

    def test_n_bounds_failure_mid_block(self, tmp_path, capsys):
        spec = SweepSpec(
            theta=math.pi / 4, n=40, mass=1.0, sigma_grid=(0.01, 0.25, 400),
            betas=((0.5, 0.5), (0.3, 0.6)), methods=("perturbative", "exact-eig"),
        )
        eps = np.array(spec.sigmas(0, 400)) / 1.0
        k = int(np.argmin(check_n_in_bounds(40, eps, 2)))
        upper = n_bounds(eps[k:k + 1], 2)
        first = k, (f"n = 40 outside the allowed range (-0.5, {upper[0]:.6g}] "
                    f"for dual_boost at sigma/m = {eps[k]:.6g}")
        assert cli.BLOCK < first[0] < 2 * cli.BLOCK - 1
        out = tmp_path / "keep.csv"
        out.write_bytes(b"earlier results\n")
        assert main([*self.N_BOUNDS_MID_BLOCK, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {first[1]}\n"
        assert out.read_bytes() == b"earlier results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.csv"]
        # every row before it is yielded first
        rows = []
        with pytest.raises(ValueError, match="outside the allowed range"):
            for row in run_sweep(spec):
                rows.append(row)
        assert len(rows) == first[0] * 2

    # Failure branches no CLI input is known to reach: the wrapped general
    # constructor corrupts one state of the second block of 256 points, so
    # the block's DensityMatrix raises.
    GRID = ["--n", "2", "--mass", "939.36", "--sigma-min", "5", "--sigma-max", "300",
            "--steps", "300"]
    SINGLE_QUADRATURE = ["sweep", *GRID, "--betas", "0.95", "--methods", "quadrature"]
    BAD_ROW = 5  # within the second block: grid row 261
    UNREACHED = {
        "matrix-trace": ([[0.5, 0.5, 0.0], [0.25, 0.25, 0.0]],
                         "trace = 1.5, expected 1 within 2e-10 at point 5"),
        "matrix-psd": ([[0.5, 0.5, 0.9], [0.0, 0.0, 0.0]],
                       "matrix is not positive semidefinite: least eigenvalue -0.4, "
                       "expected >= -1e-10 at point 5"),
    }

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    @pytest.mark.parametrize("case", list(UNREACHED))
    def test_unreached_failure_in_second_block(self, case, existing, tmp_path, monkeypatch,
                                               capsys):
        bad, message = self.UNREACHED[case]
        original = cli.rho_single_boost_general
        calls = []

        def corrupting(*args):
            blocks = original(*args).blocks.copy()
            calls.append(len(blocks))
            if len(calls) == 2:  # only the second block fails
                blocks[self.BAD_ROW] = bad
            return DensityMatrix(blocks)

        monkeypatch.setattr(cli, "rho_single_boost_general", corrupting)
        out = tmp_path / "out.csv"
        if existing:
            out.write_bytes(b"earlier results\n")
        assert main([*self.SINGLE_QUADRATURE, "--out", str(out)]) == 2
        assert calls == [cli.BLOCK, 300 - cli.BLOCK]
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier results\n"

    @settings(max_examples=150, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2),
        n=st.integers(0, 300),
        betas=st.lists(st.sampled_from([0.0, 0.999999]) | st.floats(0.0, 0.999999),
                       min_size=1, max_size=2),
        fractions=st.lists(st.sampled_from([1.0, math.nextafter(1.0, 0.0)])
                           | st.floats(0.0, 1.01, exclude_min=True), min_size=1, max_size=16),
    )
    def test_gated_closed_rows_cannot_fail(self, theta, n, betas, fractions):
        # The F columns and closed spectra of a block, with sigma/m drawn as
        # fractions of the n bound's edge: on every gated point F stays below
        # 3/4 (one boost) or 3/8 per particle (two), and the closed spectrum
        # passes the spectrum checks, so no failure can come from it.
        edge = math.sqrt((3.0 if len(betas) == 1 else 1.5) / (n + 0.5))
        eps = np.minimum(np.array(fractions) * edge, math.nextafter(1.0, 0.0))
        boosts = [boost_from_beta(b) for b in betas]
        columns, spectra, failure = cli._block_values(theta, [boosts], n, eps, ("exact-eig",))
        factors = [f for f in columns[-2:] if f is not None]
        bound = 0.75 if len(betas) == 1 else 0.375
        assert all((f[~np.isnan(f)] < bound).all() for f in factors)
        gated = check_factor_sum(*factors)
        off_sum, off_range = _spectrum_faults(spectra[gated])
        assert not (off_sum | off_range).any()
        assert failure is None or not gated[failure[0]]

    def test_sigma_blocks_are_the_grid(self):
        # each block's values are the grid's, and the last block is clipped
        spec = SweepSpec(
            theta=math.pi / 4, n=2, mass=939.36,
            sigma_grid=(1.0, 2.0, 7), betas=((0.5,),), methods=("perturbative",),
        )
        grid = [1.0 + (2.0 - 1.0) * i / 6 for i in range(7)]
        assert spec.sigmas(0, 3) + spec.sigmas(3, 6) + spec.sigmas(6, 9) == grid
        assert spec.sigmas(7, 10) == []
        steps = 10**23
        huge = SweepSpec(**{**spec.__dict__, "sigma_grid": (1.0, 2.0, steps)})
        assert huge.sigmas(steps - 1, steps + 256) == [2.0]

    def test_first_rows_of_a_long_grid_cost_little_memory(self):
        # the grid is built block by block, not as a whole before the first row
        spec = SweepSpec(
            theta=math.pi / 4, n=2, mass=939.36,
            sigma_grid=(1.0, 100.0, 10**6), betas=((0.5,),), methods=("perturbative", "exact-eig"),
        )
        small = SweepSpec(**{**spec.__dict__, "sigma_grid": (1.0, 100.0, 4)})
        list(run_sweep(small))  # imports and caches
        tracemalloc.start()
        try:
            rows = list(itertools.islice(run_sweep(spec), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 3
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "changes",
        [
            dict(n=2.5),
            dict(mass=math.nan),
            dict(sigma_grid=(1.0, math.nan, 4)),
            dict(sigma_grid=(math.nan, 2.0, 4)),
            dict(sigma_grid=(1.0, math.inf, 4)),
            dict(sigma_grid=(2.0, 1.0, 4)),
            dict(sigma_grid=(-1.0, 2.0, 1)),
            # one tuple per configuration, all of length 1 or all of length 2
            dict(betas=((0.5,), (0.3, 0.4))),
            dict(betas=((0.3, 0.4), (0.5,))),
            dict(betas=((0.1, 0.2, 0.3),)),
            dict(betas=((),)),
            dict(betas=(0.5,)),
            dict(betas=()),
            dict(betas=((1.0,),)),
            dict(betas=((0.5, 1.0),)),
        ],
    )
    def test_invalid_spec_rejected_at_construction(self, changes):
        fields = dict(
            theta=math.pi / 4, n=2, mass=939.36,
            sigma_grid=(1.0, 2.0, 4), betas=((0.5,),), methods=("perturbative",),
        )
        SweepSpec(**fields)
        with pytest.raises(ValueError):
            SweepSpec(**{**fields, **changes})


# Betas that reach the F1 + F2 gate inside the n bounds (beta >= 0.98), or
# stay far from it; symmetric pairs and repeated betas share boosts.
BETA = st.sampled_from([0.0, 0.3, 0.9, 0.999, 0.999999]) | st.floats(0.0, 0.999999)


@st.composite
def sweep_specs(draw) -> SweepSpec:
    """A sweep of 1-4 beta configurations whose sigma/m grid may cross every gate."""
    boosted = draw(st.sampled_from([1, 2]))
    if boosted == 1:
        betas = draw(st.lists(st.tuples(BETA), min_size=1, max_size=4))
    else:
        pair = st.tuples(BETA, BETA) | BETA.map(lambda b: (b, b))
        betas = draw(st.lists(pair, min_size=1, max_size=4))
    # past n ~ 163 the quadrature does not converge by its largest order
    n = draw(st.sampled_from([0, 2, 40, 200]) | st.integers(0, 60) | st.integers(100, 220))
    # sigma/m as fractions of the n bound's edge, where F1 + F2 reaches 1/2
    # from ~0.82 of it at high beta; the edge passes sigma/m = 1 for small n
    edge = math.sqrt((3.0 / boosted) / (n + 0.5))
    lo = draw(st.floats(0.01, 1.05)) * edge
    hi = lo + draw(st.floats(0.0, 0.6)) * edge
    return SweepSpec(
        theta=draw(st.floats(0.0, math.pi / 2)), n=n, mass=1.0,
        sigma_grid=(lo, hi, draw(st.integers(2, 24))), betas=tuple(betas),
        methods=tuple(draw(st.sets(st.sampled_from(cli.METHODS), min_size=1))),
    )


def lines_and_error(lines) -> tuple[list[str], Exception | None]:
    """The lines a sweep yields, and the error it raises after them, if any."""
    rows = []
    try:
        for line in lines:
            rows.append(line)
    except (ValueError, integrals.QuadratureToleranceError) as exc:
        return rows, exc
    return rows, None


class TestBlockStack:
    """One stack per block gives every line and error of the per-configuration sweep."""

    # The blocks of the stack are small, to cross block edges; the oracle's
    # are 256 points, so its rows do not depend on the blocking either.
    @settings(max_examples=150, deadline=None)
    @given(sweep_specs(), st.sampled_from([3, 7, cli.BLOCK]))
    def test_matches_the_per_configuration_sweep(self, spec, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BLOCK", block)
            rows, error = lines_and_error(run_sweep(spec))
        want_rows, want_error = lines_and_error(oracles.sweep_lines_per_config(spec))
        assert rows == want_rows
        assert type(error) is type(want_error)
        assert str(error) == str(want_error)


class TestColumnText:
    """A block's text: one repr per value, f2 reusing f1's text where the bits match."""

    def test_f2_reuses_f1_text_only_on_equal_bits(self, monkeypatch):
        f1 = np.array([0.0, 0.25, np.nan, np.inf, 0.125])
        f2 = np.array([-0.0, 0.25, np.nan, -np.inf, 0.125])

        def block(theta, configs, n, eps, *rest):
            return [np.full(5, 0.75), None, None, None, f1, f2], None, None

        texts = []

        def recording(value):
            texts.append(builtins.repr(value))
            return texts[-1]

        monkeypatch.setattr(cli, "_block_values", block)
        monkeypatch.setattr(cli, "repr", recording, raising=False)
        spec = SweepSpec(
            theta=math.pi / 4, n=2, mass=1.0, sigma_grid=(1.0, 5.0, 5),
            betas=((0.5, 0.5),), methods=("perturbative",),
        )
        fields = [line.split(",") for line in run_sweep(spec)]
        assert [f[9] for f in fields] == ["0.0", "0.25", "nan", "inf", "0.125"]
        assert [f[10] for f in fields] == ["-0.0", "0.25", "nan", "-inf", "0.125"]
        # 0.0 and -0.0 compare equal and NaN does not, so bits decide: f2 is
        # formatted only where its bits differ from f1's
        f_texts = {"0.0", "-0.0", "0.25", "nan", "inf", "-inf", "0.125"}
        assert sorted(t for t in texts if t in f_texts) == sorted(f_texts)


class TestFigureCommand:
    def test_fig1_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "fig1", "--steps", "12", "--out", str(a)]) == 0
        assert main(["figure", "fig1", "--steps", "12", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig2_uses_equal_beta_pairs(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--steps", "6", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6 * 4
        assert all(row[1] == row[2] for row in rows)

    def test_preset_grid_covers_configured_fraction(self):
        spec = figure_spec("fig1")
        lo, hi, steps = spec.sigma_grid
        assert steps == 256
        assert hi == pytest.approx(0.3 * 939.36)
        assert lo == pytest.approx(hi / 256)
        assert spec.n == 2 and spec.theta == pytest.approx(math.pi / 4)

    def test_unknown_name_rejected(self, capsys):
        assert main(["figure", "fig3", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("steps", ["0", "-4", "1"])
    def test_too_few_steps_rejected(self, steps, tmp_path, capsys):
        # the preset sigma_min is sigma_max / steps; the grid check comes first
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--steps", steps, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: sigma grid needs steps >= 2, got {steps}\n"
        assert not out.exists()

    def test_config_overrides_presets(self, tmp_path):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("steps = 4\nbetas = 0.3,0.8\n", encoding="utf-8")
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4 * 2
        assert {row[1] for row in rows} == {"0.3", "0.8"}


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "boostcoh.cli", "wigner", "--beta", "0", "--p-over-m", "5"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "cos2_half" in result.stdout

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "boostcoh.cli", "unknown-command"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["wigner", "--beta", "0.5", "--p-over-m", "1"]) == 0
        finally:
            cli._parser.cache_clear()  # drop the parser built under the patch
        assert built == [1]

    @pytest.mark.parametrize("command", [[], ["wigner"], ["coherence"], ["sweep"], ["figure"]])
    def test_help_bytes_unchanged(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--help"])
        want = capsys.readouterr().out
        assert want.startswith("usage: boostcoh")
        for _ in range(2):  # the first call may build the parser, the second reuses it
            assert main([*command, "--help"]) == 0
            assert capsys.readouterr().out == want


class TestClosedFormPaths:
    """Sweeps build only X-states, so no general eigensolver runs."""

    def test_no_eigvalsh_or_sweeps(self, tmp_path, monkeypatch, capsys):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append("eigvalsh")
            return eigvalsh(*args, **kwargs)

        # hermgauss builds the nodes with an eigvalsh: build every order first
        for order in (16, 32, 64, 128, 256):
            integrals.gauss_hermite_nodes(order)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert main(["figure", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert main([
            "sweep", "--n", "2", "--mass", "939.36",
            "--sigma-min", "5", "--sigma-max", "280", "--steps", "64",
            "--betas", "0.3:0.95,0.8:0.8", "--methods", "perturbative,exact-eig,quadrature",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert calls == []
        np.linalg.eigvalsh(np.eye(2))  # the wrapper counts
        assert calls == ["eigvalsh"]


# The CLI contract as a property.  Each example starts from valid flags for
# one command, then gives up to three flags an odd value or drops them: NaN,
# +/-inf, huge, negative, zero, empty and non-numeric values, and values
# outside a flag's domain.  A drawn subset of the flags then goes into a
# --config file, which must give the record of the command line alone.  A
# sweep or figure has at most 64 steps, so each example stays small.
BAD_NUMBERS = ["nan", "inf", "-inf", "1e308", "1e400", "-1", "0", "abc", ""]
VALID = {
    "theta": ["0", "0.3", "0.7853981633974483", "1.5707963267948966"],
    "n": ["0", "1", "2", "8", "40"],
    "mass": ["939.36", "1000"],
    "beta": ["0", "0.3", "0.95", "0.999999"],
    "p-over-m": ["0", "0.5", "1", "5"],
    "sigma": ["5", "50", "100", "280", "600", "845.424"],
    "method": ["perturbative", "exact-eig", "quadrature"],
    "sigma-min": ["1", "5", "50"],
    "sigma-max": ["100", "280", "845.424"],
    "steps": ["2", "3", "17", "64"],
    "betas": ["0", "0.5,0.95", "0.3,0.999999"],
    "methods": ["perturbative", "exact-eig", "quadrature", "perturbative,exact-eig,quadrature"],
}
# coherence --beta and sweep --betas also take b1:b2 items, both particles boosted
TWO_BOOSTS = {
    "beta": ["0.5:0.5", "0:0.999999", "0.95:0.8"],
    "betas": ["0.5:0.5", "0.3:0.95,0.9:0.9", "0:0.999999"],
}
ODD = {flag: BAD_NUMBERS for flag in VALID} | {
    "theta": ["2", "-0.1", *BAD_NUMBERS],
    "n": ["1.5", "149", "300", "100000", *BAD_NUMBERS],
    "mass": ["1e-300", "1e300", *BAD_NUMBERS],
    "beta": ["1", "1.5", "0.5:", "1:0", "nan:0.5", "0.5:0.5:0.5", *BAD_NUMBERS],
    "p-over-m": ["1e200", *BAD_NUMBERS],
    "sigma": ["1e-300", "1e300", "939.36", *BAD_NUMBERS],
    "method": ["foo", ""],
    "steps": ["1", "0", "-1", "-5", "2.5", "nan", "inf", "1e308", "abc", ""],  # none above 64
    "betas": ["", "nan", "0.5,abc", "1", "-0.1", "inf", "0.5,0.3:0.6", "1:0", "a:b",
              "0.5:inf", "0.1:0.2:0.3"],
    "methods": ["foo", "", "quadrature,foo"],
    # sweep's old --scenario, drawn only here: it must match the --betas items
    "scenario": ["single", "dual", "triple", ""],
}
# The flags drawn valid, per command.  A figure always gets --steps, since
# its preset has 256.
FLAGS = {
    "wigner": ["beta", "p-over-m"],
    "coherence": ["theta", "n", "mass", "beta", "sigma", "method"],
    "sweep": ["theta", "n", "mass", "sigma-min", "sigma-max", "steps", "betas", "methods"],
    "figure": ["theta", "n", "mass", "sigma-min", "sigma-max", "betas"],
}


@st.composite
def cli_argv(draw, command: str) -> list[str]:
    """Argv for ``command``: valid flags, up to three of them odd or dropped."""
    two = TWO_BOOSTS if command in ("coherence", "sweep") else {}
    values = {flag: draw(st.sampled_from(VALID[flag] + two.get(flag, [])))
              for flag in FLAGS[command]}
    names = FLAGS[command] + (["scenario"] if command == "sweep" else [])
    for flag in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        values[flag] = draw(st.none() | st.sampled_from(ODD[flag]))  # None drops the flag
    head = [command]
    if command == "figure":
        steps = draw(st.sampled_from(VALID["steps"]) | st.sampled_from(ODD["steps"]))
        head += [draw(st.sampled_from(["fig1", "fig2", "fig3"])), f"--steps={steps}"]
    return head + [f"--{f}={v}" for f, v in values.items() if v is not None]


def csv_configs(flags: dict) -> int:
    """The number of beta configurations a successful sweep or figure writes rows for."""
    configs = flags.get("betas")
    if configs is None:  # a figure's preset betas
        return len(cli.FIGURE_BETAS)
    return len([part for part in configs.split(",") if part.strip()])


class TestContractProperty:
    """Whatever the flags, the CLI exits 0, 2 or 3 with a message, and keeps an
    existing file; flags read from a config file act as on the command line."""

    @staticmethod
    def run(argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an uncaught exception fails the test: exit 1, a traceback
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def assert_contract(code, err) -> None:
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith(("error: ", "usage: ")), err
        elif code == 3:
            assert err.startswith("error: quadrature did not converge"), err

    @staticmethod
    def two_ways(argv, data, cfg: Path) -> tuple[list[str], list[str]]:
        """``argv`` with every flag on the command line, and with a drawn subset
        of its flags moved into the config file ``cfg``.

        The command line puts the moved flags last: the flags left on it are
        parsed before the file is read, so a bad value among them is the one
        reported, and then the file's flags are parsed first.
        """
        head = [arg for arg in argv if not arg.startswith("--")]
        flags = [arg for arg in argv if arg.startswith("--")]
        moved = data.draw(st.lists(st.booleans(), min_size=len(flags), max_size=len(flags)))
        kept = [flag for flag, m in zip(flags, moved) if not m]
        into = [flag[2:].split("=", 1) for flag, m in zip(flags, moved) if m]
        cfg.write_text("".join(f"{key.replace('-', '_')} = {value}\n" for key, value in into),
                       encoding="utf-8")
        flat = [*head, *kept, *(f"--{key}={value}" for key, value in into)]
        return flat, [*head, *kept, f"--config={cfg}"]

    def csv_record(self, argv, out: Path, existing) -> tuple:
        """Run a sweep or figure into ``out``: its exit code, stdout, stderr, the
        file's text (None if there is none) and the names in its directory."""
        if existing:
            out.write_bytes(b"earlier results\n")
        record = (*self.run([*argv, f"--out={out}"]),
                  out.read_text(encoding="utf-8") if out.exists() else None,
                  sorted(os.listdir(out.parent)))
        out.unlink(missing_ok=True)
        return record

    def check_csv_run(self, argv, existing, data) -> None:
        """Run a sweep or figure both ways: exit 0 writes one row per grid point
        and configuration, anything else leaves an earlier file as it was."""
        with tempfile.TemporaryDirectory() as tmp:
            flat, through_config = self.two_ways(argv, data, Path(tmp, "run.cfg"))
            out = Path(tmp, "out", "out.csv")
            out.parent.mkdir()
            record = self.csv_record(flat, out, existing)
            assert self.csv_record(through_config, out, existing) == record
        code, stdout, err, text, names = record
        self.assert_contract(code, err)
        if code == 0:
            header, *rows = csv.reader(io.StringIO(text))
            assert header == CSV_HEADER and stdout == f"wrote {len(rows)} rows to {out}\n"
            flags = dict(arg[2:].split("=", 1) for arg in flat if arg.startswith("--"))
            assert len(rows) == int(flags["steps"]) * csv_configs(flags)
        elif existing:
            assert text == "earlier results\n"
        assert names == (["out.csv"] if code == 0 or existing else [])

    @settings(max_examples=100, deadline=None)
    @given(cli_argv("wigner"))
    def test_wigner(self, argv):
        code, out, err = self.run(argv)
        self.assert_contract(code, err)
        assert code != 3
        if code == 0:
            assert out.startswith("cos2_half ") and err == ""

    @settings(max_examples=200, deadline=None)
    @given(cli_argv("coherence"), st.data())
    def test_coherence(self, argv, data):
        with tempfile.TemporaryDirectory() as tmp:
            flat, through_config = self.two_ways(argv, data, Path(tmp, "run.cfg"))
            code, out, err = self.run(flat)
            assert self.run(through_config) == (code, out, err)
        self.assert_contract(code, err)
        if code == 0:
            beta = dict(arg[2:].split("=", 1) for arg in flat[1:])["beta"]
            assert out.startswith(f"scenario      {'dual' if ':' in beta else 'single'}\n")
            assert err == ""

    # A huge sigma over a tiny mass overflows sigma/m with numpy's warning
    # before the domain gate rejects it, as the transcript records.
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(cli_argv("sweep"), st.booleans(), st.data())
    def test_sweep(self, argv, existing, data):
        self.check_csv_run(argv, existing, data)

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(cli_argv("figure"), st.booleans(), st.data())
    def test_figure(self, argv, existing, data):
        self.check_csv_run(argv, existing, data)
