"""Integration tests for the command-line interface."""

import csv
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from boostcoh import (
    WavePacket, boost_from_beta, c_frobenius, c_frobenius_perturbative, c_l1, f_factor,
    hermitian_eigenvalues, moments_quadrature, rho_dual_boost_general,
    rho_dual_boost_perturbative, rho_single_boost_general, rho_single_boost_perturbative,
    spectrum_dual_boost, spectrum_single_boost,
)
from boostcoh import cli, density, integrals
from boostcoh.cli import CSV_HEADER, SweepSpec, build_parser, figure_spec, main, run_sweep
from boostcoh.integrals import check_n_in_bounds

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
            "coherence", "--scenario", "single", "--theta", "0.7853982",
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
            "coherence", "--scenario", "single", "--theta", "0.5",
            "--beta", "0", "--sigma", "50", "--mass", "939.36", "--n", "2",
        ])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["c_F"]) == 1.0
        assert float(report["c_l1"]) == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_dual_scenario_all_methods(self, capsys):
        for method in ("perturbative", "exact-eig", "quadrature"):
            code = main([
                "coherence", "--scenario", "dual", "--beta1", "0.95",
                "--beta2", "0.8", "--sigma", "100", "--mass", "939.36",
                "--n", "2", "--method", method,
            ])
            assert code == 0
            report = parse_report(capsys.readouterr().out)
            assert 0.98 < float(report["c_F"]) <= 1.0
            assert "F2" in report

    def test_negative_n_rejected_at_parse(self, capsys):
        code = main([
            "coherence", "--scenario", "single", "--beta", "0.5",
            "--sigma", "10", "--mass", "100", "--n", "-1",
        ])
        assert code == 2
        assert "n > -1/2" in capsys.readouterr().err

    def test_zero_quad_order_rejected(self, capsys):
        code = main([
            "coherence", "--scenario", "single", "--beta", "0.95",
            "--sigma", "100", "--mass", "939.36", "--n", "2",
            "--method", "quadrature", "--quad-order", "0",
        ])
        assert code == 2
        assert "order" in capsys.readouterr().err

    @pytest.mark.parametrize("max_order", ["0", "8", "1000"])
    def test_quad_max_order_out_of_range_rejected(self, max_order, capsys):
        code = main([
            "coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36",
            "--method", "quadrature", "--quad-max-order", max_order,
        ])
        assert code == 2
        assert "max_order" in capsys.readouterr().err

    def test_quadrature_tolerance_exit_code(self, capsys):
        # orders 16 and 32 differ by 1.75e-8 on this broad packet at beta 0.999
        code = main([
            "coherence", "--scenario", "single", "--beta", "0.999",
            "--sigma", "0.5", "--mass", "1", "--n", "1",
            "--method", "quadrature", "--quad-max-order", "32",
        ])
        assert code == 3
        assert "did not converge: delta 1.750e-08" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", [["--quad-order", "256"], ["--quad-max-order", "16"],
                                        ["--quad-order", "64", "--quad-max-order", "64"]])
    def test_max_order_below_twice_order_rejected(self, orders, capsys):
        # Without a doubling there is no delta: this used to exit 3 with delta inf.
        code = main([
            "coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36",
            "--method", "quadrature", *orders,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--quad-order" in err and "--quad-max-order" in err and "2 * order" in err

    def test_crude_estimate_exit_code(self, capsys):
        # The order-4 estimate is not even a moment triple; it is still an
        # unconverged quadrature, not a usage error.
        code = main([
            "coherence", "--method", "quadrature", "--n", "8", "--quad-order", "2",
            "--quad-max-order", "4", "--beta", "0.5", "--sigma", "10", "--mass", "939.36",
        ])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_perturbative_validity_rejected(self, capsys):
        # sigma/m >= 1 is outside the expansion's domain
        code = main([
            "coherence", "--scenario", "single", "--beta", "0.5",
            "--sigma", "200", "--mass", "100", "--n", "2",
        ])
        assert code == 2

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference point\n"
            "scenario = single\n"
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

    SWEEP_KEYS = "n = 2\nmass = 939.36\nsigma_min = 1\nsigma_max = 2\nsteps = 2\nbetas = 0.5\n"
    POINT_KEYS = "beta = 0.5\nbeta1 = 0.5\nbeta2 = 0.5\nsigma = 100\nmass = 939.36\n"

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["coherence"], POINT_KEYS + "scenario = triple\n"),
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
        "argv, key, value",
        [
            (["coherence", "--scenario", "dual", "--beta1", "0.5", "--beta2", "0.5",
              "--sigma", "100", "--mass", "939.36"], "beta", "0.9"),
            (["coherence", "--beta", "0.9", "--sigma", "100", "--mass", "939.36"],
             "beta1", "0.5"),
            (["sweep", "--scenario", "dual", "--beta-pairs", "0.5:0.5", *GRID], "betas", "0.9"),
            (["sweep", "--scenario", "single", "--betas", "0.9", *GRID],
             "beta-pairs", "0.5:0.5"),
        ],
        ids=["coherence-dual", "coherence-single", "sweep-dual", "sweep-single"],
    )
    def test_other_scenario_betas_rejected(self, argv, key, value, source, tmp_path, capsys):
        # A beta flag of the other scenario would be ignored; it is an error,
        # whether it comes from the command line or from a config file.
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
        assert f"--{key} cannot be used" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    SMALL = [
        "sweep", "--scenario", "single", "--n", "2", "--mass", "939.36",
        "--sigma-min", "1", "--sigma-max", "2", "--steps", "2", "--betas", "0.0,0.3",
    ]

    def test_row_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--scenario", "single", "--n", "2", "--mass", "939.36",
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
            "sweep", "--scenario", "single", "--n", "1", "--mass", "100",
            "--sigma-min", "1", "--sigma-max", "3", "--steps", "3",
            "--betas", "0.8,0.0,0.3", "--out", str(out),
        ])
        _, rows = read_csv(out)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    @staticmethod
    def one_point_line(spec, sigma, betas):
        """A sweep's CSV line for one point, from the one-value calls alone."""
        eps = sigma / spec.mass
        boosts = [boost_from_beta(b) for b in betas]
        factors = [f_factor(spec.n, b, eps) for b in boosts]
        single = len(boosts) == 1
        values = dict.fromkeys(CSV_HEADER[5:])
        if "perturbative" in spec.methods:
            values["c_f_perturbative"] = c_frobenius_perturbative(spec.n, boosts, eps)
        if "exact-eig" in spec.methods:
            closed = (spectrum_single_boost if single else spectrum_dual_boost)
            values["c_f_exact_eig"] = c_frobenius(closed(spec.theta, *factors), 4)
        if "quadrature" in spec.methods:
            pkt = WavePacket(spec.n, sigma, spec.mass)
            general = rho_single_boost_general if single else rho_dual_boost_general
            rho = general(spec.theta, *(moments_quadrature(pkt, b) for b in boosts))
            values["c_f_quadrature"] = c_frobenius(hermitian_eigenvalues(rho), 4)
        else:
            closed = rho_single_boost_perturbative if single else rho_dual_boost_perturbative
            rho = closed(spec.theta, *factors)
        values["c_l1"] = c_l1(rho)
        values["f1"] = factors[0].f
        values["f2"] = None if single else factors[1].f
        fields = [sigma, *betas, *([None] if single else []), spec.theta, *values.values()]
        fields = ["" if v is None else repr(v) for v in fields]
        fields.insert(3, str(spec.n))
        return ",".join(fields)

    ROUND_TRIP_CASES = [
        # an asymmetric and a symmetric pair: f2 shares f1's text on the latter
        ("dual", ((0.95, 0.8), (0.3, 0.3)), ("perturbative", "exact-eig", "quadrature")),
        ("dual", ((0.5, 0.5), (0.0, 0.9)), ("exact-eig",)),
        # f2 empty, and the exact-eig column with it
        ("single", (0.6, 0.0), ("perturbative", "quadrature")),
    ]

    def test_round_trip_bit_for_bit(self, tmp_path, capsys):
        for scenario, betas, methods in self.ROUND_TRIP_CASES:
            spec = SweepSpec(
                scenario=scenario, theta=0.6, n=2, mass=939.36, sigma_grid=(10.0, 250.0, 5),
                betas=betas, methods=methods,
            )
            lines = list(run_sweep(spec))
            expected = [
                self.one_point_line(spec, sigma, cfg)
                for sigma in spec.sigmas()
                for cfg in sorted(b if scenario == "dual" else (b,) for b in betas)
            ]
            assert lines == expected
            out = tmp_path / f"{scenario}-{len(methods)}.csv"
            flags = ["--betas", ",".join(map(str, betas))] if scenario == "single" else [
                "--beta-pairs", ",".join(f"{a}:{b}" for a, b in betas)]
            assert main([
                "sweep", "--scenario", scenario, "--theta", "0.6", "--n", "2",
                "--mass", "939.36", "--sigma-min", "10", "--sigma-max", "250", "--steps", "5",
                *flags, "--methods", ",".join(methods), "--out", str(out),
            ]) == 0
            assert out.read_text(encoding="utf-8") == "".join(
                line + "\n" for line in [",".join(CSV_HEADER), *lines]
            )

    def test_truncation_gap_between_methods(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--scenario", "single", "--n", "2", "--mass", "939.36",
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
            "sweep", "--scenario", "single", "--n", "2", "--mass", "939.36",
            "--sigma-min", "0", "--sigma-max", "2", "--steps", "2",
            "--betas", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_partial_file_removed_on_mid_sweep_failure(self, tmp_path, capsys):
        # the grid walks sigma past the mass, where sigma/m >= 1 raises
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--scenario", "single", "--n", "2", "--mass", "10",
            "--sigma-min", "1", "--sigma-max", "15", "--steps", "8",
            "--betas", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_existing_file_kept_on_mid_sweep_failure(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"earlier results\n")
        code = main([
            "sweep", "--scenario", "single", "--n", "2", "--mass", "10",
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
        # The first row, sigma/m = 0.5, fails to converge by order 32, before
        # the second row's sigma/m gate fails.
        out = tmp_path / "sweep.csv"
        assert main([*self.CROSSING, "--quad-max-order", "32", "--out", str(out)]) == 3
        assert "did not converge: delta 1.750e-08" in capsys.readouterr().err
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
        out = tmp_path / "sweep.csv"
        out.write_text("keep\n")
        assert main([*self.CROSSING, "--quad-order", "32", "--quad-max-order", "32",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--quad-order 32, --quad-max-order 32" in err
        assert out.read_text() == "keep\n"

    # 257 sigma points: one full block of 256 and a block of one.
    TWO_BLOCKS = [
        "sweep", "--scenario", "dual", "--n", "1", "--mass", "939.36",
        "--sigma-min", "5", "--sigma-max", "560", "--steps", "257",
        "--beta-pairs", "0.3:0.95,0.9:0.9", "--methods", "quadrature",
    ]

    def test_rows_across_blocks_match_one_point_calls(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main([*self.TWO_BLOCKS, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 257 * 2
        for row in rows:
            pkt = WavePacket(1, float(row[0]), 939.36)
            moments = [moments_quadrature(pkt, boost_from_beta(float(b))) for b in row[1:3]]
            rho = rho_dual_boost_general(math.pi / 4, *moments)
            assert float(row[8]) == c_frobenius(hermitian_eigenvalues(rho), 4)

    def test_one_moments_call_per_block_and_boost(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer times the moments layer at this name.
        calls = []
        original = cli.moments_quadrature

        def counting(block, *args, **kwargs):
            calls.append(len(block[1]))  # points in the sigma/m column
            return original(block, *args, **kwargs)

        monkeypatch.setattr(cli, "moments_quadrature", counting)
        assert main([*self.TWO_BLOCKS, "--out", str(tmp_path / "sweep.csv")]) == 0
        # 2 blocks x 2 beta pairs x 2 boosts
        assert calls == [256] * 4 + [1] * 4

    def test_one_stack_per_block_and_beta_pair(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer counts the density-matrix and Jacobi layers
        # at these names.
        calls = {"DensityMatrix": [], "hermitian_eigenvalues": []}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[name].append(len(result.errors) if name == "DensityMatrix" else len(result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        counting(density, "DensityMatrix")
        counting(cli, "hermitian_eigenvalues")
        assert main([*self.TWO_BLOCKS, "--out", str(tmp_path / "sweep.csv")]) == 0
        # 2 blocks x 2 beta pairs
        assert calls["DensityMatrix"] == [256, 256, 1, 1]
        assert calls["hermitian_eigenvalues"] == [256, 256, 1, 1]

    def test_one_closed_call_per_block_and_configuration(self, tmp_path, monkeypatch, capsys):
        # The benchmark's tracer counts the F and closed-spectrum layers at
        # these names.
        calls = {"f_factor": [], "spectrum_dual_boost": []}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name].append(len(args[-1]))  # points in the sigma/m or F column
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counting("f_factor")
        counting("spectrum_dual_boost")
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--steps", "257", "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 257 * 4
        # 2 blocks x 4 beta pairs x 2 boosts, and one spectrum per pair
        assert calls["f_factor"] == [256] * 8 + [1] * 8
        assert calls["spectrum_dual_boost"] == [256] * 4 + [1] * 4

    # n = 40 leaves the dual n bounds at sigma/m = sqrt(1.5 / 40.5) ~ 0.1925,
    # at grid index 304 of 400: mid-way through the second block.
    N_BOUNDS_MID_BLOCK = [
        "sweep", "--scenario", "dual", "--n", "40", "--mass", "1", "--sigma-min", "0.01",
        "--sigma-max", "0.25", "--steps", "400", "--beta-pairs", "0.5:0.5,0.3:0.6",
        "--methods", "perturbative,exact-eig",
    ]

    def test_n_bounds_failure_mid_block(self, tmp_path, capsys):
        spec = SweepSpec(
            scenario="dual", theta=math.pi / 4, n=40, mass=1.0, sigma_grid=(0.01, 0.25, 400),
            betas=((0.5, 0.5), (0.3, 0.6)), methods=("perturbative", "exact-eig"),
        )
        first = None
        for k, sigma in enumerate(spec.sigmas()):
            try:
                check_n_in_bounds(40, sigma / 1.0, "dual_boost")
            except ValueError as exc:
                first = k, str(exc)
                break
        assert first is not None and cli.BLOCK < first[0] < 2 * cli.BLOCK - 1
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

    @pytest.mark.parametrize(
        "changes",
        [
            dict(n=2.5),
            dict(mass=math.nan),
            dict(sigma_grid=(1.0, math.nan, 4)),
            dict(sigma_grid=(math.nan, 2.0, 4)),
            dict(sigma_grid=(1.0, math.inf, 4)),
        ],
    )
    def test_invalid_spec_rejected_at_construction(self, changes):
        fields = dict(
            scenario="single", theta=math.pi / 4, n=2, mass=939.36,
            sigma_grid=(1.0, 2.0, 4), betas=(0.5,), methods=("perturbative",),
        )
        SweepSpec(**fields)
        with pytest.raises(ValueError):
            SweepSpec(**{**fields, **changes})


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
            "sweep", "--scenario", "dual", "--n", "2", "--mass", "939.36",
            "--sigma-min", "5", "--sigma-max", "280", "--steps", "64",
            "--beta-pairs", "0.3:0.95,0.8:0.8", "--methods", "perturbative,exact-eig,quadrature",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert calls == []
        np.linalg.eigvalsh(np.eye(2))  # the wrapper counts
        assert calls == ["eigvalsh"]
