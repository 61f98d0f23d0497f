"""Integration tests for the command-line interface."""

import csv
import math
import os
import stat
import subprocess
import sys

import pytest

from boostcoh import (
    WavePacket, boost_from_beta, c_frobenius, hermitian_eigenvalues, moments_quadrature,
    rho_dual_boost_general,
)
from boostcoh import cli
from boostcoh.cli import CSV_HEADER, SweepSpec, figure_spec, main, run_sweep


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
        code = main([
            "coherence", "--scenario", "single", "--beta", "0.95",
            "--sigma", "100", "--mass", "939.36", "--n", "2",
            "--method", "quadrature", "--quad-max-order", "16",
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

    def test_round_trip_bit_for_bit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--scenario", "dual", "--n", "2", "--mass", "939.36",
            "--sigma-min", "10", "--sigma-max", "90", "--steps", "3",
            "--beta-pairs", "0.95:0.8,0.3:0.3", "--methods",
            "perturbative,exact-eig,quadrature", "--out", str(out),
        ])
        spec = SweepSpec(
            scenario="dual", theta=math.pi / 4, n=2, mass=939.36,
            sigma_grid=(10.0, 90.0, 3), betas=((0.95, 0.8), (0.3, 0.3)),
            methods=("perturbative", "exact-eig", "quadrature"),
        )
        expected = list(run_sweep(spec))
        _, rows = read_csv(out)
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert float(row[0]) == want.sigma
            assert float(row[1]) == want.beta1
            assert float(row[2]) == want.beta2
            assert float(row[5]) == want.c_l1
            assert float(row[6]) == want.c_f_perturbative
            assert float(row[7]) == want.c_f_exact_eig
            assert float(row[8]) == want.c_f_quadrature
            assert float(row[9]) == want.f1
            assert float(row[10]) == want.f2

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
        out = tmp_path / "sweep.csv"
        assert main([*self.CROSSING, "--quad-max-order", "16", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

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

        def counting(pkts, *args, **kwargs):
            calls.append(len(pkts))
            return original(pkts, *args, **kwargs)

        monkeypatch.setattr(cli, "moments_quadrature", counting)
        assert main([*self.TWO_BLOCKS, "--out", str(tmp_path / "sweep.csv")]) == 0
        # 2 blocks x 2 beta pairs x 2 boosts
        assert calls == [256] * 4 + [1] * 4

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
