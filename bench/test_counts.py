"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q bench/test_counts.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXACT = {
    "integrals.quad_points", "integrals.quad_useful_ratio",
    "integrals.quad_bytes_computed", "cli.rows", "cli.csv_bytes",
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_between_traced_runs(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    counts = sorted(k for k in first if k.endswith(".calls") or k in EXACT)
    assert [first[k] for k in counts] == [second[k] for k in counts]
    assert first["cli.rows"] == sum(inv.rows for inv in WORKLOADS[workload](7))
    quadrature = workload != "figure-closed"
    assert (first["integrals.moments_quadrature.calls"] > 0) == quadrature
    assert (first["coherence.hermitian_eigenvalues.calls"] > 0) == quadrature


def test_check_rejects_a_perturbed_field(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from boostcoh.cli import main

    inv = WORKLOADS["quad-narrow"](1)[0]
    good = tmp_path / "good.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*inv.argv, "--out", str(good)]) == 0
    assert checks.CsvCheck({}).check(good, inv) == (True, "")

    lines = good.read_text().splitlines()
    fields = lines[5].split(",")
    fields[8] = repr(float(fields[8]) * (1.0 + 1e-7))  # c_f_quadrature
    lines[5] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    ok, message = checks.CsvCheck({}).check(bad, inv)
    assert not ok and "c_f_quadrature" in message
    # a recorded hash of the good bytes does not excuse the bad ones
    digest = hashlib.sha256(good.read_bytes()).hexdigest()
    assert not checks.CsvCheck({inv.name: digest}).check(bad, inv)[0]
