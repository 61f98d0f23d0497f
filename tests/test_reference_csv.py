"""The CLI reproduces the recorded CSV bytes of each benchmark workload.

Seeds 0-3 of every workload in ``bench/workloads.py`` are run through
:func:`boostcoh.cli.main`, and each CSV's SHA-256 is compared with
``bench/reference.json``, so a change that alters output bytes fails here
and not only in the benchmark.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from boostcoh.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def check_seed(workload, seed, tmp_path):
    for inv in WORKLOADS[workload](seed):
        out = tmp_path / f"{inv.name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*inv.argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == REFERENCE[workload][str(seed)][inv.name], inv.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_zero_matches_reference(workload, tmp_path):
    check_seed(workload, 0, tmp_path)


# The quadrature workloads see a different sigma grid and beta set per seed,
# and so different convergence orders per point; every workload's density
# matrices are built, validated and measured in stacks.
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["figure-closed", "quad-narrow", "quad-wide"])
def test_more_quadrature_seeds_match_reference(workload, seed, tmp_path):
    check_seed(workload, seed, tmp_path)
