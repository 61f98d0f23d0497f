"""The CLI reproduces the recorded CSV bytes of each benchmark workload.

Seeds 0-3 of every workload in ``bench/workloads.py`` are run through
:func:`boostcoh.cli.main`, and each CSV's SHA-256 is compared with
``bench/reference.json``, so a change that alters output bytes fails here
and not only in the benchmark.  The quadrature workloads' argv still use
``sweep``'s two old spellings, ``--scenario`` and ``--beta-pairs``; the same
argv without them give the same bytes.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boostcoh.cli import THREAD_VARIABLES, main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def check_seed(workload, seed, tmp_path, spell=list):
    for inv in WORKLOADS[workload](seed):
        out = tmp_path / f"{inv.name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*spell(inv.argv), "--out", str(out)]) == 0
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


def one_spelling(argv) -> list[str]:
    """``argv`` without ``--scenario X``, and with ``--beta-pairs`` written ``--betas``."""
    argv = list(argv)
    if "--scenario" in argv:
        at = argv.index("--scenario")
        del argv[at:at + 2]
    return ["--betas" if arg == "--beta-pairs" else arg for arg in argv]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", ["quad-narrow", "quad-wide"])
def test_one_spelling_matches_reference(workload, seed, tmp_path):
    check_seed(workload, seed, tmp_path, spell=one_spelling)


def test_fresh_process_matches_reference(tmp_path):
    """A CLI process of its own, as a user runs it: numpy loads with one OpenBLAS
    thread, and quad-wide builds Gauss-Hermite nodes up to order 256 with it."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for inv in WORKLOADS["quad-wide"](0):
        out = tmp_path / f"{inv.name}.csv"
        subprocess.run(
            [sys.executable, "-m", "boostcoh.cli", *inv.argv, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == REFERENCE["quad-wide"]["0"][inv.name], inv.name
