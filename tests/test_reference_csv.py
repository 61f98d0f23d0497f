"""The CLI reproduces the recorded CSV bytes of each benchmark workload.

Seed 0 of every workload in ``bench/workloads.py`` is run through
:func:`boostcoh.cli.main` and each CSV's SHA-256 is compared with
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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_zero_matches_reference(workload, tmp_path):
    for inv in WORKLOADS[workload](0):
        out = tmp_path / f"{inv.name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*inv.argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == REFERENCE[workload]["0"][inv.name], inv.name
