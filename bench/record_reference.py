"""Record the SHA-256 of every CSV the workloads make, for seeds 0..63.

Run from the repository root:

    python3 bench/record_reference.py

Each CSV must first pass the full check against the independent
recomputation in ``checks.py``; the hashes written to
``bench/reference.json`` then stand for the output of the commit this ran
on.  Re-record only in a change that is meant to alter the CSV bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "bench"
SEEDS = 64


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from boostcoh.cli import main as cli_main

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "record.csv"
    reference: dict = {}
    for workload, make in WORKLOADS.items():
        for seed in range(SEEDS):
            digests = {}
            for inv in make(seed):
                path.unlink(missing_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([*inv.argv, "--out", str(path)])
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed} {inv.name}: exit {code}")
                check = checks.CsvCheck({})
                ok, message = check.check(path, inv)
                if not ok:
                    raise SystemExit(f"{workload} seed {seed}: {message}")
                digests[inv.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            reference.setdefault(workload, {})[str(seed)] = digests
        print(f"{workload}: {SEEDS} seeds checked", flush=True)
    path.unlink()
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
