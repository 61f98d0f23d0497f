"""The CLI transcript: what ``boostcoh`` prints and writes for a fixed list of argv.

Each case runs through ``boostcoh.cli.main`` in this process, in a fresh
temporary directory that holds the case's input files.  Its record is the
argv, the exit code, ``stdout``, ``stderr``, the warnings raised and, for a
``sweep`` or ``figure`` case, the SHA-256 of ``{tmp}/out.csv`` after the
run, or a note that no file is there.  The temporary directory's path is
written as ``{tmp}`` in the argv, in the input files and in the output.

``tests/test_cli_transcript.py`` replays every case against the recorded
``tests/cli_transcript.json``.  To re-record it, run from the repository
root:

    PYTHONPATH=src python3 tests/cli_transcript.py --record [NAME ...]

Named cases are recorded alone and the other records kept as they are;
with no name, every case is recorded.  Each recorded case is printed with
the fields of its record that changed (argv, exit, stdout, stderr,
warnings, csv), so a re-record shows exactly what moved.  Re-record only in
a change that is meant to alter what the CLI prints or writes, or to record
a new case, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
NO_FILE = "no file written"
TMP = "{tmp}"
OUT = ["--out", f"{TMP}/out.csv"]

# Argparse wraps its usage lines to the terminal width, which it reads from
# COLUMNS first.
COLUMNS = "80"

NEUTRON = ["--mass", "939.36"]
QUAD = ["--method", "quadrature"]
SMALL = ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "1",
         "--sigma-max", "2", "--steps", "2", "--betas", "0.0,0.3"]
CROSSING = ["sweep", "--methods", "quadrature", "--n", "1", "--mass", "1", "--sigma-min",
            "0.5", "--sigma-max", "3", "--steps", "6", "--betas", "0.999"]
TWO_BLOCKS = ["sweep", "--n", "1", *NEUTRON, "--sigma-min", "5",
              "--sigma-max", "560", "--steps", "257", "--betas", "0.3:0.95,0.9:0.9",
              "--methods", "quadrature"]

# name -> (argv, input files as {name: text}); every failure message the
# sweep's first failing row can print has a case here.
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    # no subcommand, or one that does not exist
    "no-command": ([], {}),
    "unknown-command": (["plot"], {}),
    "missing-config-file": (["wigner", "--config", f"{TMP}/absent.cfg"], {}),
    # wigner
    "wigner": (["wigner", "--beta", "0.95", "--p-over-m", "1"], {}),
    "wigner-rest": (["wigner", "--beta", "0", "--p-over-m", "5"], {}),
    "wigner-zero-momentum": (["wigner", "--beta", "0.7", "--p-over-m", "0"], {}),
    "wigner-beta-out-of-range": (["wigner", "--beta", "1.2", "--p-over-m", "1"], {}),
    "wigner-nan-momentum": (["wigner", "--beta", "0.5", "--p-over-m=nan"], {}),
    "wigner-overflowing-momentum": (["wigner", "--beta", "0.5", "--p-over-m=1e300"], {}),
    "wigner-missing-flag": (["wigner", "--beta", "0.5"], {}),
    "wigner-config": (["wigner", "--config", f"{TMP}/run.cfg"],
                      {"run.cfg": "beta = 0.95\np_over_m = 1  # comment\n"}),
    "wigner-config-unknown-key": (["wigner", "--config", f"{TMP}/run.cfg"],
                                  {"run.cfg": "beta = 0.5\nsigma = 1\n"}),
    "wigner-config-bad-line": (["wigner", "--config", f"{TMP}/run.cfg"],
                               {"run.cfg": "beta 0.5\n"}),
    "wigner-config-empty-key": (["wigner", "--config", f"{TMP}/run.cfg"],
                                {"run.cfg": "beta = 0.5\n = 5\n"}),
    # coherence: one point
    "coherence-single-perturbative": (
        ["coherence", "--theta", "0.7853982", "--beta", "0.95", "--sigma", "100", *NEUTRON], {}),
    "coherence-single-exact-eig": (
        ["coherence", "--beta", "0.95", "--sigma", "100", *NEUTRON, "--method", "exact-eig"], {}),
    "coherence-single-quadrature": (
        ["coherence", "--beta", "0.95", "--sigma", "100", *NEUTRON, *QUAD], {}),
    "coherence-rest": (
        ["coherence", "--theta", "0.5", "--beta", "0", "--sigma", "50", *NEUTRON], {}),
    "coherence-dual-perturbative": (
        ["coherence", "--beta", "0.95:0.8", "--sigma", "100", *NEUTRON], {}),
    "coherence-dual-exact-eig": (
        ["coherence", "--beta", "0.95:0.8", "--sigma", "100", *NEUTRON, "--method", "exact-eig"],
        {}),
    "coherence-dual-quadrature": (
        ["coherence", "--beta", "0.95:0.8", "--sigma", "100", *NEUTRON, *QUAD], {}),
    "coherence-negative-n": (
        ["coherence", "--beta", "0.5", "--sigma", "10", "--mass", "100", "--n", "-1"], {}),
    "coherence-missing-sigma": (["coherence", "--beta", "0.5", *NEUTRON], {}),
    # one spelling of a beta configuration: the removed flags and config keys
    # exit 2 as unrecognized arguments, and a third beta is not a configuration
    "coherence-single-with-beta1": (
        ["coherence", "--beta", "0.5", "--beta1", "0.5", "--sigma", "10", *NEUTRON], {}),
    "coherence-dual-with-beta": (
        ["coherence", "--beta", "0.5:0.5:0.9", "--sigma", "10", *NEUTRON], {}),
    "coherence-config-scenario": (["coherence", "--config", f"{TMP}/run.cfg"],
                                  {"run.cfg": "scenario = dual\nbeta1 = 0.5\nbeta2 = 0.5\n"
                                              "sigma = 10\nmass = 939.36\n"}),
    "coherence-beta-not-a-number": (
        ["coherence", "--beta", "0.5:abc", "--sigma", "10", *NEUTRON], {}),
    "coherence-nan-sigma": (["coherence", "--beta", "0.5", "--sigma=nan", *NEUTRON], {}),
    "coherence-zero-mass": (["coherence", "--beta", "0.5", "--sigma", "10", "--mass", "0"], {}),
    "coherence-beta-one": (["coherence", "--beta", "1", "--sigma", "10", *NEUTRON], {}),
    "coherence-theta-out-of-range": (
        ["coherence", "--theta", "2", "--beta", "0.5", "--sigma", "10", *NEUTRON], {}),
    # the quadrature picks its own order: the removed order flags, on the
    # command line or as config keys, exit 2 as unrecognized arguments
    "coherence-quad-order-zero": (
        ["coherence", "--beta", "0.95", "--sigma", "100", *NEUTRON, *QUAD, "--quad-order", "0"],
        {}),
    "coherence-quad-order-256": (
        ["coherence", "--beta", "0.9", "--sigma", "100", *NEUTRON, *QUAD, "--quad-order", "256"],
        {}),
    "coherence-quad-max-order-16": (
        ["coherence", "--beta", "0.9", "--sigma", "100", *NEUTRON, *QUAD,
         "--quad-max-order", "16"], {}),
    "coherence-quad-max-order-512": (
        ["coherence", "--beta", "0.9", "--sigma", "100", *NEUTRON, *QUAD,
         "--quad-max-order", "512"], {}),
    "coherence-bad-orders-ignored-off-quadrature": (
        ["coherence", "--beta", "0.9", "--sigma", "100", *NEUTRON, "--quad-order", "0"], {}),
    "coherence-config-quad-order": (["coherence", "--config", f"{TMP}/run.cfg"],
                                    {"run.cfg": "beta = 0.9\nsigma = 100\nmass = 939.36\n"
                                                "method = quadrature\nquad_order = 32\n"}),
    # the first failing row's checks, in order
    "coherence-sigma-over-m-above-one": (
        ["coherence", "--beta", "0.5", "--sigma", "200", "--mass", "100"], {}),
    "coherence-sigma-over-m-above-one-quadrature": (
        ["coherence", "--beta", "0.5", "--sigma", "200", "--mass", "100", *QUAD], {}),
    "coherence-sigma-over-m-one": (
        ["coherence", "--beta", "0.5", "--sigma", "100", "--mass", "100", "--method",
         "exact-eig"], {}),
    "coherence-sigma-over-m-overflows": (
        ["coherence", "--beta", "0.5", "--sigma", "1e300", "--mass", "1e-10"], {}),
    "coherence-sigma-over-m-underflows-quadrature": (
        ["coherence", "--beta", "0.5", "--sigma", "1e-300", "--mass", "1e300", *QUAD], {}),
    "coherence-n-above-bound": (
        ["coherence", "--beta", "0.5", "--sigma", "100", *NEUTRON, "--n", "300"], {}),
    "coherence-n-above-bound-dual-quadrature": (
        ["coherence", "--beta", "0.5:0.9", "--sigma", "100", *NEUTRON, "--n", "150", *QUAD], {}),
    "coherence-factor-sum": (
        ["coherence", "--beta", "0.999999", "--sigma", "845.424", *NEUTRON], {}),
    "coherence-factor-sum-exact-eig": (
        ["coherence", "--beta", "0.999999", "--sigma", "845.424", *NEUTRON, "--method",
         "exact-eig"], {}),
    "coherence-factor-sum-dual-quadrature": (
        ["coherence", "--beta", "0.9999:0.9999", "--sigma", "798.456", *NEUTRON, "--n", "1",
         *QUAD], {}),
    "coherence-quadrature-n-149": (
        ["coherence", *QUAD, "--n", "149", "--beta", "0.95", "--sigma", "93.936", *NEUTRON], {}),
    "coherence-quadrature-tolerance": (
        ["coherence", *QUAD, "--n", "200", "--beta", "0.3", "--sigma", "0.9", *NEUTRON], {}),
    "coherence-quadrature-tolerance-capped": (
        ["coherence", "--beta", "0.999", "--sigma", "0.5", "--mass", "1", "--n", "1", *QUAD,
         "--quad-max-order", "32"], {}),
    "coherence-config": (["coherence", "--config", f"{TMP}/run.cfg"],
                         {"run.cfg": "beta = 0.95\nsigma = 100\nmass = 939.36\n"
                                     "method = exact-eig\n"}),
    "coherence-config-overridden": (["coherence", "--config", f"{TMP}/run.cfg", "--beta", "0"],
                                    {"run.cfg": "beta = 0.95\nsigma = 100\nmass = 939.36\n"}),
    "coherence-config-bad-choice": (["coherence", "--config", f"{TMP}/run.cfg"],
                                    {"run.cfg": "beta = 0.95\nsigma = 100\nmass = 939.36\n"
                                                "method = exact\n"}),
    # sweep
    "sweep-small": ([*SMALL, *OUT], {}),
    "sweep-single-all-methods": (
        ["sweep", "--theta", "0.6", "--n", "2", *NEUTRON, "--sigma-min", "10", "--sigma-max",
         "250", "--steps", "5", "--betas", "0.95,0.0,0.3",
         "--methods", "perturbative,exact-eig,quadrature", *OUT], {}),
    "sweep-dual-all-methods": (
        ["sweep", "--theta", "0.6", "--n", "2", *NEUTRON, "--sigma-min", "10", "--sigma-max",
         "250", "--steps", "5", "--betas", "0.3:0.95,0.8:0.8",
         "--methods", "perturbative,exact-eig,quadrature", *OUT], {}),
    "sweep-replaces-file": ([*SMALL, *OUT], {"out.csv": "an older file\n"}),
    "sweep-two-blocks-quadrature": ([*TWO_BLOCKS, *OUT], {}),
    "sweep-no-methods": ([*SMALL, "--methods", "", *OUT], {}),
    "sweep-unknown-method": ([*SMALL, "--methods", "perturbative,exact", *OUT], {}),
    "sweep-zero-sigma-min": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "0", "--sigma-max", "2", "--steps", "2",
         "--betas", "0.5", *OUT], {}),
    "sweep-reversed-grid": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "3", "--sigma-max", "2", "--steps", "2",
         "--betas", "0.5", *OUT], {}),
    "sweep-one-step": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "1", "--sigma-max", "2", "--steps", "1",
         "--betas", "0.5", *OUT], {}),
    "sweep-missing-out": (SMALL, {}),
    "sweep-missing-directory": ([*SMALL, "--out", f"{TMP}/absent/out.csv"], {}),
    # both forms, or both spellings, of the beta configurations
    "sweep-single-with-beta-pairs": ([*SMALL, "--beta-pairs", "0.5:0.5", *OUT], {}),
    "sweep-mixed-forms": ([*SMALL[:-1], "0.5,0.3:0.6", *OUT], {}),
    # the two old spellings the benchmark's workload argv still use
    "sweep-dual-all-methods-old-spelling": (
        ["sweep", "--scenario", "dual", "--theta", "0.6", "--n", "2", *NEUTRON, "--sigma-min",
         "10", "--sigma-max", "250", "--steps", "5", "--beta-pairs", "0.3:0.95,0.8:0.8",
         "--methods", "perturbative,exact-eig,quadrature", *OUT], {}),
    "sweep-scenario-mismatch": (["sweep", "--scenario", "dual", *SMALL[1:], *OUT], {}),
    "sweep-bad-beta-pair": (
        ["sweep", "--scenario", "dual", "--n", "2", *NEUTRON, "--sigma-min", "1",
         "--sigma-max", "2", "--steps", "2", "--beta-pairs", "0.5", *OUT], {}),
    "sweep-crossing-sigma-over-m": ([*CROSSING, *OUT], {"out.csv": "kept\n"}),
    "sweep-crossing-capped": ([*CROSSING, "--quad-max-order", "32", *OUT], {}),
    "sweep-crossing-bad-orders": (
        [*CROSSING, "--quad-order", "32", "--quad-max-order", "32", *OUT], {}),
    "sweep-factor-sum-later-row": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "800", "--sigma-max", "900", "--steps",
         "5", "--betas", "0.3,0.999999", "--methods", "exact-eig", *OUT], {}),
    "sweep-quadrature-n-149": (
        ["sweep", "--n", "149", *NEUTRON, "--sigma-min", "50", "--sigma-max", "93.936",
         "--steps", "3", "--betas", "0.95", "--methods", "perturbative,quadrature", *OUT], {}),
    "sweep-quadrature-tolerance": (
        ["sweep", "--n", "200", *NEUTRON, "--sigma-min", "0.9", "--sigma-max", "1.8", "--steps",
         "2", "--betas", "0.3", "--methods", "quadrature", *OUT], {}),
    # failures on a row of the second block of 256
    "sweep-sigma-over-m-second-block": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "10", "--sigma-max", "1000", "--steps",
         "300", "--betas", "0.0,0.5", *OUT], {"out.csv": "kept\n"}),
    "sweep-n-bound-second-block": (
        ["sweep", "--n", "40", "--mass", "1", "--sigma-min", "0.01",
         "--sigma-max", "0.25", "--steps", "400", "--betas", "0.5:0.5,0.3:0.6",
         "--methods", "perturbative,exact-eig", *OUT], {}),
    "sweep-sigma-over-m-overflows": (
        ["sweep", "--n", "2", "--mass", "1e-10", "--sigma-min", "1e290", "--sigma-max", "1e300",
         "--steps", "3", "--betas", "0.5", "--methods", "perturbative,quadrature", *OUT], {}),
    "sweep-config": (["sweep", "--config", f"{TMP}/run.cfg", *OUT],
                     {"run.cfg": "n = 2\nmass = 939.36\nsigma_min = 10\nsigma_max = 100\n"
                                 "steps = 4\nbetas = 0.5\nmethods = exact-eig\n"}),
    # figure
    "figure-fig1": (["figure", "fig1", "--steps", "12", *OUT], {}),
    "figure-fig2": (["figure", "fig2", "--steps", "6", *OUT], {}),
    "figure-fig2-two-blocks": (["figure", "fig2", "--steps", "257", *OUT], {}),
    "figure-unknown": (["figure", "fig3", *OUT], {}),
    "figure-one-step": (["figure", "fig1", "--steps", "1", *OUT], {}),
    "figure-nan-mass": (["figure", "fig1", "--mass=nan", *OUT], {}),
    "figure-n-bound-later-row": (["figure", "fig2", "--steps", "8", "--n", "40", *OUT], {}),
    "figure-config": (["figure", "fig1", "--config", f"{TMP}/run.cfg", *OUT],
                      {"run.cfg": "steps = 8\nbetas = 0.3,0.8\n"}),
    # a conflicting config file: no value may silently win
    "config-repeated-key": (["coherence", "--config", f"{TMP}/run.cfg"],
                            {"run.cfg": "beta = 0.5\nsigma = 100\nmass = 939.36\nbeta = 0.7\n"}),
    "config-nested-config": (["sweep", "--config", f"{TMP}/run.cfg", *OUT],
                             {"run.cfg": "n = 2\nmass = 939.36\nsigma_min = 10\nsigma_max = 100\n"
                                         f"steps = 4\nbetas = 0.5\nconfig = {TMP}/other.cfg\n",
                              "other.cfg": "betas = 0.7\n"}),
    "config-repeated-key-through-prefix": (
        ["coherence", "--config", f"{TMP}/run.cfg", "--beta", "0.5", *NEUTRON],
        {"run.cfg": "sigma = 100\nsig = 200\n"}),
    # branches that only these inputs reach
    "coherence-quadrature-n-zero": (
        ["coherence", *QUAD, "--n", "0", "--beta", "0.9", "--sigma", "100", *NEUTRON], {}),
    "config-blank-and-comment-lines": (["wigner", "--config", f"{TMP}/run.cfg"],
                                       {"run.cfg": "# a point\n\nbeta = 0.95\n\np_over_m = 1\n"}),
    "coherence-non-integer-n": (
        ["coherence", "--n", "1.5", "--beta", "0.5", "--sigma", "100", *NEUTRON], {}),
    "sweep-empty-beta-pair": (
        ["sweep", "--n", "2", *NEUTRON, "--sigma-min", "1",
         "--sigma-max", "2", "--steps", "2", "--betas", "0.5:0.5,,0.3:0.6", *OUT], {}),
    "sweep-no-betas": ([*SMALL[:-1], ",", *OUT], {}),  # "--betas ," lists no beta
    "coherence-negative-quad-order": (
        ["coherence", "--beta", "0.9", "--sigma", "100", *NEUTRON, *QUAD, "--quad-order", "-1"],
        {}),
}


def run_case(argv: list[str], files: dict[str, str]) -> dict:
    """Run one case in a fresh temporary directory and return its record."""
    from boostcoh.cli import main

    with tempfile.TemporaryDirectory() as name:
        tmp = str(Path(name).resolve())
        for file, text in files.items():
            Path(tmp, file).write_text(text.replace(TMP, tmp), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = COLUMNS
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([arg.replace(TMP, tmp) for arg in argv])
        finally:
            if saved is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = saved
        record = {
            "argv": argv,
            "exit": code,
            "stdout": out.getvalue().replace(tmp, TMP),
            "stderr": err.getvalue().replace(tmp, TMP),
            "warnings": [f"{w.category.__name__}: {w.message}".replace(tmp, TMP) for w in caught],
        }
        if argv[:1] in (["sweep"], ["figure"]):
            csv = Path(tmp, "out.csv")
            record["csv"] = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else NO_FILE
    return record


def record(names=CASES) -> dict:
    return {name: run_case(*CASES[name]) for name in names}


def main(argv: list[str]) -> int:
    if argv[:1] != ["--record"] or not set(argv[1:]) <= set(CASES):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old = json.loads(TRANSCRIPT.read_text(encoding="utf-8")) if TRANSCRIPT.exists() else {}
    new = record(argv[1:] or CASES)
    for name, fields in new.items():
        if name not in old:
            print(f"{name}: new case")
            continue
        keys = dict.fromkeys([*old[name], *fields])
        changed = [key for key in keys if old[name].get(key) != fields.get(key)]
        print(f"{name}: {', '.join(changed) or 'unchanged'}")
    records = {name: new[name] if name in new else old[name] for name in CASES}
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(new)} cases to {TRANSCRIPT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
