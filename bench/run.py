"""The boostcoh benchmark: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

It drives ``boostcoh.cli`` the way a user does, as one client in a closed
loop: each invocation starts only after the previous one has exited.  The
package is run from ``src/``; it need not be installed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Each
pass of the measured loop makes one fresh-process round (every invocation
of the workload as its own process) and one warm round (every invocation
through ``boostcoh.cli.main`` in this process, caches already filled), with
an import probe (a fresh process running ``import boostcoh.cli``) before,
between and after them.  Each metric is the median over the passes;
``setup_s`` is the median over all import probes of the run.

``--trace 1`` reports the per-layer metrics.  It times ``import
boostcoh.cli`` in fresh processes, then makes one cold traced round, then
alternates untraced and traced warm rounds.  Per-layer values are medians
over the traced warm rounds; the longest node build is taken over all
traced rounds, so it includes the cold one.

Every CSV is checked (see ``checks.py``).  The last line of standard output
is the JSON result; the full record, with the environment and every sample,
is written to ``.bench_build/bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
MIN_PASSES = 3  # measured passes made even when --seconds is already spent
IMPORT_PROBES = 5  # fresh-process import timings in a traced run
CHILD_TIMEOUT_S = 120.0

ENTRY = "import sys; from boostcoh.cli import entry_point; sys.argv[0] = 'boostcoh'; entry_point()"
IMPORT = "import boostcoh.cli"
TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import boostcoh.cli; "
    "print(repr(time.perf_counter() - t))"
)


def median(values) -> float:
    return float(statistics.median(values))


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.invocations = WORKLOADS[workload](seed)
        refs = checks.load_references().get(workload, {}).get(str(seed), {})
        self.check = checks.CsvCheck(refs)
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.cli = None  # boostcoh.cli, imported after the fresh-process probes

    # -- fresh processes ---------------------------------------------------

    def spawn(self, code: str, args=()) -> tuple[int, float, float, float]:
        """Run ``python -c code args``; (exit code, wall s, cpu s, max RSS MiB)."""
        err_path = OUT / "child.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", code, *args], cwd=OUT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-400:]
            self.failures.append(f"exit {proc.returncode}: {code[:40]} {' '.join(args)[:80]}: {tail}")
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def import_probe(self) -> float:
        self.attempted += 1
        return self.spawn(IMPORT)[1]

    def timed_import_probe(self) -> float:
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_IMPORT], cwd=OUT, env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            self.failures.append(f"import exit {proc.returncode}: {proc.stderr[-400:]}")
            return 0.0
        return float(proc.stdout.strip())

    def fresh_round(self) -> dict:
        wall = cpu = rss = 0.0
        for inv in self.invocations:
            out = OUT / f"fresh-{inv.name}.csv"
            out.unlink(missing_ok=True)  # a stale file must not pass the check
            self.attempted += 1
            code, w, c, r = self.spawn(ENTRY, (*inv.argv, "--out", str(out)))
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if code == 0:
                self.verify(out, inv)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    # -- in process --------------------------------------------------------

    def warm_round(self, trace: tracer.Tracer | None = None) -> tuple[float, int]:
        """Every invocation through ``cli.main``; (seconds, CSV bytes)."""
        seconds, size = 0.0, 0
        for inv in self.invocations:
            out = OUT / f"warm-{inv.name}.csv"
            argv = [*inv.argv, "--out", str(out)]
            out.unlink(missing_ok=True)
            self.attempted += 1
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if trace is None:
                        code = self.cli.main(argv)
                    else:
                        code = trace.call("cli.main", self.cli.main, argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                code = None
                sink.write(traceback.format_exc())
            seconds += time.perf_counter() - start
            if code != 0:
                self.failures.append(f"main exit {code}: {' '.join(argv)[:80]}: {sink.getvalue()[-400:]}")
                continue
            if self.verify(out, inv):
                size += out.stat().st_size
        return seconds, size

    def verify(self, path: Path, inv) -> bool:
        if not path.is_file():
            self.failures.append(f"exit 0 but no output: {path.name}")
            return False
        ok, message = self.check.check(path, inv)
        if not ok:
            self.failures.append(message)
        return ok

    def import_cli(self) -> None:
        sys.path.insert(0, str(SRC))
        import boostcoh.cli

        self.cli = boostcoh.cli

    @property
    def rows(self) -> int:
        return sum(inv.rows for inv in self.invocations)

    # -- the two modes -----------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        self.import_probe()  # untimed: compiles the bytecode, warms the page cache
        self.import_cli()
        self.warm_round()  # untimed: fills the program's caches
        samples = {k: [] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "rows_per_s")}
        deadline = time.perf_counter() + seconds
        while len(samples["wall_s"]) < MIN_PASSES or time.perf_counter() < deadline:
            # import probes at three points of each pass, so that their median
            # spans the machine's drift over the whole run
            samples["setup_s"].append(self.import_probe())
            for key, value in self.fresh_round().items():
                samples[key].append(value)
            samples["setup_s"].append(self.import_probe())
            samples["rows_per_s"].append(self.rows / self.warm_round()[0])
            samples["setup_s"].append(self.import_probe())
        values = {k: median(v) for k, v in samples.items()}
        return values, {k: summary(v) for k, v in samples.items()}

    def per_layer(self, seconds: float, names: list[str]) -> tuple[dict, dict]:
        import_s = [self.timed_import_probe() for _ in range(IMPORT_PROBES)]
        self.import_cli()
        trace = tracer.Tracer()
        rounds, kept, untraced, traced = [], [], [], []
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_PASSES + 1 or time.perf_counter() < deadline:
            if rounds:  # the first round is the cold one and has no untraced twin
                untraced.append(self.warm_round()[0])
            trace.install()
            try:
                elapsed, csv_bytes = self.warm_round(trace)
            finally:
                trace.uninstall()
            if rounds:
                traced.append(elapsed)
            rounds.append(tracer.layer_metrics(trace.spans))
            if len(kept) < 2:
                kept.append(trace.spans)
            trace.spans = []
        for target in sorted(trace.missing):
            self.failures.append(f"trace target missing: {target}")
        warm = rounds[1:]
        values = {name: median(r.get(name, 0.0) for r in warm) for name in names}
        values[f"{tracer.NODES}.max_s"] = max(r.get(f"{tracer.NODES}.max_s", 0.0) for r in rounds)
        values["cli.import_s"] = median(import_s)
        values["cli.csv_bytes"] = csv_bytes
        values["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
        write_spans(OUT / f"spans-{self.workload}-{self.seed}.jsonl.gz", kept)
        detail = {
            "rounds": len(rounds),
            "cold_round": rounds[0],
            "import_s": summary(import_s),
            "traced_round_s": summary(traced),
            "untraced_round_s": summary(untraced),
        }
        return values, detail


def write_spans(path: Path, rounds) -> None:
    """The cold round and the first warm traced round, one JSON span a line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for number, spans in enumerate(rounds):
            for name, start, end, parent, run, arg in spans:
                fh.write(json.dumps({"round": number, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "arg": arg}) + "\n")


def environment() -> dict:
    env = {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))
        ).hexdigest(),
    }
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(l for l in fh if l.startswith("model name")).split(":", 1)[1].strip()
    with contextlib.suppress(Exception):  # numpy builds differ in what they expose
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    with contextlib.suppress(OSError, StopIteration, AttributeError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lib = next(l.split()[-1] for l in fh if "openblas" in l.lower())
        get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        env["blas_threads"]["runtime"] = get()
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the boostcoh CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "boostcoh" / "cli.py").is_file():
        print(f"error: {SRC / 'boostcoh' / 'cli.py'} not found; run from a boostcoh checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)

    bench = Bench(args.workload, args.seed)
    started = time.perf_counter()
    if args.trace:
        values, detail = bench.per_layer(args.seconds, [m["name"] for m in metrics])
    else:
        values, detail = bench.end_to_end(args.seconds)
    failed = len(bench.failures)
    values["ops_failed_frac"] = failed / bench.attempted
    # a malformed CSV counts as an infinite deviation, which JSON cannot carry
    values["csv_max_rel_dev"] = min(bench.check.max_rel_dev, sys.float_info.max)
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_s": time.perf_counter() - started,
        "argv": [list(inv.argv) for inv in bench.invocations],
        "ops_failed_frac": values["ops_failed_frac"], "csv_max_rel_dev": values["csv_max_rel_dev"],
        "failures": bench.failures[:20], "environment": environment(),
        "detail": detail, "result": result,
    }
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for inv in bench.invocations:
        for prefix in ("fresh", "warm"):
            (OUT / f"{prefix}-{inv.name}.csv").unlink(missing_ok=True)
    for message in bench.failures[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(f"ops_failed_frac {values['ops_failed_frac']!r}  csv_max_rel_dev "
          f"{values['csv_max_rel_dev']!r}  record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
