"""In-process spans around the public functions of each ``boostcoh`` module.

Each public function is wrapped at the name its caller looks it up by
(``boostcoh.cli.moments_quadrature``, ``boostcoh.density.DensityMatrix``,
...), so the program itself is not edited.  A span is the tuple
``(name, start, end, parent, run_id, arg)``: ``parent`` is the index of the
enclosing span (-1 for a root), ``run_id`` numbers the CLI invocation it
belongs to, and ``arg`` is the quadrature order for
``integrals.gauss_hermite_nodes`` and 1 for a ``cli.run_sweep`` step that
yielded a row.  Spans stay in memory until :func:`layer_metrics` folds them.

``run_sweep`` is a generator, so each ``next()`` on it is its own span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

NODES = "integrals.gauss_hermite_nodes"
MOMENTS = "integrals.moments_quadrature"
ROW_STEP = "cli.run_sweep"

# (module the caller looks the name up in, attribute, span name).  Several
# attributes may share one span name: the single- and dual-boost variants of
# a constructor are one layer.
TARGETS = (
    ("boostcoh.cli", "boost_from_beta", "core.boost_from_beta"),
    ("boostcoh.density", "DensityMatrix", "core.DensityMatrix"),
    ("boostcoh.cli", "moments_quadrature", MOMENTS),
    ("boostcoh.integrals", "gauss_hermite_nodes", NODES),
    ("boostcoh.cli", "f_factor", "integrals.f_factor"),
    ("boostcoh.coherence", "f_factor", "integrals.f_factor"),
    ("boostcoh.cli", "rho_single_boost_perturbative", "density.rho_perturbative"),
    ("boostcoh.cli", "rho_dual_boost_perturbative", "density.rho_perturbative"),
    ("boostcoh.cli", "rho_single_boost_general", "density.rho_general"),
    ("boostcoh.cli", "rho_dual_boost_general", "density.rho_general"),
    ("boostcoh.cli", "hermitian_eigenvalues", "coherence.hermitian_eigenvalues"),
    ("boostcoh.cli", "spectrum_single_boost", "coherence.spectrum_closed"),
    ("boostcoh.cli", "spectrum_dual_boost", "coherence.spectrum_closed"),
    ("boostcoh.cli", "c_l1", "coherence.c_l1"),
    ("boostcoh.cli", "c_frobenius", "coherence.c_frobenius"),
    ("boostcoh.cli", "c_frobenius_perturbative", "coherence.c_frobenius_perturbative"),
    ("boostcoh.cli", "run_sweep", ROW_STEP),
    ("boostcoh.cli", "write_sweep_csv", "cli.write_sweep_csv"),
)

# Float64 values one node contributes per evaluated order: the node, its
# weight and the three half-angle components.  A model, not a measurement.
BYTES_PER_NODE = 5 * 8


class Tracer:
    """Installs the wrappers and records spans while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = 0
        # Targets the program no longer has.  The benchmark counts each as a
        # failure: an unwrapped layer would read as zero time, not as absent.
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            if name == ROW_STEP:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, record_arg=name == NODES)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span of a new run id."""
        self.run_id += 1
        return self._wrap(fn, name)(*args)

    # The wrappers bind the span list and stack when they are made, which is
    # at each install(): replacing ``spans`` between rounds is safe.
    def _wrap(self, fn, name: str, record_arg: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id,
                              args[0] if record_arg else None)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    yielded = None
                    try:
                        item = next(gen)
                        yielded = 1
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (name, start, end, parent, self.run_id, yielded)
                    yield item
            finally:
                gen.close()

        return wrapper


def layer_metrics(spans) -> dict[str, float]:
    """Fold one round of spans into per-layer counts and times.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _run, _arg in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    final_order: dict[int, int] = {}
    rows = quad_points = 0
    for idx, (name, start, end, parent, _run, arg) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{name}.self_s"] += duration - child_time[idx]
        out[f"{name}.max_s"] = max(out[f"{name}.max_s"], duration)
        if name == NODES:
            quad_points += arg
            final_order[parent] = arg  # the last order a moments call evaluated
        elif name == ROW_STEP and arg:
            rows += 1
    out["integrals.quad_points"] = quad_points
    out["integrals.quad_useful_ratio"] = (
        sum(final_order.values()) / quad_points if quad_points else 0.0
    )
    out["integrals.quad_bytes_computed"] = quad_points * BYTES_PER_NODE
    out["cli.rows"] = rows
    return dict(out)
