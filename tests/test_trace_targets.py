"""Every function the benchmark's tracer wraps still exists.

``bench/tracer.py`` wraps each ``(module, attribute)`` of ``TARGETS`` at the
name its caller looks it up by.  A target the program no longer has only
shows up as a failed traced benchmark run, so it is checked here too.  The
tracer module is loaded read-only; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _ in _load_targets()]
)
def test_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
