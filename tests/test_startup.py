"""What a fresh process loads: ``import boostcoh`` loads no numpy, and
``import boostcoh.cli`` loads numpy with one OpenBLAS thread unless the user
set a thread count or numpy was loaded first.

Each case runs in a new interpreter whose environment has the BLAS thread
variables removed, since this process may have set one of them.
"""

import json
import os
import subprocess
import sys

import pytest

from boostcoh import cli
from boostcoh.cli import THREAD_VARIABLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# Prints the thread variables and OpenBLAS's own thread count (None when the
# numpy build exposes no scipy-openblas library) after ``setup`` ran.
PROBE = """
import contextlib, ctypes, json, os
{setup}
threads = None
with contextlib.suppress(OSError, StopIteration, AttributeError):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        lib = next(line.split()[-1] for line in fh if "openblas" in line.lower())
    get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    threads = get()
print(json.dumps({{"env": {{k: os.environ.get(k) for k in {names!r}}}, "threads": threads}}))
"""


def fresh_env(**preset: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return {**env, **preset}


def run_fresh(code: str, **preset: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(**preset),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def probe(setup: str, **preset: str) -> dict:
    report = json.loads(run_fresh(PROBE.format(setup=setup, names=THREAD_VARIABLES), **preset))
    if report["threads"] is None:
        pytest.skip("numpy exposes no scipy-openblas thread query")
    return report


def test_package_import_loads_no_numpy():
    code = (
        "import sys, boostcoh\n"
        "print('numpy' in sys.modules)\n"
        "boostcoh.c_l1\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_fresh(code).split() == ["False", "True"]


def test_unknown_package_attribute_raises():
    import boostcoh

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        boostcoh.no_such_name


def test_cli_import_loads_numpy_with_one_thread():
    code = "import sys, boostcoh.cli\nprint('numpy' in sys.modules)"
    assert run_fresh(code).split() == ["True"]
    report = probe("import boostcoh.cli")
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
    assert report["threads"] == 1


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_user_thread_setting_wins(name):
    report = probe("import boostcoh.cli", **{name: "2"})
    assert report["env"] == {k: "2" if k == name else None for k in THREAD_VARIABLES}
    assert report["threads"] == probe("import numpy", **{name: "2"})["threads"]


def test_numpy_loaded_first_is_left_alone():
    default = probe("import numpy")
    report = probe("import numpy, boostcoh.cli")
    assert report["env"] == dict.fromkeys(THREAD_VARIABLES)
    assert report["threads"] == default["threads"]
