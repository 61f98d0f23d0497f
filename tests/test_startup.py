"""What a fresh process loads: ``import boostcoh`` loads no numpy, and
``import boostcoh.cli`` loads numpy with one OpenBLAS thread unless the user
set a thread count or numpy was loaded first.  The console entry point
freezes the import-time heap before it runs ``main``; ``main`` itself does
not.

Each case runs in a new interpreter whose environment has the BLAS thread
variables removed, since this process may have set one of them.
"""

import gc
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


def run_fresh(code: str, *args: str, check: bool = True, **preset: str):
    """Run ``code`` in a new interpreter: its stdout, or with ``check=False`` the whole result."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=fresh_env(**preset),
        capture_output=True, text=True, timeout=120,
    )
    if not check:
        return result
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


WIGNER = ["wigner", "--beta", "0.95", "--p-over-m", "1"]
ABBREVIATED = ["coherence", "--beta", "0.5", "--sig", "100", "--mass", "939.36"]


def test_entry_point_freezes_the_heap_by_exit():
    # an atexit probe runs after sys.exit, when shutdown's collections begin
    code = (
        "import atexit, gc, sys\n"
        "print(gc.get_freeze_count() > 0)\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "from boostcoh.cli import entry_point\n"
        f"sys.argv = ['boostcoh', *{WIGNER!r}]\n"
        "entry_point()\n"
    )
    lines = run_fresh(code).splitlines()
    assert [lines[0], lines[-1]] == ["False", "True"]


@pytest.mark.parametrize("argv, want", [(WIGNER, 0), (ABBREVIATED, 2)], ids=["exit-0", "exit-2"])
def test_entry_point_matches_main(argv, want, capsys, monkeypatch):
    # argparse wraps its usage lines to COLUMNS, so both sides get one width
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == want
    out, err = capsys.readouterr()
    result = run_fresh("from boostcoh.cli import entry_point; entry_point()", *argv,
                       check=False, COLUMNS="80")
    assert (result.returncode, result.stdout, result.stderr) == (want, out, err)


def test_main_leaves_the_heap_unfrozen(capsys):
    # library callers, the transcript replay and warm benchmark rounds call main
    before = gc.get_freeze_count()
    assert cli.main(WIGNER) == 0
    assert gc.get_freeze_count() == before
