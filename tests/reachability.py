"""The reachability ledger: every line of ``src/boostcoh`` that the CLI transcript never runs.

The transcript (``tests/cli_transcript.py``) is replayed in a fresh
interpreter under ``sys.settrace``, which traces only frames of the
package's own files.  A function-body line that no case runs must be in the
ledger, ``tests/reachability.json``, with one of :data:`REASONS`.  A ledger
entry is keyed by its module, its function and its stripped text, not by
its line number, so an unrelated edit does not move it.

``tests/test_reachability.py`` fails on an unreached line the ledger lacks,
on a ledger entry whose line now runs, and on an entry without a reason.
To rewrite the ledger, run from the repository root:

    PYTHONPATH=src python3 tests/reachability.py --record

It keeps the reasons of the entries that stay and leaves a new entry's
reason empty, so the test fails until one is written in.  The ledger was
recorded under CPython 3.11; another version may lay a line's code out
differently and so count other lines.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "reachability.json"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boostcoh"

REASONS = (
    # a check on an argument of a library function, or its default, that
    # the CLI never trips or never uses: argparse or an earlier gate rejects
    # the value first, or the CLI always passes the argument
    "library-argument guard",
    # a check on a value computed at run time that no input is known to fail
    "runtime guard that no input is known to reach",
    # a failure raised by code outside the package
    "failure in foreign code",
    # run by an installed script or by attribute access on the package
    "entry point or package-namespace hook",
)


def _function(code: types.CodeType) -> str:
    """The qualified name of the def a code object belongs to, comprehensions folded into it."""
    parts = getattr(code, "co_qualname", code.co_name).split(".")
    while len(parts) > 1 and parts[-1].startswith("<"):
        parts.pop()
    return ".".join(parts)


def body_lines(path: Path) -> dict[int, tuple[str, str]]:
    """Each line of a function body in the module at ``path`` that holds code: line -> (function, text).

    A line shared by a function and one it defines (a nested ``def``) goes
    to the inner one.  Class bodies and module-level code are left out.
    """
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    lines = {}
    codes = [compile(source, str(path), "exec")]
    for code in codes:  # parents before the code objects they hold
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            for _, _, line in code.co_lines():
                if line is not None:
                    lines[line] = (_function(code), text[line - 1].strip())
    return lines


def unreached(ran: list[tuple[str, int]]) -> list[tuple[str, str, str]]:
    """The (module, function, text) of every function-body line not in ``ran``, in file order.

    ``ran`` holds (file name, line) pairs of the package's files.
    """
    done = set(map(tuple, ran))
    keys = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, (function, text) in sorted(body_lines(path).items()):
            if (path.name, line) not in done:
                keys.append((path.stem, function, text))
    return keys


def compare(keys: list[tuple[str, str, str]], ledger: list[dict]) -> list[str]:
    """What is wrong with ``ledger`` for the unreached ``keys``; empty when it matches."""
    want = Counter(keys)
    have = Counter((e["module"], e["function"], e["line"]) for e in ledger)
    problems = [f"unreached, not in the ledger: {k}" for k in (want - have).elements()]
    problems += [f"in the ledger, but reached: {k}" for k in (have - want).elements()]
    problems += [
        f"no reason: {(e['module'], e['function'], e['line'])}"
        for e in ledger if e["reason"] not in REASONS
    ]
    return problems


def load() -> list[dict]:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def traced_replay() -> list[tuple[str, int]]:
    """The (file name, line) pairs of the package that the transcript runs, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, __file__, "--trace"], env=env, capture_output=True, text=True, check=True
    )
    return [tuple(pair) for pair in json.loads(done.stdout)]


def _trace() -> None:
    """Replay the transcript under ``sys.settrace`` and print the lines of the package it ran."""
    root = os.path.dirname(importlib.util.find_spec("boostcoh").origin) + os.sep
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    from cli_transcript import record

    sys.settrace(call)
    try:
        record()
    finally:
        sys.settrace(None)
    print(json.dumps(sorted((os.path.basename(f), line) for f, line in ran)))


def _record() -> None:
    """Rewrite the ledger for this replay, keeping the reasons of the entries that stay."""
    reasons = {}
    for e in load() if LEDGER.exists() else []:
        reasons.setdefault((e["module"], e["function"], e["line"]), []).append(e["reason"])
    entries = []
    for module, function, line in unreached(traced_replay()):
        kept = reasons.get((module, function, line)) or [""]
        entries.append({"module": module, "function": function, "line": line,
                        "reason": kept.pop(0)})
    LEDGER.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n", encoding="utf-8"
    )
    print(f"recorded {len(entries)} unreached lines to {LEDGER.name}")


def main(argv: list[str]) -> int:
    if argv == ["--trace"]:
        _trace()
    elif argv == ["--record"]:
        _record()
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
