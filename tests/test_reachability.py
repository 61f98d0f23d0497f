"""The reachability ledger matches what the CLI transcript leaves unrun in ``src/boostcoh``.

The tracer, the comparison and the recorder are in ``tests/reachability.py``;
the ledger is ``tests/reachability.json``.
"""

import time

import pytest

from reachability import REASONS, compare, load, traced_replay, unreached


@pytest.fixture(scope="module")
def replay():
    start = time.perf_counter()
    ran = traced_replay()
    return ran, time.perf_counter() - start


def test_the_ledger_lists_every_unreached_line(replay):
    ran, _ = replay
    assert compare(unreached(ran), load()) == []


def test_the_traced_replay_takes_under_three_seconds(replay):
    # a fresh interpreter, its imports included
    assert replay[1] < 3.0


def test_every_entry_has_a_reason():
    assert all(entry["reason"] in REASONS for entry in load())


def test_the_comparison_fails_on_a_new_line_and_a_stale_entry():
    kept = ("cli", "main", "return 2")
    ledger = [
        {"module": "cli", "function": "main", "line": "return 2", "reason": REASONS[0]},
        {"module": "core", "function": "gone", "line": "pass", "reason": REASONS[1]},
    ]
    new = ("density", "_checked_rows", "raise ValueError()")
    assert compare([kept], ledger[:1]) == []
    assert compare([kept, new], ledger) == [
        f"unreached, not in the ledger: {new}",
        "in the ledger, but reached: ('core', 'gone', 'pass')",
    ]
    # a line that is there twice needs two entries
    assert compare([kept, kept], ledger[:1]) == [f"unreached, not in the ledger: {kept}"]


def test_the_comparison_fails_on_an_entry_without_a_reason():
    entry = {"module": "cli", "function": "main", "line": "return 2", "reason": ""}
    assert compare([("cli", "main", "return 2")], [entry]) == [
        "no reason: ('cli', 'main', 'return 2')"
    ]


def test_body_lines_key_comprehensions_and_nested_defs(tmp_path):
    from reachability import body_lines

    path = tmp_path / "mod.py"
    path.write_text(
        "X = 1\n"
        "def outer(xs):\n"
        "    '''Doc.'''\n"
        "    def inner():\n"
        "        return [x for x in xs]\n"
        "    return inner\n"
        "class K:\n"
        "    Y = 2\n"
        "    def method(self):\n"
        "        return 3\n",
        encoding="utf-8",
    )
    lines = body_lines(path)
    assert lines[4] == ("outer.<locals>.inner", "def inner():")
    assert lines[5] == ("outer.<locals>.inner", "return [x for x in xs]")
    assert lines[6] == ("outer", "return inner")
    assert lines[10] == ("K.method", "return 3")
    assert 1 not in lines and 3 not in lines and 8 not in lines
