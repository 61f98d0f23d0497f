"""Replay the recorded CLI transcript: every case prints and writes what it did when recorded.

The cases and the recorder are in ``tests/cli_transcript.py``; the record is
``tests/cli_transcript.json``.
"""

import json
import time

import pytest

from cli_transcript import CASES, TRANSCRIPT, record, run_case

RECORDED = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_the_record_holds_every_case():
    assert list(RECORDED) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_replays(name):
    argv, files = CASES[name]
    assert run_case(argv, files) == RECORDED[name]


def test_the_cases_cover_every_command_and_exit_code():
    commands = {r["argv"][0] for r in RECORDED.values() if r["argv"]}
    assert commands == {"wigner", "coherence", "sweep", "figure", "plot"}
    assert {r["exit"] for r in RECORDED.values()} == {0, 2, 3}


def test_the_whole_transcript_replays_in_under_three_seconds():
    start = time.perf_counter()
    record()
    assert time.perf_counter() - start < 3.0
