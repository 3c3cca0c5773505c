"""Exact stdout and exit code of the CLI on a fixed list of argv lines.

tests/data/cli_golden.json holds, for about forty argv lines over all nine
subcommands, the exit code and the exact stdout of `python -m knotcert`,
recorded with COLUMNS=80 (argparse wraps --help to the terminal width).  The
CLI is configured by argv alone, so every line runs with hostile values of
the KNOTCERT_* variables that knotcert 0.2.0 read.  Most lines run through
dispatch, which is what main prints; a few run as a real process, so the
entry point, the trailing newline and the exit status are covered too.  An
intended change of output means recording the file again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from knotcert.cli import dispatch

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
AS_PROCESS = [
    ("r-invariant", "2", "3", "5"),
    ("certify", "--family", "2,2,5;2,2,3", "--format", "text"),
    ("tau", "2", "3"),
]
BY_ARGV = {tuple(entry["argv"]): entry for entry in GOLDEN}
# The KNOTCERT_* values would each change some golden line if the CLI still
# read them.
GOLDEN_ENV = {
    "COLUMNS": "80",
    "KNOTCERT_FORMAT": "csv",
    "KNOTCERT_TOLERANCE": "0.9",
    "KNOTCERT_PRECISION_BITS": "32",
}
SUBCOMMANDS = {
    "r-invariant", "tau", "compactness", "cover", "cobordism",
    "certify", "generate", "snf", "definiteness",
}


def test_golden_list_covers_every_subcommand_and_exit_code():
    commands = {arg for entry in GOLDEN for arg in entry["argv"]}
    assert SUBCOMMANDS | {"--help"} <= commands
    assert {entry["code"] for entry in GOLDEN} == {0, 1, 2}
    assert set(AS_PROCESS) <= set(BY_ARGV)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_dispatch_matches_golden(entry, monkeypatch):
    for name, value in GOLDEN_ENV.items():
        monkeypatch.setenv(name, value)
    code, output = dispatch(list(entry["argv"]))
    assert code == entry["code"]
    assert (output + "\n" if output else "") == entry["stdout"]


def _no_json_numbers(text):
    raise AssertionError(f"JSON number {text} in CLI output")


def test_golden_json_outputs_carry_no_json_number():
    objects = [e for e in GOLDEN if e["stdout"].startswith("{")]
    assert {arg for e in objects for arg in e["argv"]} >= SUBCOMMANDS
    for entry in objects:
        json.loads(entry["stdout"], parse_int=_no_json_numbers, parse_float=_no_json_numbers)


@pytest.mark.parametrize("argv", AS_PROCESS, ids=" ".join)
def test_entry_point_matches_golden(argv):
    entry = BY_ARGV[argv]
    proc = subprocess.run(
        [sys.executable, "-m", "knotcert", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **GOLDEN_ENV},
    )
    assert proc.returncode == entry["code"]
    assert proc.stdout == entry["stdout"]
    assert proc.stderr == ""
