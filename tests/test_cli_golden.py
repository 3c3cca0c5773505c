"""Exact stdout and exit code of the CLI on a fixed list of argv lines.

tests/data/cli_golden.json holds, for about forty argv lines over all nine
subcommands, the exit code and the exact stdout of `python -m knotcert`,
recorded with no KNOTCERT_* variables set and COLUMNS=80 (argparse wraps
--help to the terminal width).  Most lines run through dispatch, which is
what main prints; a few run as a real process, so the entry point, the
trailing newline and the exit status are covered too.  An intended change of
output means recording the file again.
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
SUBCOMMANDS = {
    "r-invariant", "tau", "compactness", "cover", "cobordism",
    "certify", "generate", "snf", "definiteness",
}


def _clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KNOTCERT_")}
    env["COLUMNS"] = "80"
    return env


def test_golden_list_covers_every_subcommand_and_exit_code():
    commands = {arg for entry in GOLDEN for arg in entry["argv"]}
    assert SUBCOMMANDS | {"--help"} <= commands
    assert {entry["code"] for entry in GOLDEN} == {0, 1, 2}
    assert set(AS_PROCESS) <= set(BY_ARGV)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_dispatch_matches_golden(entry, monkeypatch):
    for name in [k for k in os.environ if k.startswith("KNOTCERT_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")
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
        env=_clean_env(),
    )
    assert proc.returncode == entry["code"]
    assert proc.stdout == entry["stdout"]
    assert proc.stderr == ""
