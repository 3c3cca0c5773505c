"""README is the contract: it names every public name and every CLI
subcommand, and it keeps the history of contract breaks in one table, not in
per-version sections (CHANGES.md holds each release in full)."""

import argparse
import re
from pathlib import Path

import knotcert
from knotcert.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_names_the_public_api_and_every_subcommand_and_has_no_version_sections():
    missing = [name for name in knotcert.__all__ if not re.search(rf"\b{re.escape(name)}\b", README)]
    assert missing == []

    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    cli_section = README.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    table_commands = set(re.findall(r"^\| `([a-z-]+)", cli_section, flags=re.MULTILINE))
    assert table_commands == set(subparsers.choices)
    assert len(table_commands) == 9

    assert re.findall(r"^## 0\.", README, flags=re.MULTILINE) == []
