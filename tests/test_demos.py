"""Exact stdout of every demo script.

tests/data/demos_golden.json maps each demos/*.py file name to its stdout.
Each demo runs in a new interpreter with src on PYTHONPATH, as a user script would.  An intended
change of output means recording the file again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
GOLDEN = json.loads((Path(__file__).parent / "data" / "demos_golden.json").read_text())


def test_golden_names_every_demo():
    assert set(GOLDEN) == set(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[name]
