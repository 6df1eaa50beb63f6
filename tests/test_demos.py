"""Smoke test: every demo script runs to completion and prints something."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
