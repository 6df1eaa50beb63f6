"""Every demo script runs to completion, and its stdout is pinned by sha1.

A change that alters what a demo prints (04 prints Betti tables, 02 and 03
character and block data) fails here; recompute a digest only when the new
output is intended."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA1 = {
    "01_short_graded_lie.py": "f607947b9e4a4c63d72ec277a8b0128dd1cf07ca",
    "02_characters.py": "be0940e2099f35c281459a73ff229817ebc73fc0",
    "03_building_blocks.py": "d4da8e612fae76aa8c7dd60326d821bfc7fee983",
    "04_linearity.py": "f61420627679d5922940005c08cc43ceb34a8b90",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA1)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env(),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha1(proc.stdout).hexdigest() == STDOUT_SHA1[demo.name]
