"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys

import pytest

from conftest import POSETS_DIR

ROOT = POSETS_DIR.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    if demo.name == "01_class_table.py":
        assert "3 columns x 14 rows" in done.stdout


def test_demos_found():
    assert "01_class_table.py" in [demo.name for demo in DEMOS]
