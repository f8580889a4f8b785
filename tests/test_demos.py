"""Every demo script runs to completion against the package in ``src``."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import POSETS_DIR

ROOT = POSETS_DIR.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of the full stdout of ``demos/01_class_table.py``, which prints
#: every member of every class through ``LocalityTable.classes``.
CLASS_TABLE_SHA256 = "ba4b16104aebf873fbd58e3767aa5a6e81065c298ebd64acf7567e19b5a73342"


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


def test_class_table_demo_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_class_table.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CLASS_TABLE_SHA256
