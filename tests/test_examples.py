"""Smoke tests: every example script must run cleanly.

Examples are the first thing a new user executes; breaking one is a
release blocker, so they are part of the test suite.  Each runs in a
subprocess exactly as a user would run it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "example should print something"
    assert "Warning" not in completed.stderr, completed.stderr


def test_expected_examples_present():
    names = {path.name for path in EXAMPLES}
    assert {
        "quickstart.py",
        "design_space_sweep.py",
        "cache_sizing.py",
        "crash_recovery.py",
        "shared_data_consistency.py",
        "extensions_tour.py",
    } <= names
