"""Release metadata stays in step with the importable package."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_pyproject_version_matches_package():
    # A regex rather than tomllib, which only exists from Python 3.11.
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE
    )
    assert match is not None, "pyproject.toml has no version"
    assert match.group(1) == repro.__version__
