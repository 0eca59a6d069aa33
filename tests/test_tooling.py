"""The tier-1 command's own pytest configuration (pyproject.toml)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_fails_without_internal_error(tmp_path):
    # hypothesis reports a falsifying example through libcst, whose import
    # raises a DeprecationWarning; turned into an error by filterwarnings, it
    # aborted the whole session with INTERNALERROR (exit 3) instead of exit 1
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]
    assert "INTERNALERROR" not in result.stdout + result.stderr
