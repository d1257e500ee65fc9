"""The suite's own pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # reporting a failing example imports libcst, whose DeprecationWarning
    # once turned into an INTERNALERROR (exit 3) under filterwarnings=error
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING_THEN_PASSING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
