"""The test harness itself: a failing property test must report its example."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Run with this suite's settings (filterwarnings = ["error"]) and its
    # conftest, loaded as a plugin since the test file lies outside tests/.
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "conftest", "test_fails.py",
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(TESTS)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
