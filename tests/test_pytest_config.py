"""The suite's own configuration: tier-1 reports every failure, not only the first."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_given_test(x):
    assert x < 5


def test_a_failing_plain_test():
    assert 1 == 2
'''


def test_a_failing_hypothesis_example_leaves_the_later_failure_reported(tmp_path):
    # under the repo's pytest configuration, which makes every warning an error
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "FAILED test_two.py::test_a_failing_given_test" in run.stdout
    assert "FAILED test_two.py::test_a_failing_plain_test" in run.stdout
    assert "2 failed" in run.stdout
