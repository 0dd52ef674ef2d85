"""The test configuration in pyproject.toml: a failing test is reported as
failed, and the run goes on to the next test."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # under filterwarnings = ["error"], a warning from hypothesis's report
    # hook ended the run in INTERNALERROR and skipped the tests after it
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
