"""The test harness itself: a failing property test is reported like any
other failure, under the project's "error" warning filter."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    assert True
'''


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = run.stdout + run.stderr
    assert "INTERNALERROR" not in report
    assert run.returncode == 1, report
    assert "1 failed, 1 passed" in report
    assert "assert 0 < 0" in report
