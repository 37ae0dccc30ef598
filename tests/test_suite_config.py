"""The suite's pytest configuration reports a failing Hypothesis test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"


def test_failing_hypothesis_test_exits_1(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import; with
    # warnings as errors that warning must not abort the run (exit code 3).
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYTEST_INI),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
