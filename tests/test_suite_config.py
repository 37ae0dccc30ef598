"""The suite's pytest configuration reports a failing Hypothesis test as a
failure, and the package imports nothing beyond the standard library and numpy."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"
PACKAGE = PYTEST_INI.parent / "src" / "sirmnn"


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


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared runtime dependency; scipy may be installed but is not declared.
    allowed = set(sys.stdlib_module_names) | {"numpy", "sirmnn"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    assert found
    assert [(name, module) for name, module in found if module.split(".")[0] not in allowed] == []
