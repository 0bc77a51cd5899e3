"""The test suite's own configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under filterwarnings = error, hypothesis's report used to end the session in an
    # INTERNALERROR (a DeprecationWarning from mypy_extensions) without the example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          str(tmp_path / "test_fails.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
