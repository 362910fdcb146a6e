"""The repository's pytest configuration reports failures as failures."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_fails_without_an_internal_error(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "pyproject.toml", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed" in done.stdout
