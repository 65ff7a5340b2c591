"""The suite's warning filters let a failing property test report by name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_probe.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
