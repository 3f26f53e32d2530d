"""The repository's pytest settings report a failing hypothesis test like any
other, and reject a marker they do not declare.

On a failure, hypothesis's pytest plugin imports optional modules whose
import warns; with ``filterwarnings = ["error"]`` an unfiltered warning there
aborts the whole session with INTERNALERROR and skips every later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_a_misspelt_marker_fails_collection(tmp_path):
    # a misspelt `extended` marker must not let a long test into the default run
    (tmp_path / "test_probe.py").write_text(
        "import pytest\n\n\n@pytest.mark.extnded\ndef test_long():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "1 error" in proc.stdout and "passed" not in proc.stdout, proc.stdout
