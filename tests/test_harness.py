"""The test session itself: one failing property must not end it."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(v):
    assert v < 5


def test_after():
    pass
'''


def test_a_failing_property_lets_the_session_go_on(tmp_path):
    # the repo's conftest and ini (warnings are errors) next to a property
    # that fails: hypothesis then prints its patch, and the session must
    # report the failure and run the next test, with no INTERNALERROR
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_planted.py").write_text(PLANTED)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
