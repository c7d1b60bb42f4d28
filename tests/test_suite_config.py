"""The suite's own settings, pyproject.toml's [tool.pytest.ini_options],
applied to a throwaway test file in a fresh pytest process."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_a_failing_given_test_fails_and_the_session_goes_on(tmp_path):
    """A failing @given test is a FAILED line and exit code 1 under the
    suite's warning filters, and the tests after it still run: reporting it
    makes hypothesis import libcst, whose deprecation warning must not abort
    the session (INTERNALERROR, exit code 3)."""
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_after():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
