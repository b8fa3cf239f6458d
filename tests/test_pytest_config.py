"""The pytest configuration in pyproject.toml keeps a run going past a failing test."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True)
    @given(st.integers())
    def test_a_falsified_property(n):
        assert n != 0


    def test_a_later_test():
        pass
    """
)


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import;
    # with every warning an error that warning would raise INTERNALERROR
    # (exit code 3) and stop the session before the later test runs.  The
    # run happens in tmp_path, where Hypothesis writes its patch files.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
