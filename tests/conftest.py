import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def child_processes_import_src():
    """Let the child processes that tests start import qwres from src/.

    pyproject.toml puts src/ on pytest's own path; this does the same for
    children such as ``python -m qwres.cli``, so the suite runs from a
    checkout without an install.
    """
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    with pytest.MonkeyPatch.context() as mp:
        if SRC not in map(os.path.abspath, paths):
            mp.setenv("PYTHONPATH", os.pathsep.join([SRC] + paths))
        yield
