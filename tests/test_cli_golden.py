"""Golden CLI output: stdout and exit codes must stay byte-identical.

Each command below runs in process through run_cli, and its stdout and
exit code are compared with the files under tests/golden/: NAME.stdout
holds the exact bytes, and exit_codes.json maps NAME to the exit code.
Timing goes to stderr, which is not compared.

When an output change is intended, record it in CHANGES.md and rewrite
the stored files with

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]

which regenerates the named commands, or all of them when none is named.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from qwres.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

COMMANDS = {
    "resonances-corner": ["resonances", "--preset", "corner", "--m0", "1", "--n0", "1"],
    "resonances-one-corner-csv": ["resonances", "--preset", "one-corner", "--m0", "2", "--n0", "2",
                                  "--eps", "0.2", "--emit", "csv"],
    "resonances-phase-corner": ["resonances", "--preset", "phase-corner", "--m0", "1", "--n0", "1",
                                "--eps", "0.22"],
    "corner-scan-json": ["corner-scan", "--preset", "one-corner", "--m0", "1", "--n0", "1",
                         "--eps-grid", "0.25,0.19", "--emit", "json"],
    "shape-scan": ["shape-scan", "--M0", "1", "--eps-grid", "0.3,0.15"],
    "barrier-norms": ["barrier-norms", "--eps-grid", "0.16,0.04"],
    "barrier-spec": ["barrier-spec", "--M0", "1"],
    "elastic-spec-random": ["elastic-spec", "--preset", "random-elastic", "--M0", "2"],
    "trace-corner": ["trace", "--preset", "corner", "--m0", "3", "--n0", "2"],
    "evolve-one-corner": ["evolve", "--preset", "one-corner", "--m0", "2", "--n0", "2",
                          "--eps", "0.3", "--t", "40"],
}


def _run(argv):
    """Exit code and stdout of one in-process run, with the threads default pinned."""
    out = io.StringIO()
    saved = os.environ.pop("QWRES_THREADS", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
    finally:
        if saved is not None:
            os.environ["QWRES_THREADS"] = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    code, text = _run(COMMANDS[name])
    stored = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    assert text == stored


def _regenerate(names):
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8")) if EXIT_CODES.exists() else {}
    for name in names or sorted(COMMANDS):
        code, text = _run(COMMANDS[name])
        (GOLDEN / f"{name}.stdout").write_text(text, encoding="utf-8", newline="")
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
