"""Every report verb on every catalog entry, pinned byte for byte.

``golden/cli_sweep.sha256`` holds one line per invocation: the SHA-256
of ``json.dumps([exit code, stdout, stderr])``, two spaces, and the
invocation's arguments.  The sweep covers every catalog entry with each
of ``validate``, ``diag``, ``solve`` and ``pair``, in both sign modes and
both output formats, all run in-process.  To rewrite the file after an
intended change of output, run this module as a script from the root of
the repository with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from frobdiag.catalog import catalog_names
from frobdiag.cli import main

SWEEP = Path(__file__).parent / "golden" / "cli_sweep.sha256"


def invocations() -> list[list[str]]:
    return [[verb, name, "--mode", mode, "--output", output]
            for name in catalog_names()
            for verb in ("validate", "diag", "solve", "pair")
            for mode in ("literal", "graded")
            for output in ("text", "json")]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def sweep_lines() -> list[str]:
    return [f"{digest(argv)}  {' '.join(argv)}" for argv in invocations()]


def test_cli_sweep_is_unchanged():
    expected = SWEEP.read_text().splitlines()
    actual = sweep_lines()
    assert [line.split("  ")[1] for line in expected] == \
        [line.split("  ")[1] for line in actual]
    changed = [b.split("  ")[1] for a, b in zip(expected, actual) if a != b]
    assert not changed, changed


if __name__ == "__main__":
    SWEEP.write_text("\n".join(sweep_lines()) + "\n")
