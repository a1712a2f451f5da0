"""Every demo's stdout, pinned byte for byte.

The demos print matrices through ``Matrix[i, j]``, ``@`` and ``==``, so
this also pins those reads on the classes the library computes.  Each
demo runs in-process as ``__main__``; ``golden/demo_<name>.txt`` holds
its output.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"demo_{name}.txt").read_text()
