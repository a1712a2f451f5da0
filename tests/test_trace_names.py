"""Every name the benchmark's traced run wraps exists in the package.

The traced run (``perfbench/spans.py``) replaces ``frobdiag.<caller>.<attr>``
for each ``(caller, attr)`` in its ``WRAPPED`` table, looked up by name;
a name that a refactor drops or renames makes that run fail.  The table
is read from the source file, which is compiled in memory and not
imported, so no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return [(caller, attr) for caller, attr, _, _ in spans.WRAPPED]


def test_every_wrapped_name_is_an_attribute_of_its_caller():
    names = wrapped_names()
    assert names
    missing = [f"frobdiag.{caller}.{attr}" for caller, attr in names
               if not hasattr(importlib.import_module(f"frobdiag.{caller}"),
                              attr)]
    assert not missing, missing
