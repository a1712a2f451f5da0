"""Every name the benchmark's traced run wraps exists and is called.

The traced run (``perfbench/spans.py``) replaces ``frobdiag.<caller>.<attr>``
for each ``(caller, attr)`` in its ``WRAPPED`` table, looked up by name;
a name that a refactor drops or renames makes that run fail, and a name
the CLI bound before the replacement is never traced.  The two builder
names must each see only their own layer's systems, or the per-layer
system counts mix rings and pairs.  The table is read from the source
file, which is compiled in memory and not imported, so no bytecode is
written next to it.
"""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from frobdiag import boundary, cli, diagonal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return [(caller, attr) for caller, attr, _, _ in spans.WRAPPED]


def counting(calls: Counter, key: str, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_wrapped_name_is_an_attribute_of_its_caller():
    names = wrapped_names()
    assert names
    missing = [f"frobdiag.{caller}.{attr}" for caller, attr in names
               if not hasattr(importlib.import_module(f"frobdiag.{caller}"),
                              attr)]
    assert not missing, missing


def test_every_wrapped_cli_name_is_called_through_the_module(
        invoke, monkeypatch, tmp_path):
    """The CLI reads each wrapped name when a verb runs, not at import."""
    calls = Counter()
    names = [attr for caller, attr in wrapped_names() if caller == "cli"]
    for attr in names:
        monkeypatch.setattr(cli, attr,
                            counting(calls, attr, getattr(cli, attr)))
    code, product, _ = invoke("kunneth", "sphere:1", "sphere:1",
                              "--mode", "graded")
    assert code == 0
    document = tmp_path / "product.json"
    document.write_text(product, encoding="utf-8")
    for argv in (("diag", "cp:2"), ("solve", "cp:2"), ("pair", "cp:2"),
                 ("solve", "cylinder:sphere:2"),
                 ("validate", str(document))):
        assert invoke(*argv)[0] == 0, argv
    assert [attr for attr in names if not calls[attr]] == []


@pytest.mark.parametrize("argv, layer", [
    (("diag", "cp:2", "--mode", "graded"), "diagonal"),
    (("solve", "cp:2"), "diagonal"),
    (("pair", "cp:2", "--mode", "graded"), "boundary"),
    (("solve", "cylinder:sphere:2"), "boundary"),
])
def test_each_symmetry_system_is_built_under_its_layers_name(
        invoke, monkeypatch, argv, layer):
    """The solvers are handed the one builder under the name of their
    layer, read when they run, so a traced run counts the systems of a
    ring in ``diagonal`` and those of a pair in ``boundary``."""
    calls = Counter()
    for name, module, attr in (
            ("diagonal", diagonal, "_symmetry_system"),
            ("boundary", boundary, "_relative_symmetry_system")):
        monkeypatch.setattr(module, attr,
                            counting(calls, name, getattr(module, attr)))
    assert invoke(*argv)[0] == 0
    assert set(calls) == {layer}
