"""Span recording for the traced run, from outside the package.

The traced run replaces the names each caller module imported from the
layer below (``frobdiag.cli.validate``, ``frobdiag.diagonal.solve``,
``frobdiag.boundary.nullspace``, ``frobdiag.ring.multiply``, ...) with
wrappers that record a span per call: name, start, end, parent span and
case id, plus boundary counts (matrix shape and nnz, system rows, result
bit length, document bytes).  The two symmetry-system builders and
``tensor_multiply`` are wrapped too, because they are the work inside
their layers that the per-layer metrics single out.  Small helpers that
inner loops call per term (``koszul_sign``, ``basis_element``) are left
alone: wrapping them would only measure the wrapper.

Spans stay in memory; :meth:`Recorder.dump` writes them out at the end.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

_TRACED = "__perfbench_traced__"


def _nnz(m) -> int:
    return sum(1 for i in range(m.rows) for v in m.row(i) if v != 0)


def _bits(vectors) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for vec in vectors for v in vec), default=0)


def _matrix_in(args) -> dict:
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "nnz": _nnz(m)}


def _describe_nullspace(args, result) -> dict:
    info = _matrix_in(args)
    info["rank"] = info["cols"] - len(result)
    info["bits"] = _bits(result)
    return info


def _describe_solve(args, result) -> dict:
    info = _matrix_in(args)
    if result is None:
        info["rank"], info["bits"] = 0, 0
    else:
        particular, kernel = result
        info["rank"] = info["cols"] - len(kernel)
        info["bits"] = _bits([particular, *kernel])
    return info


def _describe_rank(args, result) -> dict:
    info = _matrix_in(args)
    info["rank"] = result
    return info


def _describe_invert(args, result) -> dict:
    info = _matrix_in(args)
    info["bits"] = _bits(result.row(i) for i in range(result.rows))
    return info


def _describe_system(args, result) -> dict:
    rows, _ = result
    return {"rows": len(rows),
            "nnz": sum(1 for row in rows for v in row if v != 0)}


def _describe_parse(args, result) -> dict:
    return {"bytes": len(args[0].encode("utf-8"))}


def _describe_emit(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


_LINALG = (("invert", "linalg.invert", _describe_invert),
           ("nullspace", "linalg.nullspace", _describe_nullspace),
           ("rank", "linalg.rank", _describe_rank),
           ("solve", "linalg.solve", _describe_solve))

# (caller module, imported name, span name, describe(args, result))
WRAPPED: tuple[tuple[str, str, str, object], ...] = (
    ("cli", "validate", "ring.validate", None),
    ("cli", "pairing_matrix", "ring.pairing_matrix", None),
    ("cli", "validate_module", "boundary.validate_module", None),
    ("cli", "relative_pairing_matrix", "boundary.relative_pairing_matrix",
     None),
    ("cli", "relative_diagonal_class", "boundary.relative_diagonal_class",
     None),
    ("cli", "check_relative_symmetry", "boundary.check_relative_symmetry",
     None),
    ("cli", "check_relative_top_normalization",
     "boundary.check_relative_top_normalization", None),
    ("cli", "relative_class_in_span", "boundary.relative_class_in_span",
     None),
    ("cli", "solve_relative_symmetric_space",
     "boundary.solve_relative_symmetric_space", None),
    ("cli", "closed_as_pair", "catalog.closed_as_pair", None),
    ("cli", "resolve", "catalog.resolve", None),
    ("cli", "diagonal_class", "diagonal.diagonal_class", None),
    ("cli", "check_symmetry", "diagonal.check_symmetry", None),
    ("cli", "check_top_normalization", "diagonal.check_top_normalization",
     None),
    ("cli", "class_in_span", "diagonal.class_in_span", None),
    ("cli", "solve_symmetric_space", "diagonal.solve_symmetric_space", None),
    ("cli", "kunneth_product", "diagonal.kunneth_product", None),
    ("cli", "parse_document", "document.parse_document", _describe_parse),
    ("cli", "emit_document", "document.emit_document", _describe_emit),
    ("diagonal", "multiply", "ring.multiply", None),
    ("diagonal", "pairing_matrix", "ring.pairing_matrix", None),
    ("diagonal", "_symmetry_system", "diagonal.system_build",
     _describe_system),
    ("diagonal", "tensor_multiply", "diagonal.tensor_multiply", None),
    ("boundary", "multiply", "ring.multiply", None),
    ("boundary", "validate", "ring.validate", None),
    ("boundary", "_relative_symmetry_system", "boundary.system_build",
     _describe_system),
    ("ring", "multiply", "ring.multiply", None),
    ("ring", "invert", "linalg.invert", _describe_invert),
    ("catalog", "kunneth_product", "diagonal.kunneth_product", None),
) + tuple((caller, attr, span, describe)
          for caller in ("diagonal", "boundary")
          for attr, span, describe in _LINALG)


class Recorder:
    """In-memory span store with the call stack that gives each parent.

    A span is ``[name, start, end, parent, case, attrs, outer_end]``;
    ``outer_end`` also covers the time spent describing the call, so a
    parent's self time does not absorb the tracer's own work.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, describe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.case, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if describe is not None:
                record[5] = describe(args, result)
            record[6] = clock()
            return result

        setattr(traced, _TRACED, True)
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every name in :data:`WRAPPED` in the given modules."""
        for caller, attr, name, describe in WRAPPED:
            module = modules[caller]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.span(name, original, describe))

    def uninstall(self) -> list[str]:
        """Put every original back; return the names that did not restore."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, o in self._patched
                if getattr(m, a) is not o]
        self._patched.clear()
        return left

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, attrs, _ in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9),
                                     parent, case, attrs]) + "\n")


def traced_names(modules: dict[str, object]) -> list[str]:
    """Module attributes that are still tracing wrappers."""
    return [f"{m.__name__}.{attr}" for m in modules.values()
            for attr, value in vars(m).items() if getattr(value, _TRACED,
                                                          False)]


def pass_metrics(spans: list[list], first: int, last: int,
                 speed: float) -> dict:
    """Per-layer metrics of the spans ``spans[first:last]`` (one pass).

    Times are multiplied by ``speed`` to turn them into reference seconds.
    """
    covered = defaultdict(float)
    for s in spans[first:last]:
        if s[3] >= first:
            covered[s[3]] += s[6] - s[1]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(lambda: defaultdict(int))
    max_bits = 0
    for idx in range(first, last):
        name, start, end, _, _, attrs, _ = spans[idx]
        total[name] += end - start
        self_time[name] += end - start - covered[idx]
        calls[name] += 1
        if attrs:
            for key, value in attrs.items():
                if key == "bits":
                    if name.startswith("linalg."):
                        max_bits = max(max_bits, value)
                else:
                    attr[name][key] += value
    elim = ("linalg.solve", "linalg.nullspace")
    rows_in = sum(attr[n]["rows"] for n in elim)
    useful = sum(attr[n]["rank"] for n in elim)
    metrics = {
        "linalg.eliminate_s": sum(total[n] for n in elim),
        "linalg.calls": sum(calls[n] for n in
                            ("linalg.solve", "linalg.nullspace",
                             "linalg.invert", "linalg.rank")),
        "linalg.rows_in": rows_in,
        "linalg.useful_row_ratio": useful / rows_in if rows_in else 0.0,
        "linalg.max_bits": max_bits,
        "linalg.invert_s": total["linalg.invert"],
        "linalg.rank_s": total["linalg.rank"],
        "diagonal.system_build_s": self_time["diagonal.system_build"],
        "diagonal.system_rows": attr["diagonal.system_build"]["rows"],
        "diagonal.system_nnz": attr["diagonal.system_build"]["nnz"],
        "diagonal.check_symmetry_s": total["diagonal.check_symmetry"],
        "diagonal.tensor_multiply_calls": calls["diagonal.tensor_multiply"],
        "diagonal.class_in_span_s": total["diagonal.class_in_span"],
        "diagonal.kunneth_s": total["diagonal.kunneth_product"],
        "ring.validate_s": total["ring.validate"],
        "ring.validate_calls": calls["ring.validate"],
        "ring.multiply_calls": calls["ring.multiply"],
        "ring.pairing_s": total["ring.pairing_matrix"],
        "boundary.validate_module_s": self_time["boundary.validate_module"],
        "boundary.system_build_s": self_time["boundary.system_build"],
        "boundary.system_rows": attr["boundary.system_build"]["rows"],
        "boundary.system_nnz": attr["boundary.system_build"]["nnz"],
        "boundary.check_symmetry_s":
            total["boundary.check_relative_symmetry"],
        "boundary.class_in_span_s": total["boundary.relative_class_in_span"],
        "document.parse_s": total["document.parse_document"],
        "document.emit_s": total["document.emit_document"],
        "document.bytes_in": attr["document.parse_document"]["bytes"],
        "document.bytes_out": attr["document.emit_document"]["bytes"],
        "catalog.resolve_s": total["catalog.resolve"],
        "catalog.closed_as_pair_s": total["catalog.closed_as_pair"],
        "cli.self_s": self_time["cli.main"],
    }
    return {key: value * speed if key.endswith("_s") else value
            for key, value in metrics.items()}


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each time over passes; counts are taken from one pass."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = statistics.median(values) if key.endswith("_s") \
            else values[0]
    return out
