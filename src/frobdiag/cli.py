"""Command-line front end.

Verbs:

* ``validate`` - run the axiom checks on a file or catalog entry
* ``diag``     - pairing matrix, diagonal class, symmetry residual
* ``solve``    - basis of the full symmetric solution space
* ``pair``     - ``diag`` with a ring first embedded as a module pair
* ``kunneth``  - emit the product of two rings as a document
* ``catalog``  - list built-in entries

Exit codes are a stable scripting contract: 0 success, 1 validation or
symmetry failure, 2 parse error (including unknown inputs), 3 singular
pairing.  All output is deterministic; ``--output json`` serializes every
rational as a string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, Sequence

from .boundary import (ModulePair, check_relative_symmetry,
                       check_relative_top_normalization,
                       relative_class_in_span, relative_diagonal_class,
                       relative_pairing_matrix,
                       solve_relative_symmetric_space, validate_module)
from .catalog import (CatalogError, catalog_names, check_size,
                      closed_as_pair, resolve)
from .diagonal import (NonUniqueSolutionError, NoSolutionError, SignMode,
                       SingularPairingError, check_symmetry,
                       check_top_normalization, class_in_span, diagonal_class,
                       kunneth_product, solve_symmetric_space)
from .document import DocumentError, emit_document, parse_document
from .linalg import Matrix
from .ring import (MissingTopClassError, RingStructure, ValidationReport,
                   generators, pairing_matrix, validate)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3


class CliFailure(Exception):
    """Carries an exit code and a message to print on stderr."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load_input(text: str, mode: SignMode) -> tuple[str, Any]:
    """Resolve a CLI input: an existing file wins, then the catalog."""
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return parse_document(fh.read())
        except OSError as exc:
            raise CliFailure(EXIT_PARSE, f"cannot read {text}: {exc}")
        except UnicodeDecodeError as exc:
            raise CliFailure(EXIT_PARSE, f"{text}: not UTF-8 text: "
                             f"{exc.reason} at byte {exc.start}")
        except DocumentError as exc:
            raise CliFailure(EXIT_PARSE, f"{text}: {exc}")
    try:
        entry = resolve(text, mode)
    except CatalogError as exc:
        raise CliFailure(EXIT_PARSE, str(exc))
    return entry.name, entry.payload


def _matrix_json(m: Matrix) -> list[list[str]]:
    return [[str(v) for v in m.row(i)] for i in range(m.rows)]


def _matrix_text(m: Matrix, indent: str = "  ") -> str:
    if m.rows == 0:
        return indent + "(empty)"
    cells = _matrix_json(m)
    widths = [max(len(row[j]) for row in cells) for j in range(m.cols)]
    return "\n".join(indent + " ".join(c.rjust(w) for c, w in zip(row, widths))
                     for row in cells)


def _class_terms(mu: Matrix, left_labels: Sequence[str],
                 right_labels: Sequence[str]) -> list[dict]:
    terms = []
    for i in range(mu.rows):
        for j in range(mu.cols):
            v = mu[i, j]
            if v != 0:
                terms.append({"i": i, "j": j,
                              "left": left_labels[i],
                              "right": right_labels[j],
                              "value": str(v)})
    return terms


def _class_text(mu: Matrix, left_labels: Sequence[str],
                right_labels: Sequence[str]) -> str:
    parts = []
    for term in _class_terms(mu, left_labels, right_labels):
        v = Fraction(term["value"])
        coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
        parts.append(f"{coeff}{term['left']}(x){term['right']}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _validation_json(report: ValidationReport) -> list[dict]:
    return [{"axiom": v.axiom, "indices": list(v.indices),
             "detail": v.detail} for v in report]


def _residual_json(report) -> list[dict]:
    return [{"probe": e.probe, "left": e.left, "right": e.right,
             "value": str(e.value)} for e in report]


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _validate(payload, allow_noncommutative: bool
              ) -> tuple[ValidationReport, str]:
    """Axiom report of a ring or module pair, and which of the two it is."""
    if isinstance(payload, ModulePair):
        return validate_module(
            payload, allow_noncommutative=allow_noncommutative), "pair"
    return validate(payload,
                    allow_noncommutative=allow_noncommutative), "ring"


def _probes(payload) -> list[int]:
    """Ring generators: the probes a validated payload's system needs.

    Validation has shown the ring and the action associative and unital,
    which is what lets generators stand for every probe (see
    ``diagonal._symmetry_system``).
    """
    return generators(payload.ring if isinstance(payload, ModulePair)
                      else payload)


def _pairing(payload) -> Matrix:
    if isinstance(payload, ModulePair):
        return relative_pairing_matrix(payload)
    return pairing_matrix(payload)


def _require_valid(name: str, payload, allow_noncommutative: bool,
                   output: str) -> None:
    report, _ = _validate(payload, allow_noncommutative)
    if not report.ok:
        if output == "json":
            _print_json({"name": name, "ok": False,
                         "violations": _validation_json(report)})
        else:
            first = report.violations[0]
            print(f"{name}: invalid ({len(report)} violation(s)); "
                  f"first: {first}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


# ---------------------------------------------------------------------------
# verbs

def cmd_validate(args: argparse.Namespace) -> int:
    name, payload = _load_input(args.input, SignMode(args.mode))
    report, kind = _validate(payload, args.allow_noncommutative)
    if args.output == "json":
        _print_json({"name": name, "kind": kind, "ok": report.ok,
                     "violations": _validation_json(report)})
    else:
        if report.ok:
            print(f"{name}: valid {kind}")
        else:
            print(f"{name}: {len(report)} violation(s)")
            for v in report:
                print(f"  {v}")
    return EXIT_OK if report.ok else EXIT_INVALID


def _diag_report(name: str, payload, mode: SignMode, output: str) -> int:
    """Pairing, diagonal class and its checks, for a validated payload."""
    pairing = _pairing(payload)
    # only GRADED mode solves a symmetry system
    probes = _probes(payload) if mode is SignMode.GRADED else None
    if isinstance(payload, ModulePair):
        w = relative_diagonal_class(payload, mode, probes)
        residual = check_relative_symmetry(payload, mode, w)
        normalized = check_relative_top_normalization(payload, w)
        kind = "pair"
        summary = (f"module of {payload.module_basis.size} over ring of "
                   f"{payload.ring.size}, formal dimension "
                   f"{payload.formal_dimension}")
        titles = ("relative pairing matrix (ring rows, module columns)",
                  "diagonal coefficients (module rows, ring columns)")
    else:
        w = diagonal_class(payload, mode, probes)
        residual = check_symmetry(payload, mode, w)
        normalized = check_top_normalization(payload, w)
        kind = "ring"
        summary = (f"{payload.size} basis elements, formal dimension "
                   f"{payload.basis.formal_dimension}")
        titles = ("pairing matrix",
                  "diagonal coefficients (inverse pairing)")
    labels = (w.left_basis.labels, w.right_basis.labels)
    if output == "json":
        _print_json({
            "name": name,
            "kind": kind,
            "mode": mode.value,
            "pairing": _matrix_json(pairing),
            "mu": _matrix_json(w.mu),
            "class": _class_terms(w.mu, *labels),
            "residual": _residual_json(residual),
            "symmetric": residual.ok,
            "top_normalization": normalized,
        })
    else:
        print(f"entry: {name} ({kind}, {summary})")
        print(f"mode: {mode.value}")
        print(f"{titles[0]}:")
        print(_matrix_text(pairing))
        print(f"{titles[1]}:")
        print(_matrix_text(w.mu))
        print(f"class: {_class_text(w.mu, *labels)}")
        print(f"symmetry residual: {'empty' if residual.ok else 'NONZERO'}")
        if not residual.ok:
            for e in residual:
                print(f"  {e}")
        print(f"top normalization: {'ok' if normalized else 'VIOLATED'}")
    return EXIT_OK if (residual.ok and normalized) else EXIT_INVALID


def cmd_diag(args: argparse.Namespace) -> int:
    """``diag``, and ``pair``, which first embeds a ring as a pair."""
    mode = SignMode(args.mode)
    name, payload = _load_input(args.input, mode)
    if args.verb == "pair" and isinstance(payload, RingStructure):
        try:
            payload = closed_as_pair(payload)
        except CatalogError as exc:
            raise CliFailure(EXIT_PARSE, str(exc))
    _require_valid(name, payload, args.allow_noncommutative, args.output)
    try:
        return _diag_report(name, payload, mode, args.output)
    except (SingularPairingError, MissingTopClassError, NoSolutionError,
            NonUniqueSolutionError) as exc:
        _report_singular(name, payload, exc, args)
        return EXIT_SINGULAR


def _report_singular(name: str, payload, exc: Exception,
                     args: argparse.Namespace) -> None:
    try:
        pairing = _matrix_json(_pairing(payload))
    except MissingTopClassError:
        pairing = None
    if args.output == "json":
        _print_json({"name": name, "error": "singular-pairing",
                     "detail": str(exc), "pairing": pairing})
    else:
        print(f"{name}: {exc}", file=sys.stderr)
        if pairing is not None:
            print("pairing matrix:", file=sys.stderr)
            for row in pairing:
                print("  " + " ".join(row), file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    mode = SignMode(args.mode)
    name, payload = _load_input(args.input, mode)
    _require_valid(name, payload, args.allow_noncommutative, args.output)
    # relative_class_in_span is class_in_span; the pair name keeps the two
    # cases apart in traced runs
    if isinstance(payload, ModulePair):
        space = solve_relative_symmetric_space(payload, mode,
                                               _probes(payload))
        diagonal, in_span = relative_diagonal_class, relative_class_in_span
    else:
        space = solve_symmetric_space(payload, mode, _probes(payload))
        diagonal, in_span = diagonal_class, class_in_span
    try:
        member = in_span(space, diagonal(payload, SignMode.LITERAL))
    except (SingularPairingError, MissingTopClassError):
        member = None
    if args.output == "json":
        _print_json({
            "name": name,
            "mode": mode.value,
            "dimension": len(space),
            "basis": [_matrix_json(s.mu) for s in space],
            "inverse_class_member": member,
        })
    else:
        print(f"entry: {name}")
        print(f"mode: {mode.value}")
        print(f"symmetric solution space dimension: {len(space)}")
        for idx, s in enumerate(space):
            print(f"basis[{idx}]:")
            print(_matrix_text(s.mu))
        if member is None:
            print("inverse-pairing class: not defined (singular pairing)")
        else:
            print(f"inverse-pairing class in span: {'yes' if member else 'no'}")
    return EXIT_OK


def cmd_kunneth(args: argparse.Namespace) -> int:
    mode = SignMode(args.mode)
    name_a, ring_a = _load_input(args.left, mode)
    name_b, ring_b = _load_input(args.right, mode)
    if isinstance(ring_a, RingStructure) and isinstance(ring_b, RingStructure):
        # refuse an oversized product before any factor is validated
        try:
            check_size(f"product:{name_a},{name_b}",
                       ring_a.size * ring_b.size)
        except CatalogError as exc:
            raise CliFailure(EXIT_PARSE, str(exc))
    for name, payload in ((name_a, ring_a), (name_b, ring_b)):
        if isinstance(payload, ModulePair):
            raise CliFailure(EXIT_PARSE,
                             f"{name}: kunneth factors must be rings")
        _require_valid(name, payload, args.allow_noncommutative, "text")
    result = kunneth_product(ring_a, ring_b, mode)
    report = validate(result,
                      allow_noncommutative=args.allow_noncommutative)
    if not report.ok:
        first = report.violations[0]
        print(f"product of {name_a} and {name_b} fails validation "
              f"({len(report)} violation(s)); first: {first}",
              file=sys.stderr)
        print("hint: odd-degree factors need --mode graded, or pass "
              "--allow-noncommutative to emit anyway", file=sys.stderr)
        return EXIT_INVALID
    name = args.name or f"product:{name_a},{name_b}"
    sys.stdout.write(emit_document(name, result))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    names = catalog_names()
    if args.output == "json":
        _print_json({"entries": names})
    else:
        for name in names:
            print(name)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser, with_mode: bool = True) -> None:
    if with_mode:
        sub.add_argument("--mode", choices=["literal", "graded"],
                         default="literal",
                         help="sign convention for tensor products")
    sub.add_argument("--output", choices=["text", "json"], default="text",
                     help="report format")
    sub.add_argument("--allow-noncommutative", action="store_true",
                     help="skip only the graded-commutativity axiom")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobdiag",
        description="Exact diagonal classes of Poincare duality algebras")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("validate", help="run the axiom checks")
    p.add_argument("input", help="document file or catalog id")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("diag",
                        help="pairing matrix, diagonal class, residual")
    p.add_argument("input", help="document file or catalog id")
    _add_common(p)
    p.set_defaults(func=cmd_diag)

    p = subs.add_parser("solve", help="basis of the symmetric space")
    p.add_argument("input", help="document file or catalog id")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("pair",
                        help="relative diagonal report (rings are embedded)")
    p.add_argument("input", help="document file or catalog id")
    _add_common(p)
    p.set_defaults(func=cmd_diag)

    p = subs.add_parser("kunneth", help="emit the product of two rings")
    p.add_argument("left", help="document file or catalog id")
    p.add_argument("right", help="document file or catalog id")
    p.add_argument("--name", help="name for the emitted document")
    _add_common(p)
    p.set_defaults(func=cmd_kunneth)

    p = subs.add_parser("catalog", help="list built-in entries")
    _add_common(p, with_mode=False)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "mode"):
        args.mode = "literal"
    try:
        return args.func(args)
    except CliFailure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
