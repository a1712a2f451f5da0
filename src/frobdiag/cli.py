"""Command-line front end.

The verbs (``validate``, ``diag``, ``solve``, ``pair``, ``kunneth``,
``catalog``), their inputs and options are listed once, in ``_verbs``.
Each report verb routes a ring and a module pair through ``_route``.

Exit codes are a stable scripting contract: 0 success, 1 validation or
symmetry failure, 2 parse or usage error (including unknown inputs), 3
singular pairing.  Any other exception is a bug: it is reported in one
stderr line with exit code 70, which is not part of the contract.  All
output is deterministic; ``--output json`` serializes every rational as a
string.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .boundary import (ModulePair, check_relative_symmetry,
                       check_relative_top_normalization,
                       relative_class_in_span, relative_diagonal_class,
                       relative_pairing_matrix,
                       solve_relative_symmetric_space, validate_module)
from .catalog import (CatalogError, catalog_names, check_degree,
                      check_size, closed_as_pair, resolve)
from .diagonal import (NonUniqueSolutionError, NoSolutionError, SignMode,
                       SingularPairingError, check_symmetry,
                       check_top_normalization, class_in_span, diagonal_class,
                       kunneth_product, solve_symmetric_space)
from .document import (DocumentError, _cut, emit_document, indented_json,
                       parse_document)
from .linalg import Matrix
from .ring import (MissingTopClassError, RingStructure, ValidationReport,
                   pairing_matrix, validate)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_SOFTWARE = 70   # an internal error (sysexits.h EX_SOFTWARE)
_ERROR_LIMIT = 200   # characters of an internal error's message shown


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
    """Every entry of ``m`` as a string; only the nonzero ones are
    formatted."""
    cells = [["0"] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.terms():
        cells[i][j] = str(v)
    return cells


def _matrix_text(m: Matrix, indent: str = "  ") -> str:
    if m.rows == 0:
        return indent + "(empty)"
    cells = _matrix_json(m)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(indent + " ".join(map(str.rjust, row, widths))
                     for row in cells)


def _class_terms(mu: Matrix, left_labels: Sequence[str],
                 right_labels: Sequence[str]) -> list[dict]:
    return [{"i": i, "j": j, "left": left_labels[i],
             "right": right_labels[j], "value": str(v)}
            for (i, j), v in mu.terms()]


def _class_text(mu: Matrix, left_labels: Sequence[str],
                right_labels: Sequence[str]) -> str:
    parts = []
    for (i, j), v in mu.terms():
        coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
        parts.append(f"{coeff}{left_labels[i]}(x){right_labels[j]}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _validation_json(report: ValidationReport) -> list[dict]:
    return [{"axiom": v.axiom, "indices": list(v.indices),
             "detail": v.detail} for v in report]


def _residual_json(report) -> list[dict]:
    return [{"probe": e.probe, "left": e.left, "right": e.right,
             "value": str(e.value)} for e in report]


def _print_json(payload: dict) -> None:
    print(indented_json(payload))


class _Route(NamedTuple):
    """A payload's kind, its report texts, and the library calls for it."""

    kind: str
    summary: str
    titles: tuple[str, str]
    validate: Callable[..., ValidationReport]
    pairing: Callable[..., Matrix]
    diagonal: Callable
    residual: Callable
    normalized: Callable[..., bool]
    space: Callable
    in_span: Callable[..., bool]


def _route(payload) -> _Route:
    """The route of a ring, or of a module pair over its ring.

    The names are read when a verb runs, so a name replaced on this module
    after import is the one called.  ``relative_class_in_span`` is
    ``class_in_span``: the pair name keeps the cases apart in traced runs.
    """
    if isinstance(payload, ModulePair):
        return _Route(
            "pair",
            f"module of {payload.module_basis.size} over ring of "
            f"{payload.ring.size}, formal dimension "
            f"{payload.formal_dimension}",
            ("relative pairing matrix (ring rows, module columns)",
             "diagonal coefficients (module rows, ring columns)"),
            validate_module, relative_pairing_matrix,
            relative_diagonal_class, check_relative_symmetry,
            check_relative_top_normalization, solve_relative_symmetric_space,
            relative_class_in_span)
    return _Route(
        "ring",
        f"{payload.size} basis elements, formal dimension "
        f"{payload.basis.formal_dimension}",
        ("pairing matrix", "diagonal coefficients (inverse pairing)"),
        validate, pairing_matrix, diagonal_class, check_symmetry,
        check_top_normalization, solve_symmetric_space, class_in_span)


def _require_valid(name: str, payload, allow_noncommutative: bool,
                   output: str) -> _Route:
    """The payload's route, once the payload passes validation."""
    route = _route(payload)
    report = route.validate(payload,
                            allow_noncommutative=allow_noncommutative)
    if not report.ok:
        if output == "json":
            _print_json({"name": name, "ok": False,
                         "violations": _validation_json(report)})
        else:
            first = report.violations[0]
            print(f"{_cut(name)}: invalid ({len(report)} violation(s)); "
                  f"first: {first}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return route


# ---------------------------------------------------------------------------
# verbs

def cmd_validate(args: argparse.Namespace) -> int:
    name, payload = _load_input(args.input, SignMode(args.mode))
    route = _route(payload)
    report = route.validate(payload,
                            allow_noncommutative=args.allow_noncommutative)
    if args.output == "json":
        _print_json({"name": name, "kind": route.kind, "ok": report.ok,
                     "violations": _validation_json(report)})
    elif report.ok:
        print(f"{name}: valid {route.kind}")
    else:
        print(f"{name}: {len(report)} violation(s)")
        for v in report:
            print(f"  {v}")
    return EXIT_OK if report.ok else EXIT_INVALID


def _diag_report(name: str, payload, route: _Route, mode: SignMode,
                 output: str) -> int:
    """Pairing, diagonal class and its checks, for a validated payload."""
    pairing = route.pairing(payload)
    w = route.diagonal(payload, mode)
    residual = route.residual(payload, w)
    normalized = route.normalized(payload, w)
    labels = (w.left_basis.labels, w.right_basis.labels)
    if output == "json":
        _print_json({
            "name": name,
            "kind": route.kind,
            "mode": mode.value,
            "pairing": _matrix_json(pairing),
            "mu": _matrix_json(w.mu),
            "class": _class_terms(w.mu, *labels),
            "residual": _residual_json(residual),
            "symmetric": residual.ok,
            "top_normalization": normalized,
        })
    else:
        print(f"entry: {name} ({route.kind}, {route.summary})")
        print(f"mode: {mode.value}")
        print(f"{route.titles[0]}:")
        print(_matrix_text(pairing))
        print(f"{route.titles[1]}:")
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
    route = _require_valid(name, payload, args.allow_noncommutative,
                           args.output)
    try:
        return _diag_report(name, payload, route, mode, args.output)
    except (SingularPairingError, MissingTopClassError, NoSolutionError,
            NonUniqueSolutionError) as exc:
        _report_singular(name, payload, route, exc, args.output)
        return EXIT_SINGULAR


def _report_singular(name: str, payload, route: _Route, exc: Exception,
                     output: str) -> None:
    try:
        pairing = _matrix_json(route.pairing(payload))
    except MissingTopClassError:
        pairing = None
    if output == "json":
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
    route = _require_valid(name, payload, args.allow_noncommutative,
                           args.output)
    space = route.space(payload)
    try:
        member = route.in_span(space,
                               route.diagonal(payload, SignMode.LITERAL))
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
        # refuse an oversized product, or one whose degrees add up to more
        # digits than can be printed, before any factor is validated
        a, b = ring_a.basis, ring_b.basis
        product = f"product:{name_a},{name_b}"
        try:
            check_size(product, ring_a.size * ring_b.size)
            check_degree(product, max(a.formal_dimension + b.formal_dimension,
                                      max(a.degrees) + max(b.degrees)))
        except CatalogError as exc:
            raise CliFailure(EXIT_PARSE, str(exc))
    for name, payload in ((name_a, ring_a), (name_b, ring_b)):
        if isinstance(payload, ModulePair):
            raise CliFailure(EXIT_PARSE,
                             f"{_cut(name)}: kunneth factors must be rings")
        _require_valid(name, payload, args.allow_noncommutative, "text")
    result = kunneth_product(ring_a, ring_b, mode)
    report = validate(result,
                      allow_noncommutative=args.allow_noncommutative)
    if not report.ok:
        first = report.violations[0]
        print(f"product of {_cut(name_a)} and {_cut(name_b)} fails "
              f"validation ({len(report)} violation(s)); first: {first}",
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

_OPTIONS: dict[str, dict[str, Any]] = {
    "--name": {"help": "name for the emitted document"},
    "--mode": {"choices": ["literal", "graded"], "default": "literal",
               "help": "sign convention for tensor products"},
    "--output": {"choices": ["text", "json"], "default": "text",
                 "help": "report format"},
    "--allow-noncommutative": {
        "action": "store_true",
        "help": "skip only the graded-commutativity axiom"},
}
_REPORT_OPTIONS = ("--mode", "--output", "--allow-noncommutative")


def _verbs() -> tuple[tuple, ...]:
    """(verb, handler name, positional inputs, options, help) of every verb.

    A handler is named, not bound: :func:`main` looks the name up on this
    module when the verb runs, so one parser serves every call and a
    handler replaced after the parser was built is the one that runs.
    """
    return (
        ("validate", "cmd_validate", ("input",), _REPORT_OPTIONS,
         "run the axiom checks"),
        ("diag", "cmd_diag", ("input",), _REPORT_OPTIONS,
         "pairing matrix, diagonal class, residual"),
        ("solve", "cmd_solve", ("input",), _REPORT_OPTIONS,
         "basis of the symmetric space"),
        ("pair", "cmd_diag", ("input",), _REPORT_OPTIONS,
         "relative diagonal report (rings are embedded)"),
        ("kunneth", "cmd_kunneth", ("left", "right"),
         ("--name", "--mode", "--allow-noncommutative"),
         "emit the product of two rings"),
        ("catalog", "cmd_catalog", (), ("--output",),
         "list built-in entries"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobdiag",
        description="Exact diagonal classes of Poincare duality algebras")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, handler, inputs, options, text in _verbs():
        sub = subs.add_parser(verb, help=text)
        for name in inputs:
            sub.add_argument(name, help="document file or catalog id")
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
        sub.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the :func:`main` calls that :func:`_plain_args`
    leaves to argparse, built on the first."""
    return build_parser()


@functools.cache
def _verb_table() -> dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Verb -> (handler name, positional inputs, options), from
    :func:`_verbs`."""
    return {verb: (handler, inputs, options)
            for verb, handler, inputs, options, _ in _verbs()}


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace of a plain ``argv``, read off the verb table, or
    ``None``.

    A plain ``argv`` is a verb, then in any order the verb's options,
    each spelled exactly as in :data:`_OPTIONS`, given at most once and
    followed by its value when it takes one (a value among its choices,
    if it has them), and as many positional inputs as the verb takes.
    No token but an option starts with ``-``.  Its namespace is the one
    that :func:`build_parser` gives.  Any other ``argv`` (help, an
    abbreviated option, ``--option=value``, ``--``, a repeated option or
    an error) is left to argparse, which handles or reports it.
    """
    verb = _verb_table().get(argv[0]) if argv else None
    if verb is None:
        return None
    handler, inputs, options = verb
    given: dict[str, Any] = {}
    positional = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
        elif token not in options or token in given:
            return None
        elif _OPTIONS[token].get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, "-")
            if value.startswith("-") or value not in _OPTIONS[token].get(
                    "choices", (value,)):
                return None
            given[token] = value
    if len(positional) != len(inputs):
        return None
    args = argparse.Namespace(verb=argv[0], **dict(zip(inputs, positional)))
    for option in options:
        spec = _OPTIONS[option]
        default = spec.get("default",
                           False if spec.get("action") == "store_true"
                           else None)
        setattr(args, option[2:].replace("-", "_"),
                given.get(option, default))
    args.handler = handler
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _plain_args(argv)
        if args is None:
            args = _parser().parse_args(argv)
        return globals()[args.handler](args)
    except CliFailure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except Exception as exc:
        # a bug, not an outcome of the input: one line, no traceback
        message = " ".join(str(exc).splitlines())
        if len(message) > _ERROR_LIMIT:
            message = message[:_ERROR_LIMIT] + "..."
        print(f"frobdiag: internal error ({type(exc).__name__}): {message}",
              file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
