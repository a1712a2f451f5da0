"""Reading and writing algebra description files.

A document is JSON with a fixed shape: a named basis with degrees, unit
and top indices, and an explicit list of nonzero structure constants.
A pair document adds a ``module`` section whose ``action`` tensor is the
module action; the ring's own ``lambda`` list then plays the role of the
ring tensor.

Rationals travel as strings ("3", "-1/2"), never floats.  Sparse entries
are listed with explicit indices and are NOT completed symmetrically:
both (i,j,k) and (j,i,k) must be present.  A file is a faithful dump of
the tensor that was validated, nothing more; silent completion is how
sign errors hide.

Emission is canonical (fixed key order, entries sorted by index, reduced
rationals), so emit -> parse -> emit is the identity on bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # C escaper
from typing import Any, Callable, NoReturn

from .boundary import ModulePair
from .ring import GradedBasis, RingStructure

Payload = RingStructure | ModulePair

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
_ENTRY_KEYS = frozenset({"i", "j", "k", "value"})
_ECHO_LIMIT = 40   # characters of an offending value quoted in a message
_UNKNOWN_LIMIT = 5  # unknown field names listed in a message


class DocumentError(ValueError):
    """Malformed document, with the JSON path of the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _cut(text: str) -> str:
    """``text`` cut to :data:`_ECHO_LIMIT` characters plus ``...``."""
    if len(text) > _ECHO_LIMIT:
        return text[:_ECHO_LIMIT] + "..."
    return text


def _echo(raw: Any) -> str:
    return _cut(repr(raw))


def _parse_rational(raw: Any, location: str) -> Fraction:
    if not isinstance(raw, str) or not _RATIONAL_RE.match(raw):
        raise DocumentError(
            f"expected a rational string like '2' or '-3/4', got "
            f"{_echo(raw)}", location)
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise DocumentError("zero denominator", location) from None
    except ValueError:  # more digits than int() converts from a string
        raise DocumentError(
            f"rational string of {len(raw)} characters is too long to "
            "convert exactly", location) from None


def _expect(mapping: Any, key: str, kind: type, location: str) -> Any:
    if not isinstance(mapping, dict):
        raise DocumentError("expected an object", location)
    if key not in mapping:
        raise DocumentError(f"missing field {key!r}", location)
    value = mapping[key]
    if kind is int and isinstance(value, bool):
        raise DocumentError(f"field {key!r} must be an integer", location)
    if not isinstance(value, kind):
        raise DocumentError(
            f"field {key!r} must be {kind.__name__}", location)
    return value


def _reject_unknown(mapping: dict, allowed: set[str], location: str) -> None:
    """Name the first :data:`_UNKNOWN_LIMIT` unknown keys, each cut."""
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        names = ", ".join(_cut(key) for key in unknown[:_UNKNOWN_LIMIT])
        if len(unknown) > _UNKNOWN_LIMIT:
            names += f", ... ({len(unknown)} in all)"
        raise DocumentError(f"unknown field(s): {names}", location)


def _parse_basis(raw: Any, location: str) -> tuple[tuple[str, ...],
                                                   tuple[int, ...]]:
    if not isinstance(raw, list) or not raw:
        raise DocumentError("expected a nonempty list", location)
    labels, degrees, seen = [], [], set()
    for idx, item in enumerate(raw):
        here = f"{location}[{idx}]"
        label = _expect(item, "label", str, here)
        degree = _expect(item, "degree", int, here)
        _reject_unknown(item, {"label", "degree"}, here)
        if degree < 0:
            raise DocumentError("degree must be nonnegative", here)
        if label in seen:
            raise DocumentError(f"duplicate label {_echo(label)}", here)
        seen.add(label)
        labels.append(label)
        degrees.append(degree)
    return tuple(labels), tuple(degrees)


def _parse_tensor(raw: Any, location: str) -> dict[tuple[int, int, int],
                                                   int | Fraction]:
    """The entries of a tensor list, each value an int or a Fraction.

    An entry is read in one pass when it is an object with exactly the
    keys ``i``, ``j``, ``k`` and ``value``, its indices are ints (not
    bools), its key is new and its value matches the rational grammar
    and converts.  Any other entry goes to :func:`_reject_entry`, which
    raises the error of the first check it fails.
    """
    if not isinstance(raw, list):
        raise DocumentError("expected a list of entries", location)
    tensor: dict[tuple[int, int, int], int | Fraction] = {}
    for idx, item in enumerate(raw):
        if type(item) is dict and item.keys() == _ENTRY_KEYS:
            key = i, j, k = item["i"], item["j"], item["k"]
            value = item["value"]
            if (type(i) is int and type(j) is int and type(k) is int
                    and key not in tensor and type(value) is str
                    and (match := _RATIONAL_RE.match(value))):
                num, den = match.groups()
                try:
                    tensor[key] = (int(num) if den is None
                                   else Fraction(int(num), int(den)))
                    continue
                except (ValueError, ZeroDivisionError):
                    pass
        _reject_entry(item, tensor, f"{location}[{idx}]")
    return tensor


def _reject_entry(item: Any, tensor: dict, here: str) -> NoReturn:
    """Raise the error of an entry that :func:`_parse_tensor` could not
    read, running the entry checks in order: object, indices, keys,
    value, then a repeated key."""
    i = _expect(item, "i", int, here)
    j = _expect(item, "j", int, here)
    k = _expect(item, "k", int, here)
    _reject_unknown(item, _ENTRY_KEYS, here)
    _parse_rational(item.get("value"), f"{here}.value")
    if (i, j, k) in tensor:
        raise DocumentError(f"duplicate entry for ({i}, {j}, {k})", here)
    raise AssertionError(f"{here}: a JSON entry that passes every check "
                         "is read by _parse_tensor")


def _optional_index(mapping: dict, key: str, location: str) -> int | None:
    value = mapping.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"field {key!r} must be an integer or null",
                            location)
    return value


def parse_document(text: str) -> tuple[str, Payload]:
    """Parse a document into its name and ring or module pair.

    Raises :class:`DocumentError` for anything structurally wrong: bad
    JSON, missing or mistyped fields, duplicate tensor keys, indices that
    do not address the declared basis.  Axiom violations are *not*
    checked here; run the validators on the returned payload.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}", "") from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply to parse", "") from None
    if not isinstance(raw, dict):
        raise DocumentError("top level must be an object", "")
    _reject_unknown(raw, {"name", "dimension", "basis", "unit", "top",
                          "lambda", "module"}, "")
    name = _expect(raw, "name", str, "")
    dimension = _expect(raw, "dimension", int, "")
    labels, degrees = _parse_basis(_expect(raw, "basis", list, ""), "basis")
    unit = _expect(raw, "unit", int, "")
    top = _optional_index(raw, "top", "")
    tensor = _parse_tensor(_expect(raw, "lambda", list, ""), "lambda")
    # In a pair document, "dimension" is the module's formal dimension;
    # the ring's own formal dimension is the degree of its top class when
    # it has one (e.g. the absolute ring of a cylinder).
    ring_dimension = dimension
    if "module" in raw and top is not None:
        if not 0 <= top < len(degrees):
            raise DocumentError("top index out of range", "top")
        ring_dimension = degrees[top]
    try:
        basis = GradedBasis(labels=labels, degrees=degrees,
                            formal_dimension=ring_dimension, unit_index=unit,
                            top_index=top)
        ring = RingStructure(basis, tensor)
    except ValueError as exc:
        raise DocumentError(str(exc), "basis") from None

    if "module" not in raw:
        return name, ring

    mod = raw["module"]
    if not isinstance(mod, dict):
        raise DocumentError("expected an object", "module")
    _reject_unknown(mod, {"basis", "top", "action"}, "module")
    mod_labels, mod_degrees = _parse_basis(
        _expect(mod, "basis", list, "module"), "module.basis")
    mod_top = _optional_index(mod, "top", "module")
    action = _parse_tensor(_expect(mod, "action", list, "module"),
                           "module.action")
    try:
        module_basis = GradedBasis(labels=mod_labels, degrees=mod_degrees,
                                   formal_dimension=dimension,
                                   unit_index=None, top_index=mod_top)
        pair = ModulePair(ring, module_basis, action)
    except ValueError as exc:
        raise DocumentError(str(exc), "module") from None
    return name, pair


def _basis_json(basis: GradedBasis) -> list[dict]:
    return [{"label": lbl, "degree": deg}
            for lbl, deg in zip(basis.labels, basis.degrees)]


def _tensor_json(tensor: dict) -> list[dict]:
    return [{"i": i, "j": j, "k": k, "value": str(v)}
            for (i, j, k), v in sorted(tensor.items())]


def document_dict(name: str, payload: Payload) -> dict:
    """Canonical JSON-ready dictionary for a ring or module pair."""
    ring = payload.ring
    doc = {
        "name": name,
        # the module's formal dimension: for a ring, its own
        "dimension": payload.module_basis.formal_dimension,
        "basis": _basis_json(ring.basis),
        "unit": ring.basis.unit_index,
        "top": ring.basis.top_index,
        "lambda": _tensor_json(ring.tensor),
    }
    if isinstance(payload, ModulePair):
        doc["module"] = {
            "basis": _basis_json(payload.module_basis),
            "top": payload.module_basis.top_index,
            "action": _tensor_json(payload.action),
        }
    return doc


def emit_document(name: str, payload: Payload) -> str:
    """Canonical text form; a fixed point of emit -> parse -> emit."""
    return indented_json(document_dict(name, payload)) + "\n"


def indented_json(value: Any) -> str:
    """The text of ``json.dumps(value, indent=2)``, written faster.

    ``json.dumps`` falls back to its pure-Python encoder whenever it is
    given an indent, and visits every value in Python.  This writer
    quotes strings with the encoder's C escaper, writes a scalar of an
    exact type through one table lookup, and writes a list of strings,
    such as a matrix row, in one ``join``.  It takes str, int, bool,
    None, lists and dicts with str keys, and raises ``TypeError`` for any
    other type, floats and tuples included.
    """
    out: list[str] = []
    _write(value, "\n", out.append)
    return "".join(out)


# the JSON text of a scalar, by its exact type
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write(value: Any, newline: str, out: Callable[[str], Any]) -> None:
    """Append the text of ``value`` whose lines start with ``newline``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        head, comma = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}")
            head += _quote(key) + ": "
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out(head + scalar(item))
            else:
                out(head)
                _write(item, inner, out)
            head = comma
        out(newline + "}")
    elif isinstance(value, list):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        head, comma = "[" + inner, "," + inner
        if all(map(str.__instancecheck__, value)):   # all strings
            out(head + comma.join(map(_quote, value)) + newline + "]")
            return
        for item in value:
            out(head)
            _write(item, inner, out)
            head = comma
        out(newline + "]")
    elif isinstance(value, str):    # subclasses, as json.dumps takes them
        out(_quote(value))
    elif isinstance(value, int):
        out(int.__repr__(value))
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")
