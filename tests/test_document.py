import enum
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.boundary import ModulePair, relative_pairing_matrix
from frobdiag.catalog import catalog_names, resolve
from frobdiag.document import (DocumentError, emit_document, indented_json,
                               parse_document)
from frobdiag.linalg import Matrix
from frobdiag.ring import RingStructure, change_basis, pairing_matrix
from strategies import pairs, rational_rings, rings


class TestRoundTrip:
    def test_emit_parse_emit_is_fixed_point_for_all_catalog_entries(self):
        for name in catalog_names():
            entry = resolve(name)
            first = emit_document(entry.name, entry.payload)
            reparsed_name, payload = parse_document(first)
            assert reparsed_name == entry.name
            second = emit_document(reparsed_name, payload)
            assert first == second, name

    def test_parse_recovers_equal_payload(self):
        for name in ("cp:2", "torus:2", "disk:3", "cylinder:sphere:2",
                     "closed:cp:2"):
            entry = resolve(name)
            _, payload = parse_document(emit_document(name, entry.payload))
            assert payload == entry.payload, name

    def test_cylinder_ring_keeps_its_own_dimension(self):
        entry = resolve("cylinder:sphere:2")
        _, payload = parse_document(emit_document(entry.name, entry.payload))
        assert isinstance(payload, ModulePair)
        assert payload.ring.basis.formal_dimension == 2
        assert payload.module_basis.formal_dimension == 3


def valid_ring_doc() -> dict:
    return json.loads(emit_document("sphere:2", resolve("sphere:2").payload))


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_document("{not json")

    def test_deep_nesting_is_a_document_error(self):
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_document("[" * 100000 + "]" * 100000)

    def test_top_level_must_be_object(self):
        with pytest.raises(DocumentError):
            parse_document("[1, 2]")

    def test_missing_field(self):
        doc = valid_ring_doc()
        del doc["basis"]
        with pytest.raises(DocumentError, match="basis"):
            parse_document(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = valid_ring_doc()
        doc["extra"] = 1
        with pytest.raises(DocumentError, match="unknown field"):
            parse_document(json.dumps(doc))

    def test_short_unknown_field_list_is_named_whole(self):
        doc = valid_ring_doc()
        doc.update({"extra": 1, "colour": 2, "a": 3, "b": 4, "c": 5})
        doc["basis"][1]["weight"] = 1
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == \
            "unknown field(s): a, b, c, colour, extra"
        del doc["extra"], doc["colour"], doc["a"], doc["b"], doc["c"]
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == "basis[1]: unknown field(s): weight"

    def test_long_unknown_field_list_is_cut(self, invoke, tmp_path):
        doc = valid_ring_doc()
        doc.update({f"x{i}": i for i in range(3000)})
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke("validate", str(path))
        assert code == 2
        assert out == ""
        message = err[len(f"{path}: "):].rstrip("\n")
        assert len(message) < 200
        assert message == ("unknown field(s): x0, x1, x10, x100, x1000, "
                           "... (3000 in all)")

    def test_long_unknown_field_name_is_cut(self):
        doc = valid_ring_doc()
        doc["y" * 5000] = 1
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == f"unknown field(s): {'y' * 40}..."

    def test_duplicate_tensor_key(self):
        doc = valid_ring_doc()
        doc["lambda"].append(dict(doc["lambda"][0]))
        with pytest.raises(DocumentError, match="duplicate"):
            parse_document(json.dumps(doc))

    def test_float_value_rejected(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["value"] = "1.5"
        with pytest.raises(DocumentError, match="rational"):
            parse_document(json.dumps(doc))

    def test_numeric_value_rejected(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["value"] = 1
        with pytest.raises(DocumentError, match="rational"):
            parse_document(json.dumps(doc))

    def test_short_offending_value_is_echoed_whole(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["value"] = [1, 2]
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == (
            "lambda[0].value: expected a rational string like '2' or "
            "'-3/4', got [1, 2]")

    def test_huge_offending_value_is_cut(self, invoke, tmp_path):
        doc = valid_ring_doc()
        doc["lambda"][0]["value"] = list(range(3000))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke("validate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"{path}: lambda[0].value: ")
        message = err[len(f"{path}: "):].rstrip("\n")
        assert len(message) < 200
        assert message.endswith(
            "got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1...")

    def test_zero_denominator(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["value"] = "1/0"
        with pytest.raises(DocumentError, match="denominator"):
            parse_document(json.dumps(doc))

    def test_out_of_range_index(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["i"] = 99
        with pytest.raises(DocumentError, match="out of range"):
            parse_document(json.dumps(doc))

    def test_huge_integer_literal_is_a_document_error(self, invoke,
                                                      tmp_path):
        # json.loads raises a plain ValueError past int()'s digit limit
        text = '{"name": "x", "dimension": ' + "9" * 4301 + "}"
        message = "JSON integer literal has too many digits to convert exactly"
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        assert str(excinfo.value) == message
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert invoke("validate", str(path)) == (2, "", f"{path}: {message}\n")

    def test_error_carries_location(self):
        doc = valid_ring_doc()
        doc["lambda"][1]["value"] = "nope"
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert excinfo.value.location == "lambda[1].value"

    def test_unit_degree_enforced(self):
        doc = valid_ring_doc()
        doc["basis"][0]["degree"] = 1
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    def test_axiom_violations_are_not_parse_errors(self):
        # a grading violation parses fine; it belongs to validation
        doc = valid_ring_doc()
        doc["lambda"].append({"i": 1, "j": 1, "k": 1, "value": "1"})
        _, ring = parse_document(json.dumps(doc))
        from frobdiag.ring import validate
        assert not validate(ring).ok


def sphere_pair_doc() -> dict:
    return json.loads(emit_document("cylinder:sphere:2",
                                    resolve("cylinder:sphere:2").payload))


class TestErrorOrder:
    """Which error a document with two faults reports: entry checks run
    over the whole list first, then the basis checks, then the index
    range, and a key counts as seen even when its value is zero."""

    def test_malformed_entry_after_an_out_of_range_one(self):
        doc = valid_ring_doc()
        doc["lambda"][0]["k"] = 99
        doc["lambda"][2]["value"] = "nope"
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == (
            "lambda[2].value: expected a rational string like '2' or "
            "'-3/4', got 'nope'")

    def test_first_out_of_range_index_in_list_order(self):
        doc = valid_ring_doc()
        doc["lambda"][2]["i"] = 7
        doc["lambda"][1]["j"] = -1
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == \
            "basis: tensor index (0, -1, 1) out of range"

    @pytest.mark.parametrize("section", ["lambda", "module"])
    def test_basis_error_before_range_error(self, section):
        if section == "lambda":
            doc = valid_ring_doc()
            doc["lambda"][0]["i"] = 99
            doc["basis"][0]["degree"] = 1
            expected = "basis: unit basis element must have degree 0"
        else:
            doc = sphere_pair_doc()
            doc["module"]["action"][0]["k"] = 99
            doc["module"]["top"] = 0
            expected = ("module: top basis element must sit in the formal "
                        "dimension")
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == expected

    def test_range_error_of_the_action(self):
        doc = sphere_pair_doc()
        doc["module"]["action"][1]["k"] = 2
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == \
            "module: action index (0, 1, 2) out of range"

    @pytest.mark.parametrize("zero", ["0", "-0", "0/5"])
    def test_duplicate_key_whose_value_is_zero(self, zero):
        doc = valid_ring_doc()
        doc["lambda"].insert(0, {"i": 1, "j": 1, "k": 1, "value": zero})
        doc["lambda"].append({"i": 1, "j": 1, "k": 1, "value": "1"})
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == \
            f"lambda[{len(doc['lambda']) - 1}]: duplicate entry for (1, 1, 1)"


@st.composite
def respelled_documents(draw) -> dict:
    """A drawn ring or pair (integral or rational) as a document whose
    values are spelled in drawn equivalent ways (``6/4`` for 3/2, ``4/2``
    for 2), with zero entries (``0``, ``-0``, ``0/5``) added at free
    keys.  Half of the pairs have one action value doubled, so that the
    action is not the ring's product."""
    payload = draw(st.one_of(rings(), rational_rings(), pairs(),
                             pairs(rational_rings())))
    doc = json.loads(emit_document("drawn", payload))
    n = len(doc["basis"])
    tensors = [(doc["lambda"], (n, n, n))]
    if "module" in doc:
        nm = len(doc["module"]["basis"])
        tensors.append((doc["module"]["action"], (n, nm, nm)))
        if draw(st.booleans()):
            entry = draw(st.sampled_from(doc["module"]["action"]))
            entry["value"] = str(2 * Fraction(entry["value"]))
    for entries, (ni, nj, nk) in tensors:
        for entry in entries:
            factor = draw(st.sampled_from((1, 1, 2, 3)))
            if factor > 1:
                v = Fraction(entry["value"])
                entry["value"] = \
                    f"{v.numerator * factor}/{v.denominator * factor}"
        taken = {(e["i"], e["j"], e["k"]) for e in entries}
        free = [key for key in ((i, j, k) for i in range(ni)
                                for j in range(nj) for k in range(nk))
                if key not in taken]
        if free:
            for i, j, k in draw(st.lists(st.sampled_from(free),
                                         max_size=3, unique=True)):
                entries.insert(
                    draw(st.integers(min_value=0, max_value=len(entries))),
                    {"i": i, "j": j, "k": k,
                     "value": draw(st.sampled_from(("0", "-0", "0/5")))})
    return doc


def _written(entries: list) -> dict:
    return {(e["i"], e["j"], e["k"]): e["value"] for e in entries}


def _same_constants(got, want) -> None:
    """``got`` and ``want`` store the same ints in the same order, over
    the same denominator, and show the same exact ``tensor`` or
    ``action``, value types included."""
    assert got._den == want._den
    assert [(key, list(c.items())) for key, c in got._ints.items()] == \
        [(key, list(c.items())) for key, c in want._ints.items()]
    assert all(type(v) is int for c in got._ints.values() for v in c.values())
    flat = (lambda p: p.action) if isinstance(want, ModulePair) \
        else (lambda p: p.tensor)
    assert [(key, v, type(v)) for key, v in flat(got).items()] == \
        [(key, v, type(v)) for key, v in flat(want).items()]


@settings(max_examples=60, deadline=None)
@given(respelled_documents())
def test_parse_stores_what_the_constructor_stores(doc):
    # the document reader builds the stored map in its own pass, with no
    # Fraction made; the public constructor reads the same written values
    _, parsed = parse_document(json.dumps(doc))
    ring = RingStructure(parsed.ring.basis, _written(doc["lambda"]))
    _same_constants(parsed.ring, ring)
    assert pairing_matrix(parsed.ring) == pairing_matrix(ring)
    if "module" in doc:
        pair = ModulePair(ring, parsed.module_basis,
                          _written(doc["module"]["action"]))
        _same_constants(parsed, pair)
        assert relative_pairing_matrix(parsed) == relative_pairing_matrix(pair)
        # an action equal to the ring's product shares the ring's map
        assert (parsed._ints is parsed.ring._ints) == (
            parsed.module_basis.size == ring.size
            and (pair._den, pair._ints) == (ring._den, ring._ints))


class TestDuplicateLabels:
    def test_repeated_ring_label_is_a_document_error(self, invoke, tmp_path):
        doc = valid_ring_doc()
        doc["basis"][1]["label"] = "1"
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == "basis[1]: duplicate label '1'"
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        assert invoke("validate", str(path)) == \
            (2, "", f"{path}: basis[1]: duplicate label '1'\n")

    def test_repeated_module_label_is_a_document_error(self):
        doc = json.loads(emit_document("cylinder:sphere:2",
                                      resolve("cylinder:sphere:2").payload))
        doc["module"]["basis"][1]["label"] = "z" * 500
        doc["module"]["basis"][0]["label"] = "z" * 500
        with pytest.raises(DocumentError) as excinfo:
            parse_document(json.dumps(doc))
        assert str(excinfo.value) == \
            f"module.basis[1]: duplicate label '{'z' * 39}..."


GOLDEN = Path(__file__).parent / "golden"


class TestEmittedBytes:
    """Emission pinned to the bytes of an earlier release.

    Structure constants are stored as ``int`` where integral and as
    ``Fraction`` otherwise; documents must not show the difference.
    ``emit_catalog.sha256`` holds the SHA-256 of each catalog entry's
    document and ``emit_moved_torus3.json`` a ring with both kinds of
    constant, both written before the constants became ints.
    """

    def test_catalog_documents_are_unchanged(self):
        lines = (GOLDEN / "emit_catalog.sha256").read_text().splitlines()
        assert len(lines) == len(catalog_names())
        for line in lines:
            digest, name = line.split("  ")
            text = emit_document(name, resolve(name).payload)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name

    def test_rational_moved_ring_document_is_unchanged(self):
        moved = moved_torus3()
        values = moved.tensor.values()
        assert any(type(v) is int for v in values)
        assert any(type(v) is Fraction for v in values)
        assert emit_document("moved:torus:3", moved) == \
            (GOLDEN / "emit_moved_torus3.json").read_text()


def moved_torus3() -> RingStructure:
    """torus:3 moved by a basis change of determinant 5 * 3: rational."""
    p = [[int(i == j) for j in range(8)] for i in range(8)]
    p[1][1], p[1][2], p[2][1], p[2][2] = 2, 1, 1, 3   # degree 1
    p[3][5], p[5][5] = 1, 3                           # degree 2
    return change_basis(resolve("torus:3").payload, Matrix(p))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)


def _slots(node, out):
    """Every ``(container, key)`` in a parsed JSON value, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return out
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


@st.composite
def mutated_documents(draw):
    """A catalog document with one to three fields changed.

    A field is replaced by any JSON value or a small integer, removed, or,
    in a list, repeated.
    """
    name = draw(st.sampled_from(catalog_names()))
    doc = json.loads(emit_document(name, resolve(name).payload))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        container, key = draw(st.sampled_from(_slots(doc, [])))
        kind = draw(st.sampled_from(("replace", "small", "remove", "copy")))
        if kind == "small":
            container[key] = draw(st.integers(min_value=-2, max_value=9))
        elif kind == "remove":
            del container[key]
        elif kind == "copy" and isinstance(container, list):
            container.append(container[key])
        else:
            container[key] = draw(json_values)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values.map(json.dumps), mutated_documents()))
def test_any_json_text_parses_or_is_a_document_error(text):
    try:
        parse_document(text)
    except DocumentError:
        pass


# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII letters, an astral character and a lone surrogate
awkward_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\r'
                                       'é€\u2028😀\ud800'),
                       st.characters()),
    max_size=10)
writer_scalars = (st.none() | st.booleans() | awkward_text
                  | st.integers()
                  | st.integers(min_value=-10 ** 80, max_value=10 ** 80))
writer_values = st.recursive(
    writer_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(awkward_text, max_size=4)
                      | st.dictionaries(awkward_text, children, max_size=4)),
    max_leaves=16)


class _Colour(str, enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


class TestIndentedJson:
    """``indented_json`` writes the text of ``json.dumps(v, indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(writer_values)
    def test_equals_json_dumps(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[], {}, [[]], {"": {}}, [{}, []],
                                       [_Colour.RED, _Level.HIGH],
                                       {"k": [True, None, "x"]}])
    def test_empty_containers_and_subclasses(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, [0, 1.0], (1, 2), ["a", (1,)],
                                       {1: "a"}, {"a": {None: 1}},
                                       {(0, 1): 2}, Fraction(1, 2), {"a"}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            indented_json(value)
