import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.boundary import ModulePair
from frobdiag.catalog import catalog_names, resolve
from frobdiag.document import DocumentError, emit_document, parse_document
from frobdiag.linalg import Matrix
from frobdiag.ring import RingStructure, change_basis


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
