import json

import pytest

from frobdiag.boundary import ModulePair
from frobdiag.catalog import catalog_names, resolve
from frobdiag.document import DocumentError, emit_document, parse_document


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
