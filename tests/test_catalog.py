import time

import pytest

from frobdiag import catalog
from frobdiag.boundary import (ModulePair, relative_diagonal_class,
                               relative_pairing_matrix,
                               solve_relative_symmetric_space,
                               validate_module)
from frobdiag.catalog import (CatalogError, catalog_names,
                              complex_projective, point, resolve, sphere,
                              torus)
from frobdiag.diagonal import (SignMode, diagonal_class,
                               solve_symmetric_space)
from frobdiag.ring import pairing_matrix, validate


class TestGenerators:
    def test_sphere_shape(self):
        ring = sphere(2)
        assert ring.basis.labels == ("1", "x")
        assert ring.basis.degrees == (0, 2)
        assert ring.basis.top_index == 1

    def test_sphere_rejects_dimension_zero(self):
        with pytest.raises(CatalogError):
            sphere(0)

    def test_cp1_is_sphere2_up_to_labels(self):
        cp1, s2 = complex_projective(1), sphere(2)
        assert cp1.tensor == s2.tensor
        assert cp1.basis.degrees == s2.basis.degrees
        assert cp1.basis.top_index == s2.basis.top_index

    def test_cp3_has_four_classes(self):
        ring = complex_projective(3)
        assert ring.size == 4
        assert validate(ring).ok

    def test_torus_requires_positive_rank(self):
        with pytest.raises(CatalogError):
            torus(0)

    def test_torus3_is_valid_rank_eight(self):
        ring = torus(3)
        assert ring.size == 8
        assert validate(ring).ok

    def test_point_is_its_own_top(self):
        ring = point()
        assert ring.basis.top_index == ring.basis.unit_index == 0


class TestResolve:
    def test_every_advertised_name_resolves_and_validates(self):
        for name in catalog_names():
            entry = resolve(name)
            if isinstance(entry.payload, ModulePair):
                assert validate_module(entry.payload).ok, name
            else:
                assert validate(entry.payload).ok, name

    def test_unknown_entry(self):
        with pytest.raises(CatalogError):
            resolve("klein-bottle")

    def test_non_integer_parameter(self):
        with pytest.raises(CatalogError):
            resolve("sphere:two")

    def test_product_needs_two_factors(self):
        with pytest.raises(CatalogError):
            resolve("product:sphere:2")

    def test_cylinder_of_pair_rejected(self):
        with pytest.raises(CatalogError):
            resolve("cylinder:disk:3")

    def test_product_respects_mode(self):
        lit = resolve("product:sphere:1,sphere:1", SignMode.LITERAL)
        grd = resolve("product:sphere:1,sphere:1", SignMode.GRADED)
        assert lit.payload.tensor != grd.payload.tensor
        assert not validate(lit.payload).ok
        assert validate(grd.payload).ok

    def test_torus_ignores_mode(self):
        assert resolve("torus:2", SignMode.LITERAL).payload.tensor == \
            resolve("torus:2", SignMode.GRADED).payload.tensor


class TestSizeBudget:
    @pytest.mark.parametrize("name", [
        "torus:20", "cp:100000", "product:torus:6,torus:6",
        "cylinder:torus:20", "closed:cp:100000", "torus:1000000000000"])
    def test_oversized_id_refused_before_building(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oversized entry was built")

        for builder in ("torus", "complex_projective", "product"):
            monkeypatch.setattr(catalog, builder, refuse)
        if name.startswith("product:"):
            # the factors are within budget and get built; the product not
            monkeypatch.setattr(catalog, "torus", torus)
        start = time.perf_counter()
        with pytest.raises(CatalogError, match="more than the catalog's "
                                               "limit of 1024"):
            resolve(name)
        assert time.perf_counter() - start < 0.1

    def test_message_names_the_size(self):
        with pytest.raises(CatalogError) as excinfo:
            resolve("torus:20")
        assert str(excinfo.value) == (
            "torus:20 would have 2^20 basis elements, more than the "
            "catalog's limit of 1024")
        with pytest.raises(CatalogError) as excinfo:
            resolve("product:torus:6,torus:6")
        assert str(excinfo.value) == (
            "product:torus:6,torus:6 would have 4096 basis elements, more "
            "than the catalog's limit of 1024")

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(catalog, "MAX_BASIS", 4)
        for name in ("torus:2", "cp:3", "product:sphere:2,sphere:2",
                     "cylinder:torus:2", "closed:cp:3"):
            resolve(name)
        for name in ("torus:3", "cp:4", "product:cp:1,cp:2",
                     "cylinder:torus:3", "closed:cp:4"):
            with pytest.raises(CatalogError):
                resolve(name)

    def test_cli_exit_code(self, invoke):
        code, out, err = invoke("validate", "torus:20")
        assert (code, out) == (2, "")
        assert "limit of 1024" in err


class TestStoredExpectations:
    def test_expectations_match_recomputation(self):
        for name in ("sphere:2", "cp:2", "torus:2", "disk:3",
                     "cylinder:sphere:2"):
            entry = resolve(name)
            assert entry.expected is not None, name
            payload = entry.payload
            if isinstance(payload, ModulePair):
                pairing = relative_pairing_matrix(payload)
                mu = relative_diagonal_class(payload).mu
                dim = len(solve_relative_symmetric_space(payload))
            else:
                pairing = pairing_matrix(payload)
                mu = diagonal_class(payload).mu
                dim = len(solve_symmetric_space(payload))
            assert pairing == entry.expected["pairing"], name
            assert mu == entry.expected["mu"], name
            assert dim == entry.expected["solution_dimension"], name

    def test_unlisted_entries_have_no_expectations(self):
        assert resolve("sphere:4").expected is None
