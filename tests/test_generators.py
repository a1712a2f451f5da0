"""Ring generators and the symmetry systems that probe only them.

Symmetry for generators implies symmetry for every element once the ring
and the action are associative and unital, so the generator system has
the reduced row echelon form of the full system on every valid ring and
pair.  On a non-associative ring the two may differ, which is why only
validated inputs get the reduced probe list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.boundary import (_relative_symmetry_system,
                               relative_class_in_span,
                               relative_diagonal_class,
                               solve_relative_symmetric_space)
from frobdiag.catalog import catalog_names, resolve
from frobdiag.diagonal import (SignMode, _symmetry_system, class_in_span,
                               diagonal_class, pairing_inverse,
                               solve_symmetric_space)
from frobdiag.document import emit_document
from frobdiag.linalg import Matrix, rank, rref
from frobdiag.ring import (GradedBasis, RingStructure, basis_element,
                           generators, multiply, unit_element, validate)
from strategies import non_associative_ring, pairs, rings


def system_rref(payload, probes=None):
    """The pivot rows and pivot columns of the system's reduced form."""
    if isinstance(payload, RingStructure):
        rows, width = _symmetry_system(payload, payload.basis, payload,
                                       probes)
    else:
        rows, width = _relative_symmetry_system(payload, probes)
    reduced, pivots = rref(Matrix.sparse(rows, width))
    # rref pads with zero rows up to the row count, which differs
    return [reduced.row(i) for i in range(len(pivots))], pivots


def ring_of(payload):
    return payload if isinstance(payload, RingStructure) else payload.ring


def closure_rank(ring, picks):
    """Rank of the span of all products of the picks, the unit included."""
    span = [unit_element(ring)]
    frontier = list(span)
    while frontier:
        grown = []
        for a in frontier:
            for k in picks:
                c = multiply(ring, a, basis_element(ring, k))
                if rank(Matrix.from_rows(span + [c])) > len(span):
                    span.append(c)
                    grown.append(c)
        frontier = grown
    return len(span)


class TestGenerators:
    @pytest.mark.parametrize("name,labels", [
        ("point", []),
        ("cp:3", ["h"]),
        ("torus:3", ["1*1*x", "1*x*1", "x*1*1"]),
        ("product:cp:2,torus:2", ["1*1*x", "1*x*1", "h*1*1"]),
        ("product:sphere:2,sphere:2", ["1*x", "x*1"]),
    ])
    def test_known_generating_sets(self, name, labels):
        ring = resolve(name, SignMode.GRADED).payload
        assert [ring.basis.labels[k] for k in generators(ring)] == labels

    def test_order_is_degree_then_index(self):
        # the degree-2 class sits after the degree-1 ones in the basis
        ring = resolve("product:torus:2,cp:1", SignMode.GRADED).payload
        picks = generators(ring)
        degrees = [ring.basis.degrees[k] for k in picks]
        assert [(d, k) for d, k in zip(degrees, picks)] == \
            sorted(zip(degrees, picks))
        assert degrees == [1, 1, 2]

    def test_ring_with_extra_degree_zero_class_keeps_every_index(self):
        # e.e = e in degree 0: not connected, so no probe is dropped
        basis = GradedBasis(labels=("1", "e"), degrees=(0, 0),
                            formal_dimension=0, unit_index=0, top_index=1)
        ring = RingStructure(basis, {(0, 0, 0): 1, (0, 1, 1): 1,
                                     (1, 0, 1): 1, (1, 1, 1): 1})
        assert validate(ring).ok
        assert generators(ring) == [1]

    @pytest.mark.parametrize("name", catalog_names() + ["torus:4", "cp:6"])
    def test_catalog_generators_generate(self, name):
        ring = ring_of(resolve(name).payload)
        assert closure_rank(ring, generators(ring)) == ring.size

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_ring_generators_generate(self, data):
        ring = data.draw(rings())
        assert closure_rank(ring, generators(ring)) == ring.size


class TestGeneratorSystem:
    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("mode", list(SignMode))
    def test_catalog_entry_rref_matches_full_system(self, name, mode):
        payload = resolve(name, mode).payload
        probes = generators(ring_of(payload))
        assert system_rref(payload, probes) == system_rref(payload)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_ring_rref_matches_full_system(self, data):
        ring = data.draw(rings())
        assert system_rref(ring, generators(ring)) == system_rref(ring)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_pair_rref_matches_full_system(self, data):
        mp = data.draw(pairs())
        assert system_rref(mp, generators(mp.ring)) == system_rref(mp)

    def test_non_associative_ring_systems_differ(self):
        ring = non_associative_ring()
        assert [ring.basis.labels[k] for k in generators(ring)] == ["x", "y"]
        assert system_rref(ring, generators(ring)) != system_rref(ring)

    @pytest.mark.parametrize("verb", ["diag", "solve", "pair"])
    def test_cli_refuses_non_associative_ring(self, invoke, tmp_path, verb):
        path = tmp_path / "nonassoc.json"
        path.write_text(emit_document("nonassoc", non_associative_ring()))
        code, out, err = invoke(verb, str(path), "--mode", "graded")
        assert code == 1
        assert out == ""
        assert "associativity" in err


class TestTheoremsOnDrawnRings:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graded_solve_is_pairing_inverse(self, data):
        ring = data.draw(rings())
        w = diagonal_class(ring, SignMode.GRADED, generators(ring))
        assert w.mu == pairing_inverse(ring)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_class_in_symmetric_span(self, data):
        ring = data.draw(rings())
        space = solve_symmetric_space(ring, generators(ring))
        assert space == solve_symmetric_space(ring)
        assert class_in_span(space, diagonal_class(ring, SignMode.LITERAL))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pair_graded_solve_is_relative_inverse(self, data):
        mp = data.draw(pairs())
        assert relative_diagonal_class(mp, SignMode.GRADED,
                                       generators(mp.ring)) == \
            relative_diagonal_class(mp, SignMode.LITERAL)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pair_inverse_class_in_symmetric_span(self, data):
        mp = data.draw(pairs())
        space = solve_relative_symmetric_space(mp, generators(mp.ring))
        assert space == solve_relative_symmetric_space(mp)
        assert relative_class_in_span(
            space, relative_diagonal_class(mp, SignMode.LITERAL))
