"""Ring generators and the symmetry systems that probe only them.

Symmetry for generators implies symmetry for every element once the ring
and the action are associative and unital, so the generator system has
the reduced row echelon form of the full system on every valid ring and
pair.  On a non-associative ring the two may differ, which is why only
validated inputs get the reduced probe list.
"""

from copy import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import boundary
from frobdiag.boundary import (ModulePair, check_relative_symmetry,
                               relative_class_in_span,
                               relative_diagonal_class,
                               solve_relative_symmetric_space,
                               validate_module)
from frobdiag.catalog import catalog_names, closed_as_pair, resolve, torus
from frobdiag.diagonal import (SignMode, TensorClass, _symmetry_system,
                               class_in_span, diagonal_class,
                               pairing_inverse, solve_symmetric_space)
from frobdiag.document import emit_document
from frobdiag.linalg import Matrix, rank, rref
from frobdiag.ring import (GradedBasis, RingStructure, basis_element,
                           generators, multiply, unit_element, validate)
from strategies import (bad_action_pair, block_rows, equations,
                        non_associative_ring, pairs, rings, validated)


def system_rref(payload):
    """The pivot rows and pivot columns of the system's reduced form."""
    rows, width = block_rows(payload)
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
                if rank(Matrix(span + [c])) > len(span):
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
    # a validated payload's system probes the generators only; a fresh,
    # unvalidated one probes every basis element
    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("mode", list(SignMode))
    def test_catalog_entry_rref_matches_full_system(self, name, mode):
        payload = resolve(name, mode).payload
        assert system_rref(validated(payload)) == system_rref(payload)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_ring_rref_matches_full_system(self, data):
        ring = data.draw(rings())
        assert system_rref(validated(ring)) == system_rref(ring)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_pair_rref_matches_full_system(self, data):
        mp = data.draw(pairs())
        assert system_rref(validated(mp)) == system_rref(mp)

    def test_non_associative_ring_systems_differ(self):
        # validation leaves the flag down, so the system takes every
        # probe; raised by hand, it takes x and y only, and differs
        ring = non_associative_ring()
        assert [ring.basis.labels[k] for k in generators(ring)] == ["x", "y"]
        assert not validate(ring).ok and not ring._valid
        full = system_rref(ring)
        ring._valid = True
        assert system_rref(ring) != full

    @pytest.mark.parametrize("verb", ["diag", "solve", "pair"])
    def test_cli_refuses_non_associative_ring(self, invoke, tmp_path, verb):
        path = tmp_path / "nonassoc.json"
        path.write_text(emit_document("nonassoc", non_associative_ring()))
        code, out, err = invoke(verb, str(path), "--mode", "graded")
        assert code == 1
        assert out == ""
        assert "associativity" in err


def recorded_builds(monkeypatch) -> list:
    """``(acting, degree, system)`` of every relative system built from
    now on, ``system`` its ``(rows, zeros)`` with each row copied before
    the kernel reduces it in place."""
    built, build = [], boundary._relative_symmetry_system

    def recorded(acting, degree=None, index=None):
        rows, zeros = build(acting, degree, index)
        built.append((acting, degree,
                      ([dict(row) for row in rows], list(zeros))))
        return rows, zeros

    monkeypatch.setattr(boundary, "_relative_symmetry_system", recorded)
    return built


class TestValidationDecidesTheProbes:
    @pytest.mark.parametrize("name", ["torus:4", "closed:torus:4"])
    def test_cli_pair_probes_the_generators(self, invoke, monkeypatch,
                                            name):
        # ``pair`` builds the pair (embedding a ring through
        # closed_as_pair) before validating it; the clean report marks
        # that pair, so its system has the rows of the ring's 4
        # generators alone, fewer than the 16 probes of a fresh copy
        built = recorded_builds(monkeypatch)
        code, _, err = invoke("pair", name, "--mode", "graded")
        assert (code, err) == (0, "")
        acting = built[0][0]
        assert isinstance(acting, ModulePair) and acting._valid
        assert all(payload is acting for payload, *_ in built)
        fresh = closed_as_pair(torus(4))
        twin = validated(fresh)
        assert len(generators(fresh.ring)) == 4
        for _, degree, system in built:
            assert system == _symmetry_system(twin, degree)
        assert sum(equations(*s).total() for *_, s in built) < sum(
            equations(*_symmetry_system(fresh, degree)).total()
            for _, degree, _ in built)

    def test_pair_with_a_bad_action_gets_every_probe(self, monkeypatch):
        # a pair over a valid ring is marked by its own report only
        mp = bad_action_pair()
        assert generators(mp.ring) == [1]
        assert [v.axiom for v in validate_module(mp)] == \
            ["module-associativity"]
        assert mp.ring._valid and not mp._valid
        built = recorded_builds(monkeypatch)
        solve_relative_symmetric_space(mp)
        assert all(payload is mp for payload, *_ in built)
        # the generator x alone, had the flag been raised
        probed = copy(mp)
        probed._valid = True
        assert sum(equations(*s).total() for *_, s in built) > sum(
            equations(*_symmetry_system(probed, degree)).total()
            for _, degree, _ in built)
        # e (x) z: the residual of x vanishes, that of z does not
        w = TensorClass(Matrix([[0, 0, 1], [0, 0, 0]]), mp.module_basis,
                        mp.ring.basis)
        assert [(e.probe, e.left, e.right, e.value)
                for e in check_relative_symmetry(mp, w)] == [(2, 1, 2, -1)]
        assert check_relative_symmetry(probed, w).ok


class TestTheoremsOnDrawnRings:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graded_solve_is_pairing_inverse(self, data):
        ring = data.draw(rings())
        w = diagonal_class(validated(ring), SignMode.GRADED)
        assert w.mu == pairing_inverse(ring)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_class_in_symmetric_span(self, data):
        ring = data.draw(rings())
        space = solve_symmetric_space(validated(ring))
        assert space == solve_symmetric_space(ring)
        assert class_in_span(space, diagonal_class(ring, SignMode.LITERAL))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pair_graded_solve_is_relative_inverse(self, data):
        mp = data.draw(pairs())
        assert relative_diagonal_class(validated(mp), SignMode.GRADED) == \
            relative_diagonal_class(mp, SignMode.LITERAL)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pair_inverse_class_in_symmetric_span(self, data):
        mp = data.draw(pairs())
        space = solve_relative_symmetric_space(validated(mp))
        assert space == solve_relative_symmetric_space(mp)
        assert relative_class_in_span(
            space, relative_diagonal_class(mp, SignMode.LITERAL))
