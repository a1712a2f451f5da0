import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import diagonal, linalg
from frobdiag.boundary import ModulePair
from frobdiag.catalog import (catalog_names, complex_projective, point,
                              resolve, sphere, torus)
from frobdiag.diagonal import (NoSolutionError, NonUniqueSolutionError,
                               SignMode, SingularPairingError, TensorClass,
                               check_symmetry, check_top_normalization,
                               class_in_span, diagonal_class, koszul_sign,
                               kunneth_product, left_factor, pairing_inverse,
                               pure_tensor, right_factor,
                               solve_symmetric_space, tensor_multiply)
from frobdiag.linalg import Matrix, _integral, _reduce, rank
from frobdiag.ring import (MissingTopClassError, RingStructure,
                           basis_element, multiply, unit_element, validate)
from strategies import (ODD_RING_NAMES, bad_action_pair, block_rows, builder,
                        echelon_of, elements, equations, flatten,
                        inserted_one_at_a_time, matrices, modes,
                        non_associative_ring, nonzero, pairs,
                        reference_system, rings, symmetric_family, validated)

EVEN_RINGS = {
    "sphere:2": sphere(2),
    "sphere:4": sphere(4),
    "cp:2": complex_projective(2),
    "cp:3": complex_projective(3),
    "product:sphere:2,sphere:2": kunneth_product(sphere(2), sphere(2),
                                                 SignMode.LITERAL),
    "product:cp:1,cp:1": kunneth_product(complex_projective(1),
                                         complex_projective(1),
                                         SignMode.LITERAL),
}

ALL_RINGS = dict(EVEN_RINGS, **{"point": point(), "torus:2": torus(2),
                                "sphere:1": sphere(1)})


# drawn with random.Random(2) from (0, 0, 1, -1, 2, -3)
ASYMMETRIC_MU = Matrix([[0, 0, 0, 1], [0, -3, -3, 1],
                        [1, 2, 0, 2], [0, 2, -3, 0]])
ASYMMETRIC_RESIDUALS = [
    (1, 1, 3, -4), (1, 2, 1, 1), (1, 3, 0, 1), (1, 3, 1, 2), (1, 3, 3, -1),
    (2, 1, 3, 3), (2, 2, 2, 1), (2, 2, 3, -3), (2, 3, 1, 3), (2, 3, 2, 3),
    (2, 3, 3, -3), (3, 2, 3, 1), (3, 3, 3, -1)]


class TestTensorMultiply:
    def test_unit_is_neutral(self):
        ring = complex_projective(2)
        rng = random.Random(5)
        mu = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                     for _ in range(3)])
        w = TensorClass(mu, ring.basis, ring.basis)
        one = pure_tensor(ring, ring, unit_element(ring), unit_element(ring))
        for mode in SignMode:
            assert tensor_multiply(ring, ring, mode, one, w).mu == mu
            assert tensor_multiply(ring, ring, mode, w, one).mu == mu

    def test_sphere2_literal_factors_commute(self):
        ring = sphere(2)
        x = basis_element(ring, 1)
        xl = left_factor(ring, ring, x)
        xr = right_factor(ring, ring, x)
        xx = pure_tensor(ring, ring, x, x)
        lit = SignMode.LITERAL
        assert tensor_multiply(ring, ring, lit, xl, xr).mu == xx.mu
        assert tensor_multiply(ring, ring, lit, xr, xl).mu == xx.mu

    def test_circle_graded_koszul_sign(self):
        ring = sphere(1)
        a = basis_element(ring, 1)
        al = left_factor(ring, ring, a)
        ar = right_factor(ring, ring, a)
        aa = pure_tensor(ring, ring, a, a)
        grd = SignMode.GRADED
        assert tensor_multiply(ring, ring, grd, al, ar).mu == aa.mu
        # -aa: the coefficient of a (x) a is -1
        assert aa.mu == Matrix([[0, 0], [0, 1]])
        assert tensor_multiply(ring, ring, grd, ar, al).mu == \
            Matrix([[0, 0], [0, -1]])

    def test_wrong_basis_rejected(self):
        r2, r4 = sphere(2), sphere(4)
        w = pure_tensor(r2, r2, basis_element(r2, 1), unit_element(r2))
        with pytest.raises(ValueError):
            tensor_multiply(r4, r4, SignMode.LITERAL, w, w)


class TestPairingInverse:
    def test_sphere(self):
        assert pairing_inverse(sphere(2)) == Matrix([[0, 1], [1, 0]])

    def test_cp2_self_inverse_permutation(self):
        assert pairing_inverse(complex_projective(2)) == Matrix(
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_point(self):
        assert pairing_inverse(point()) == Matrix([[1]])

    def test_degenerate_raises(self):
        from test_ring import degenerate_ring
        with pytest.raises(SingularPairingError):
            pairing_inverse(degenerate_ring())


class TestDiagonalClass:
    def test_sphere2_literal(self):
        w = diagonal_class(sphere(2), SignMode.LITERAL)
        assert w.mu == Matrix([[0, 1], [1, 0]])  # 1(x)x + x(x)1

    def test_cp2_literal(self):
        w = diagonal_class(complex_projective(2), SignMode.LITERAL)
        assert w.mu == Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_point_both_modes(self):
        for mode in SignMode:
            assert diagonal_class(point(), mode).mu == Matrix([[1]])

    def test_top_normalization_holds(self):
        for ring in ALL_RINGS.values():
            w = diagonal_class(ring, SignMode.LITERAL)
            assert check_top_normalization(ring, w)

    def test_graded_solution_unique_and_matches_inverse(self):
        # the normalized graded solution exists, is unique, and recovers
        # the inverse pairing exactly, odd degrees included
        for name, ring in ALL_RINGS.items():
            wg = diagonal_class(ring, SignMode.GRADED)
            assert wg.mu == pairing_inverse(ring), name

    def test_missing_top_raises_missing_top_class(self, monkeypatch):
        # the top index is checked before any symmetry system is built
        ring = sphere(2)
        naked = RingStructure(replace(ring.basis, top_index=None),
                              ring.tensor)
        w = diagonal_class(ring, SignMode.LITERAL)
        monkeypatch.setattr(diagonal, "_symmetry_system", None)
        message = "^ring has no top basis index$"
        for mode in SignMode:
            with pytest.raises(MissingTopClassError, match=message):
                diagonal_class(naked, mode)
        with pytest.raises(MissingTopClassError, match=message):
            check_top_normalization(naked, w)

    def test_degenerate_graded_has_no_normalized_solution(self):
        # a singular pairing admits no class whose top row/column hit the
        # unit indicator: the normalized system is inconsistent
        from test_ring import degenerate_ring
        from frobdiag.diagonal import NoSolutionError
        with pytest.raises((NoSolutionError, NonUniqueSolutionError,
                            SingularPairingError)):
            diagonal_class(degenerate_ring(), SignMode.GRADED)


class TestCheckSymmetry:
    def test_diagonal_class_is_symmetric_everywhere(self):
        for name, ring in ALL_RINGS.items():
            w = diagonal_class(ring, SignMode.LITERAL)
            assert check_symmetry(ring, w).ok, name

    def test_half_class_fails_on_sphere(self):
        ring = sphere(2)
        w = right_factor(ring, ring, basis_element(ring, 1))  # 1(x)x alone
        report = check_symmetry(ring, w)
        assert not report.ok
        # probing with x: lhs 1(x)x.x = 0, rhs x(x)x
        assert [(e.probe, e.left, e.right, e.value) for e in report] == \
            [(1, 1, 1, Fraction(-1))]

    def test_zero_class_is_symmetric(self):
        ring = complex_projective(2)
        zero = TensorClass(Matrix.zeros(3, 3), ring.basis, ring.basis)
        assert check_symmetry(ring, zero).ok

    def test_residual_report_pinned(self):
        # a seeded random integer class on torus:2; the entries come in
        # (probe, left, right) order
        ring = torus(2)
        w = TensorClass(ASYMMETRIC_MU, ring.basis, ring.basis)
        assert [(e.probe, e.left, e.right, e.value)
                for e in check_symmetry(ring, w)] == ASYMMETRIC_RESIDUALS


class TestSymmetrySystem:
    def test_rows_match_check_symmetry_residuals(self, residual_system):
        # check_symmetry multiplies tensor classes; the system is built
        # from the structure constants directly
        for name in catalog_names():
            for mode in SignMode:
                ring = resolve(name, mode).payload
                if not isinstance(ring, RingStructure):
                    continue
                rows, width = block_rows(ring)
                expected = residual_system(
                    ring.size, ring.size, lambda mu: check_symmetry(
                        ring, TensorClass(mu, ring.basis, ring.basis)))
                assert width == ring.size ** 2, (name, mode)
                # blocks do not keep the (probe, left, right) order
                assert sorted(rows) == sorted(expected), (name, mode)


def normalization_pins(payload) -> list:
    """The pins of the graded solvers: the top row (and, for a ring, the
    top column) of ``mu`` is the unit indicator."""
    closed = not isinstance(payload, ModulePair)
    ring = payload if closed else payload.ring
    top = (payload.basis if closed else payload.module_basis).top_index
    unit = ring.basis.unit_index
    return [(slot, int(j == unit)) for j in range(ring.size)
            for slot in ([(top, j), (j, top)] if closed else [(top, j)])]


def whole_echelon(payload, pins=()):
    """One ``_reduce`` of the whole system, every equation a row
    (``strategies.reference_system``), and the pin rows, the right-hand
    side in the column after the unknowns."""
    rows, width = reference_system(payload)
    for (i, j), value in pins:
        row = {i * payload.ring.size + j: 1}
        if value:
            row[width] = value
        rows.append(row)
    return _reduce(rows)


class TestDegreeBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_blocked_reduction_is_the_whole_one(self, data):
        payload = data.draw(st.one_of(rings(), pairs()))
        pins = normalization_pins(payload) if data.draw(st.booleans()) \
            else []
        build = builder(payload)
        assert diagonal._blocks(payload) != [None]
        blocked, width = diagonal._reduce_blocks(build, payload, pins)
        assert width == reference_system(payload)[1]
        assert echelon_of(blocked) == echelon_of(whole_echelon(payload, pins))

    def test_grading_violation_takes_one_block(self, monkeypatch):
        # cp:2 with h^2.h^2 = 1, which lands in degree 0, not 8: equation
        # (k, i, s) = (h^2, 1, 1) then reads mu[1, h^2] - mu[h^2, 1] = 0,
        # of total degree 0 + 0 - 4, in no block of the degrees 0 to 8
        base = complex_projective(2)
        ring = RingStructure(base.basis, {**base.tensor, (2, 2, 0): 1})
        assert [v.axiom for v in validate(ring)][0] == "grading"
        build = builder(ring)
        assert diagonal._blocks(ring) == [None]
        whole = echelon_of(whole_echelon(ring))
        assert echelon_of(diagonal._reduce_blocks(build, ring)[0]) == whole
        # split by degree anyway, that equation is lost
        monkeypatch.setattr(diagonal, "_blocks", lambda *_: [0, 2, 4, 6, 8])
        assert echelon_of(diagonal._reduce_blocks(build, ring)[0]) != whole


def drawn_pins(data, payload) -> list:
    """A few ``((i, j), value)`` pins on drawn entries, a zero value half
    of the time; two pins on one entry may disagree."""
    slots = st.tuples(st.integers(0, payload.module_basis.size - 1),
                      st.integers(0, payload.ring.size - 1))
    values = st.one_of(st.just(0), st.integers(-2, 2))
    return data.draw(st.lists(st.tuples(slots, values), max_size=6))


def scaled_builder(build, scales):
    """``build`` with its ``i``-th row times ``scales[i % len(scales)]``
    and scaled back to integers by ``_integral``, since the kernel takes
    integer rows: rows that differ from the built ones by rational
    factors.  The zero columns are passed on as they are."""
    def build_scaled(*args):
        rows, zeros = build(*args)
        return [_integral({c: v * scales[n % len(scales)]
                           for c, v in row.items()})[0]
                for n, row in enumerate(rows)], zeros
    return build_scaled


class TestStructuredPass:
    """``_reduce`` settles one-term rows and zero pins as zero unknowns
    before any elimination; the echelon stays the whole system's."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_settled_reduction_is_the_whole_one(self, data):
        payload = data.draw(st.one_of(rings(), pairs()))
        pins = data.draw(st.sampled_from((
            [], normalization_pins(payload), drawn_pins(data, payload))))
        build = builder(payload)
        if data.draw(st.booleans()):
            build = scaled_builder(build, data.draw(st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=5
                             ).filter(bool), min_size=1, max_size=3)))
        blocked, width = diagonal._reduce_blocks(build, payload, pins)
        assert echelon_of(blocked) == echelon_of(whole_echelon(payload, pins))
        assert all(type(v) is int for row in blocked.pivots.values()
                   for v in row.values())

    def test_zero_and_nonzero_pin_on_one_entry_are_inconsistent(self):
        # the zero pin seeds mu[1, 1] as a zero column, so the other pin's
        # row {4: 1, width: 1} is left as {width: 1}: the pivot 0 = 1
        ring = complex_projective(2)
        pins = normalization_pins(ring) + [((1, 1), 0), ((1, 1), 1)]
        blocked, width = diagonal._reduce_blocks(diagonal._symmetry_system,
                                                 ring, pins)
        assert blocked.pivots[width] == {width: 1}
        with pytest.raises(NoSolutionError, match="inconsistent"):
            diagonal._normalized_solve(diagonal._symmetry_system, ring,
                                       pins, "symmetry system")

    def test_pin_on_a_zero_unknown_is_inconsistent(self):
        # mu[0, 0] of cp:2 is a zero unknown (the equation of 1 (x) h for
        # the probe h, handed over as its column, says so), so the pin
        # mu[0, 0] = 1 is left as the row {width: 1}, which is settled as
        # the pivot 0 = 1
        ring = complex_projective(2)
        pins = normalization_pins(ring) + [((0, 0), 1)]
        blocked, width = diagonal._reduce_blocks(diagonal._symmetry_system,
                                                 ring, pins)
        assert blocked.pivots[width] == {width: 1}
        assert echelon_of(blocked) == echelon_of(whole_echelon(ring, pins))
        with pytest.raises(NoSolutionError, match="inconsistent"):
            diagonal._normalized_solve(diagonal._symmetry_system, ring,
                                       pins, "symmetry system")

    def test_zeros_found_late_are_deleted_from_earlier_rows(
            self, monkeypatch):
        # a chain ended by one-term rows, read from either end: read from
        # the far end, each zero is found after the rows that hold it, and
        # the pass over the kept rows in reverse settles the whole chain
        # with no elimination
        width = 6
        eliminated, eliminate = [], linalg._eliminate

        def counted(row, c, pivot_row):
            eliminated.append(c)
            eliminate(row, c, pivot_row)

        def chain():
            return [{3: 1, width: 2}, {2: 1, 3: -1}, {1: 1, 2: -1},
                    {0: 1, 1: -1}, {0: 5}, {0: -1}]

        monkeypatch.setattr(linalg, "_eliminate", counted)
        for step in (1, -1):
            settled = _reduce(chain()[::step])
            assert settled.pivots == {c: {c: 1} for c in (0, 1, 2, 3, width)}
            assert eliminated == []
            assert echelon_of(settled) == \
                echelon_of(inserted_one_at_a_time(chain()))
            eliminated.clear()

        # an earlier block holds the right-hand side, so the row left as
        # {width: 2} goes to _insert, which clears width from that block;
        # a one-term row at that block's pivot goes to _insert as well
        def earlier():
            return inserted_one_at_a_time([{4: 1, 5: 1, width: 3}])

        for extra, pivot_4 in (([], {4: 1, 5: 1}), ([{4: 2}], {4: 1})):
            for step in (1, -1):
                held = _reduce(chain()[::step] + extra, earlier())
                assert held.pivots[4] == pivot_4
                assert echelon_of(held) == echelon_of(
                    inserted_one_at_a_time(chain() + extra, earlier()))


def oracle_payloads():
    """Drawn rings and pairs, validated or not, and the ring and the
    pair that fail associativity."""
    drawn = st.one_of(rings(), pairs())
    return st.one_of(drawn, drawn.map(validated),
                     st.sampled_from([non_associative_ring(),
                                      bad_action_pair()]))


class TestBuilderOracle:
    """``_symmetry_system`` against ``strategies.reference_system``, which
    makes every equation, one-term ones included, as its own map."""

    @settings(max_examples=80, deadline=None)
    @given(oracle_payloads())
    def test_rows_and_zeros_split_the_reference_equations(self, payload):
        build = builder(payload)
        for degree in (None, *diagonal._blocks(payload)):
            rows, zeros = build(payload, degree)
            assert all(len(row) > 1 for row in rows)
            assert equations(rows, zeros) == \
                equations(reference_system(payload, degree)[0]), degree

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_blocked_reduction_is_the_reference_inserted_one_at_a_time(
            self, data):
        payload = data.draw(oracle_payloads())
        pins = drawn_pins(data, payload)
        rows, width = reference_system(payload)
        for (i, j), value in pins:
            row = {i * payload.ring.size + j: 1}
            if value:
                row[width] = value
            rows.append(row)
        blocked, blocked_width = diagonal._reduce_blocks(
            builder(payload), payload, pins)
        assert blocked_width == width
        assert echelon_of(blocked) == \
            echelon_of(inserted_one_at_a_time(rows))


class TestBlocks:
    def test_validated_blocks_are_the_scanned_ones_on_the_catalog(self):
        for name in catalog_names():
            for mode in SignMode:
                payload = resolve(name, mode).payload
                assert not payload._valid
                assert diagonal._blocks(validated(payload)) == \
                    diagonal._blocks(payload), (name, mode)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(rings(), pairs()))
    def test_validated_blocks_are_the_scanned_ones(self, payload):
        scanned = diagonal._blocks(payload)
        assert scanned != [None]
        assert diagonal._blocks(validated(payload)) == scanned

    def test_validation_decides_without_a_scan(self):
        # a validated ring is not scanned again: a term that breaks the
        # grading, put into its stored map by hand, goes unseen
        ring = complex_projective(2)
        twin = validated(ring)
        twin._ints = {**twin._ints, (2, 2): {0: 1}}
        assert diagonal._blocks(twin) == [0, 2, 4, 6, 8]
        twin._valid = False
        assert diagonal._blocks(twin) == [None]


class TestTopNormalization:
    def test_class_over_other_rings_is_refused(self):
        cp2, cp3 = complex_projective(2), complex_projective(3)
        for ring, other in ((cp2, cp3), (cp3, cp2)):
            w = diagonal_class(other)
            with pytest.raises(ValueError, match="does not live over"):
                check_top_normalization(ring, w)
            with pytest.raises(ValueError, match="does not live over"):
                check_symmetry(ring, w)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_check_reads_the_top_row_and_column(self, data):
        ring = data.draw(rings())
        n = ring.size
        top, unit = ring.basis.top_index, ring.basis.unit_index
        mu = diagonal_class(ring).mu
        kind = data.draw(st.sampled_from(("normalized", "changed", "drawn")))
        if kind == "changed":
            # one entry of the normalized class moved, in its top row or
            # column or elsewhere
            i, j = data.draw(st.sampled_from(
                [(top, j) for j in range(n)] + [(i, top) for i in range(n)]
                + [(unit, unit)]))
            rows = [list(mu.row(r)) for r in range(n)]
            rows[i][j] += data.draw(nonzero)
            mu = Matrix(rows)
        elif kind == "drawn":
            mu = data.draw(matrices(n, n))
        expected = all(mu[top, j] == int(j == unit) == mu[j, top]
                       for j in range(n))
        w = TensorClass(mu, ring.basis, ring.basis)
        assert check_top_normalization(ring, w) is expected


class TestSolveSymmetricSpace:
    def test_sphere2_space(self):
        ring = sphere(2)
        space = solve_symmetric_space(ring)
        assert len(space) == 2
        expected = [Matrix([[0, 1], [1, 0]]), Matrix([[0, 0], [0, 1]])]
        got_rank = rank(Matrix([flatten(s) for s in space]))
        both = [flatten(s) for s in space] + [
            flatten(TensorClass(m, ring.basis, ring.basis)) for m in expected]
        assert rank(Matrix(both)) == got_rank == 2
        for s in space:
            assert check_symmetry(ring, s).ok

    def test_point_space(self):
        space = solve_symmetric_space(point())
        assert len(space) == 1
        assert space[0].mu == Matrix([[1]])

    def test_cp2_dimension_matches_family_span(self):
        ring = complex_projective(2)
        space = solve_symmetric_space(ring)
        assert len(space) == 3
        w = diagonal_class(ring, SignMode.LITERAL)
        family = [tensor_multiply(ring, ring, SignMode.LITERAL, w,
                                  right_factor(ring, ring,
                                               basis_element(ring, k)))
                  for k in range(ring.size)]
        fam_rank = rank(Matrix([flatten(f) for f in family]))
        assert fam_rank == len(space)
        for f in family:
            assert class_in_span(space, f)

    def test_every_solution_is_symmetric(self):
        for name, ring in ALL_RINGS.items():
            for s in solve_symmetric_space(ring):
                assert check_symmetry(ring, s).ok, name

    def test_diagonal_class_in_span_both_modes(self):
        for name, ring in ALL_RINGS.items():
            for mode in SignMode:
                space = solve_symmetric_space(ring)
                w = diagonal_class(ring, mode)
                assert class_in_span(space, w), (name, mode)


class TestSymmetricFamily:
    def test_unit_unit_returns_w(self):
        ring = complex_projective(2)
        w = diagonal_class(ring)
        one = unit_element(ring)
        got = symmetric_family(ring, SignMode.LITERAL, w, one, one)
        assert got.mu == w.mu

    def test_cp2_generator_family_member(self):
        ring = complex_projective(2)
        w = diagonal_class(ring)
        h = basis_element(ring, 1)
        one = unit_element(ring)
        left = symmetric_family(ring, SignMode.LITERAL, w, h, one)
        via_right = tensor_multiply(ring, ring, SignMode.LITERAL, w,
                                    right_factor(ring, ring, h))
        assert left.mu == via_right.mu
        assert check_symmetry(ring, left).ok

    def test_sphere_square_kills_family(self):
        ring = sphere(2)
        w = diagonal_class(ring)
        x = basis_element(ring, 1)
        got = symmetric_family(ring, SignMode.LITERAL, w, x, x)
        assert got.is_zero()  # x.x = 0 upstairs

    def test_requires_symmetric_input(self):
        ring = sphere(2)
        not_sym = right_factor(ring, ring, basis_element(ring, 1))
        with pytest.raises(ValueError):
            symmetric_family(ring, SignMode.LITERAL, not_sym,
                             unit_element(ring), unit_element(ring))

    def test_closure_on_even_rings(self):
        for name, ring in EVEN_RINGS.items():
            space = solve_symmetric_space(ring)
            for s in space:
                for k in range(ring.size):
                    y = basis_element(ring, k)
                    prod = tensor_multiply(ring, ring, SignMode.LITERAL, s,
                                           right_factor(ring, ring, y))
                    assert class_in_span(space, prod), (name, k)

    def test_torus_closure_fails(self):
        # pinned counterexample: with odd degrees the family can leave the
        # symmetric space; the product rule behind closure needs yz = zy
        ring = torus(2)
        space = solve_symmetric_space(ring)
        w = diagonal_class(ring)
        odd = basis_element(ring, 1)  # degree 1
        prod = tensor_multiply(ring, ring, SignMode.LITERAL, w,
                               right_factor(ring, ring, odd))
        assert not class_in_span(space, prod)
        assert not check_symmetry(ring, prod).ok


class TestKunneth:
    def test_point_factor_is_neutral(self):
        ring = complex_projective(2)
        prod = kunneth_product(point(), ring, SignMode.GRADED)
        assert prod.tensor == ring.tensor
        assert prod.basis.degrees == ring.basis.degrees
        assert prod.basis.top_index == ring.basis.top_index

    def test_sphere_square_is_valid_rank_four(self):
        prod = kunneth_product(sphere(2), sphere(2), SignMode.LITERAL)
        assert prod.size == 4
        assert validate(prod).ok
        from frobdiag.ring import pairing_matrix
        p = pairing_matrix(prod)
        assert p @ p == Matrix.identity(4)  # antidiagonal block pattern

    def test_torus_anticommutes(self):
        t = kunneth_product(sphere(1), sphere(1), SignMode.GRADED)
        assert validate(t).ok
        a = basis_element(t, 2)  # x*1
        b = basis_element(t, 1)  # 1*x
        from frobdiag.ring import multiply
        ab = multiply(t, a, b)
        ba = multiply(t, b, a)
        assert ba == tuple(-v for v in ab)
        assert any(v != 0 for v in ab)

    def test_literal_odd_product_is_noncommutative(self):
        t = kunneth_product(sphere(1), sphere(1), SignMode.LITERAL)
        report = validate(t)
        assert any(v.axiom == "graded-commutativity" for v in report)
        assert validate(t, allow_noncommutative=True).ok


# ---------------------------------------------------------------------------
# the zero-skipping products against the dense loops they replaced

def dense_multiply(ring, a, b):
    """``multiply`` as a loop over every key of the product map."""
    out = [Fraction(0)] * ring.size
    for (i, j), coeffs in ring._action_products.items():
        c = a[i] * b[j]
        if c == 0:
            continue
        for k, v in coeffs.items():
            out[k] += c * v
    return tuple(out)


def dense_pure_tensor(ring_left, ring_right, a, b):
    """``pure_tensor`` with every product ``a[i]*b[j]`` formed."""
    return Matrix([[a[i] * b[j] for j in range(ring_right.size)]
                   for i in range(ring_left.size)])


def dense_tensor_multiply(ring_left, ring_right, mode, u, v):
    """``tensor_multiply`` walking ``u`` and ``v`` entry by entry."""
    deg_l = ring_left.basis.degrees
    deg_r = ring_right.basis.degrees
    nl, nr = ring_left.size, ring_right.size
    out = [[Fraction(0)] * nr for _ in range(nl)]
    for a in range(nl):
        for b in range(nr):
            uab = u.mu[a, b]
            if uab == 0:
                continue
            for c in range(nl):
                left = ring_left.product_coefficients(a, c)
                if not left:
                    continue
                for d in range(nr):
                    vcd = v.mu[c, d]
                    if vcd == 0:
                        continue
                    coeff = uab * vcd * koszul_sign(mode, deg_r[b], deg_l[c])
                    right = ring_right.product_coefficients(b, d)
                    for e, le in left.items():
                        for f, rf in right.items():
                            out[e][f] += coeff * le * rf
    return Matrix(out)


def dense_residuals(ring, mode, w):
    """``check_symmetry`` entries from dense products and a full difference."""
    n = ring.size
    entries = []
    for k in range(n):
        xk = basis_element(ring, k)
        xr = TensorClass(
            dense_pure_tensor(ring, ring, unit_element(ring), xk),
            ring.basis, ring.basis)
        xl = TensorClass(
            dense_pure_tensor(ring, ring, xk, unit_element(ring)),
            ring.basis, ring.basis)
        lhs = dense_tensor_multiply(ring, ring, mode, w, xr)
        rhs = dense_tensor_multiply(ring, ring, mode, xl, w)
        for i in range(n):
            for j in range(n):
                value = lhs[i, j] - rhs[i, j]
                if value != 0:
                    entries.append((k, i, j, value))
    return entries


class TestSparseProductsMatchDense:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_moved_rings_stay_valid(self, data):
        ring = data.draw(rings())
        assert validate(ring, allow_noncommutative=True).ok

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_multiply(self, data):
        ring = data.draw(rings())
        a = data.draw(elements(ring.size))
        b = data.draw(elements(ring.size))
        assert multiply(ring, a, b) == dense_multiply(ring, a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pure_tensor(self, data):
        ring = data.draw(rings())
        a = data.draw(elements(ring.size))
        b = data.draw(elements(ring.size))
        assert pure_tensor(ring, ring, a, b).mu == \
            dense_pure_tensor(ring, ring, a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tensor_multiply(self, data):
        ring, mode = data.draw(rings()), data.draw(modes)
        n = ring.size
        u = TensorClass(data.draw(matrices(n, n)), ring.basis, ring.basis)
        v = TensorClass(data.draw(matrices(n, n)), ring.basis, ring.basis)
        assert tensor_multiply(ring, ring, mode, u, v).mu == \
            dense_tensor_multiply(ring, ring, mode, u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tensor_multiply_koszul_sign(self, data):
        # the sign shows only where odd classes pass each other
        ring = data.draw(rings(ODD_RING_NAMES))
        n = ring.size
        u = TensorClass(data.draw(matrices(n, n)), ring.basis, ring.basis)
        v = TensorClass(data.draw(matrices(n, n)), ring.basis, ring.basis)
        assert tensor_multiply(ring, ring, SignMode.GRADED, u, v).mu == \
            dense_tensor_multiply(ring, ring, SignMode.GRADED, u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_check_symmetry(self, data):
        # the report takes no sign convention; the dense residual
        # multiplies with the drawn one's Koszul sign, so the report
        # equals both only if the condition is sign-free; half of the
        # rings have odd classes, where the sign could show
        ring = data.draw(st.one_of(rings(), rings(ODD_RING_NAMES)))
        mode = data.draw(modes)
        w = TensorClass(data.draw(matrices(ring.size, ring.size)),
                        ring.basis, ring.basis)
        assert [(e.probe, e.left, e.right, e.value)
                for e in check_symmetry(ring, w)] == \
            dense_residuals(ring, mode, w)
