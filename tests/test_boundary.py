import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import boundary
from frobdiag.boundary import (ModulePair, act, check_relative_symmetry,
                               check_relative_top_normalization,
                               relative_class_in_span,
                               relative_diagonal_class,
                               relative_pairing_matrix,
                               solve_relative_symmetric_space,
                               validate_module)
from frobdiag.catalog import (catalog_names, closed_as_pair,
                              complex_projective, cylinder_pair, disk_pair,
                              resolve, sphere, torus)
from frobdiag.diagonal import (SignMode, SingularPairingError, TensorClass,
                               check_symmetry, class_in_span, diagonal_class,
                               koszul_sign, solve_symmetric_space)
from frobdiag.document import emit_document, parse_document
from frobdiag.linalg import Matrix, rank
from frobdiag.ring import (GradedBasis, MissingTopClassError, RingStructure,
                           basis_element, multiply, pairing_matrix)
from strategies import (ODD_RING_NAMES, block_rows, elements, exact_map,
                        matrices, modes, nonzero, pairs, rational_rings,
                        rescaled_pairs, rings)

PAIRS = {
    "disk:1": disk_pair(1),
    "disk:3": disk_pair(3),
    "disk:5": disk_pair(5),
    "cylinder:sphere:2": cylinder_pair(sphere(2)),
    "cylinder:cp:2": cylinder_pair(complex_projective(2)),
    "closed:sphere:2": closed_as_pair(sphere(2)),
    "closed:cp:2": closed_as_pair(complex_projective(2)),
    "closed:torus:2": closed_as_pair(torus(2)),
}


class TestValidateModule:
    def test_catalog_pairs_are_valid(self):
        for name, mp in PAIRS.items():
            assert validate_module(mp).ok, name

    def test_broken_unit_action_reported(self):
        mp = disk_pair(3)
        bad = ModulePair(mp.ring, mp.module_basis, {(0, 0, 0): 2})
        report = validate_module(bad)
        assert any(v.axiom == "unit-action" for v in report)

    def test_action_grading_reported(self):
        ring = sphere(2)
        module_basis = GradedBasis(labels=("u", "t"), degrees=(1, 3),
                                   formal_dimension=3, unit_index=None,
                                   top_index=1)
        # x (degree 2) sends u (degree 1) to u (degree 1): grading broken
        bad = ModulePair(ring, module_basis,
                         {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1})
        report = validate_module(bad)
        assert any(v.axiom == "action-grading" and v.indices == (1, 0, 0)
                   for v in report)

    def test_module_associativity_reported(self):
        ring = complex_projective(2)
        # module = ring but h acts doubled: (h.h)^x != h^(h^x)
        action = dict(ring.tensor)
        for (i, j, k), v in ring.tensor.items():
            if i == 1:
                action[(i, j, k)] = 2 * v
        bad = ModulePair(ring, ring.basis, action)
        report = validate_module(bad)
        assert [str(v) for v in report] == [
            "module-associativity at (1, 1, 0, 2): 1 != 4",
        ]

    def test_ring_violations_are_namespaced(self):
        ring = complex_projective(2)
        tensor = dict(ring.tensor)
        del tensor[(0, 0, 0)]
        bad_ring = RingStructure(ring.basis, tensor)
        mp = ModulePair(bad_ring, ring.basis, dict(ring.tensor))
        report = validate_module(mp)
        assert any(v.axiom == "nu-unit" for v in report)


def _corrupted(ring, changes):
    """``ring`` with the entries of ``changes`` set (0 deletes one)."""
    tensor = dict(ring.tensor)
    for key, value in changes.items():
        if value:
            tensor[key] = value
        else:
            del tensor[key]
    return RingStructure(ring.basis, tensor)


def _unshared(mp):
    """``mp`` with its action in a map of its own, so that every action
    pass of :func:`validate_module` runs."""
    return ModulePair(mp.ring, mp.module_basis, dict(mp.action))


class TestSharedProductPasses:
    """A pair that shares its ring's product skips the action-grading and
    unit-action passes only where the ring's report proves them clean."""

    CORRUPTED = {
        "cylinder:cp:2, off grade": (
            cylinder_pair(_corrupted(complex_projective(2), {(1, 1, 1): 3})),
            ["nu-grading at (1, 1, 1): entry 3 has degree 2+2 -> 2",
             "action-grading at (1, 1, 1): entry 3 has degree 2+3 -> 3"]),
        "cylinder:cp:2, unit": (
            cylinder_pair(_corrupted(complex_projective(2), {(0, 1, 1): 2})),
            ["nu-unit at (1, 1): left unit product gives 2, expected 1",
             "nu-associativity at (0, 0, 1, 1): 2 != 4",
             "nu-associativity at (0, 1, 1, 2): 2 != 1",
             "nu-associativity at (1, 0, 1, 2): 1 != 2",
             "nu-graded-commutativity at (0, 1, 1): 2 != 1",
             "unit-action at (1, 1): unit acts with 2, expected 1",
             "module-associativity at (0, 0, 1, 1): 2 != 4",
             "module-associativity at (0, 1, 1, 2): 2 != 1",
             "module-associativity at (1, 0, 1, 2): 1 != 2"]),
        "closed:torus:2, both": (
            closed_as_pair(_corrupted(torus(2), {(1, 2, 1): 1,
                                                 (0, 3, 3): 0})),
            ["nu-grading at (1, 2, 1): entry 1 has degree 1+1 -> 1",
             "nu-unit at (3, 3): left unit product gives 0, expected 1",
             "nu-associativity at (0, 1, 2, 3): -1 != 0",
             "nu-associativity at (0, 2, 1, 3): 1 != 0",
             "nu-associativity at (1, 2, 2, 1): 1 != 0",
             "nu-associativity at (1, 2, 2, 3): -1 != 0",
             "nu-associativity at (2, 1, 2, 3): 0 != 1",
             "nu-graded-commutativity at (0, 3, 3): 0 != 1",
             "nu-graded-commutativity at (1, 2, 1): 1 != 0",
             "action-grading at (1, 2, 1): entry 1 has degree 1+1 -> 1",
             "unit-action at (3, 3): unit acts with 0, expected 1",
             "module-associativity at (0, 1, 2, 3): -1 != 0",
             "module-associativity at (0, 2, 1, 3): 1 != 0",
             "module-associativity at (1, 2, 2, 1): 1 != 0",
             "module-associativity at (1, 2, 2, 3): -1 != 0",
             "module-associativity at (2, 1, 2, 3): 0 != 1"]),
    }

    @pytest.mark.parametrize("name", CORRUPTED)
    def test_corrupted_pairs_keep_their_reports(self, name):
        mp, expected = self.CORRUPTED[name]
        assert mp._shares_product()
        assert [str(v) for v in validate_module(mp)] == expected
        assert [str(v) for v in validate_module(_unshared(mp))] == expected

    def test_module_degrees_off_a_constant_shift_are_checked(self):
        doc = json.loads(emit_document("cylinder:cp:2",
                                       resolve("cylinder:cp:2").payload))
        doc["module"]["basis"][1]["degree"] = 4   # shifts 1, 2, 1
        _, mp = parse_document(json.dumps(doc))
        assert mp._shares_product()
        expected = ["action-grading at (1, 0, 1): entry 1 has degree "
                    "2+1 -> 4",
                    "action-grading at (1, 1, 2): entry 1 has degree "
                    "2+4 -> 5"]
        assert [str(v) for v in validate_module(mp)] == expected
        assert [str(v) for v in validate_module(_unshared(mp))] == expected

    @pytest.mark.parametrize("mp,runs", [
        (cylinder_pair(complex_projective(3)), 0),
        (closed_as_pair(torus(2)), 0),
        (_unshared(cylinder_pair(complex_projective(3))), 1),
    ], ids=["cylinder", "closed", "unshared"])
    def test_clean_shared_pairs_skip_both_passes(self, monkeypatch, mp,
                                                 runs):
        calls = []

        def counted(name):
            rule = getattr(boundary, name)

            def run(*args):
                calls.append(name)
                return rule(*args)
            return run

        for name in ("_off_grade", "_off_unit"):
            monkeypatch.setattr(boundary, name, counted(name))
        assert validate_module(mp).ok
        assert calls == ["_off_grade", "_off_unit"] * runs


class TestAction:
    def test_disk_action(self):
        mp = disk_pair(3)
        one = basis_element(mp.ring, 0)
        x = (Fraction(1),)
        assert act(mp, one, x) == x

    def test_cylinder_action_matches_ring_product(self):
        ring = sphere(2)
        mp = cylinder_pair(ring)
        x = basis_element(ring, 1)
        ut = (Fraction(1), Fraction(0))  # 1*t
        xt = (Fraction(0), Fraction(1))  # x*t
        assert act(mp, x, ut) == xt
        assert act(mp, x, xt) == (Fraction(0),) * 2


class TestClosedFunctionsTakeAPair:
    """The closed functions take a pair as they take a ring, whatever the
    size of its module, and the pair names are those same functions."""

    def test_pair_names_are_the_closed_functions(self):
        assert act is multiply
        assert relative_pairing_matrix is pairing_matrix
        assert check_relative_symmetry is check_symmetry
        assert relative_class_in_span is class_in_span

    def test_module_of_another_size_than_its_ring(self):
        # sphere:2 acting on one class m of degree 2 by 1 ^ m = m alone,
        # so x ^ m = 0: ring rows 1, x against the module column m
        ring = sphere(2)
        module = GradedBasis(labels=("m",), degrees=(2,),
                             formal_dimension=2, unit_index=None,
                             top_index=0)
        mp = ModulePair(ring, module, {(0, 0, 0): 1})
        assert validate_module(mp).ok
        assert pairing_matrix(mp) == Matrix([[1], [0]])
        assert multiply(mp, (Fraction(3), Fraction(5)), (Fraction(1, 2),)) \
            == (Fraction(3, 2),)
        with pytest.raises(ValueError, match="length mismatch"):
            multiply(mp, (Fraction(1),), (Fraction(1),))
        # m (x) x is symmetric; m (x) 1 has the residual m (x) x for the
        # probe x, from (1 (x) x) on the right with nothing on the left
        for mu, residuals in ((Matrix([[0, 1]]), []),
                              (Matrix([[1, 0]]), [(1, 0, 1, 1)])):
            w = TensorClass(mu, module, ring.basis)
            assert [(e.probe, e.left, e.right, e.value)
                    for e in check_symmetry(mp, w)] == residuals
        with pytest.raises(ValueError, match="does not live over"):
            check_symmetry(mp, diagonal_class(ring))


class TestRelativePairing:
    def test_disk(self):
        assert relative_pairing_matrix(disk_pair(4)) == Matrix([[1]])

    def test_cylinder_over_sphere(self):
        mp = cylinder_pair(sphere(2))
        assert relative_pairing_matrix(mp) == Matrix([[0, 1], [1, 0]])

    def test_closed_case_reproduces_ring_pairing(self):
        for ring in (sphere(2), complex_projective(2), torus(2)):
            mp = closed_as_pair(ring)
            assert relative_pairing_matrix(mp) == pairing_matrix(ring)

    def test_missing_top_raises(self):
        mp = disk_pair(2)
        module_basis = GradedBasis(labels=("x",), degrees=(2,),
                                   formal_dimension=2, unit_index=None,
                                   top_index=None)
        naked = ModulePair(mp.ring, module_basis, {(0, 0, 0): 1})
        with pytest.raises(MissingTopClassError):
            relative_pairing_matrix(naked)

    def test_duality_check(self):
        # the relative pairing matrix is square and invertible
        for mp in (disk_pair(3), cylinder_pair(complex_projective(2))):
            p = relative_pairing_matrix(mp)
            assert p.rows == p.cols == rank(p)


class TestRelativeDiagonalClass:
    def test_disk_class_is_top_tensor_unit(self):
        w = relative_diagonal_class(disk_pair(3))
        assert w.mu == Matrix([[1]])  # x (x) 1

    def test_closed_embedding_matches_absolute_class(self):
        for ring in (sphere(2), complex_projective(2), torus(2)):
            mp = closed_as_pair(ring)
            assert relative_diagonal_class(mp).mu == diagonal_class(ring).mu

    def test_cylinder_class(self):
        mp = cylinder_pair(sphere(2))
        w = relative_diagonal_class(mp)
        assert w.mu == Matrix([[0, 1], [1, 0]])  # 1t(x)x + xt(x)1

    def test_top_normalization(self):
        for name, mp in PAIRS.items():
            w = relative_diagonal_class(mp)
            assert check_relative_top_normalization(mp, w), name

    def test_top_normalization_refuses_a_class_over_another_pair(self):
        for make in (closed_as_pair, cylinder_pair):
            cp2, cp3 = make(complex_projective(2)), make(complex_projective(3))
            for mp, other in ((cp2, cp3), (cp3, cp2)):
                w = relative_diagonal_class(other)
                with pytest.raises(ValueError, match="does not live over"):
                    check_relative_top_normalization(mp, w)
                with pytest.raises(ValueError, match="does not live over"):
                    check_relative_symmetry(mp, w)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_top_normalization_reads_the_top_row(self, data):
        mp = data.draw(pairs())
        nm, nr = mp.module_basis.size, mp.ring.size
        top, unit = mp.module_basis.top_index, mp.ring.basis.unit_index
        mu = relative_diagonal_class(mp).mu
        kind = data.draw(st.sampled_from(("normalized", "changed", "drawn")))
        if kind == "changed":
            # one entry of the normalized class moved, in its top row or
            # elsewhere
            i, j = data.draw(st.sampled_from(
                [(top, j) for j in range(nr)] + [(0, unit)]))
            rows = [list(mu.row(r)) for r in range(nm)]
            rows[i][j] += data.draw(nonzero)
            mu = Matrix(rows)
        elif kind == "drawn":
            mu = data.draw(matrices(nm, nr))
        expected = all(mu[top, j] == int(j == unit) for j in range(nr))
        w = TensorClass(mu, mp.module_basis, mp.ring.basis)
        assert check_relative_top_normalization(mp, w) is expected

    def test_graded_route_agrees(self):
        for name, mp in PAIRS.items():
            lit = relative_diagonal_class(mp, SignMode.LITERAL)
            grd = relative_diagonal_class(mp, SignMode.GRADED)
            assert lit.mu == grd.mu, name

    def test_inverse_restated_without_inversion(self):
        # pairing times coefficients is the identity, checked by plain
        # matrix multiplication rather than through the inverter
        for name, mp in PAIRS.items():
            p = relative_pairing_matrix(mp)
            w = relative_diagonal_class(mp)
            assert p @ w.mu == Matrix.identity(p.rows), name

    def test_non_square_pairing_rejected(self):
        ring = sphere(2)
        module_basis = GradedBasis(labels=("t",), degrees=(3,),
                                   formal_dimension=3, unit_index=None,
                                   top_index=0)
        lopsided = ModulePair(ring, module_basis,
                              {(0, 0, 0): 1})  # unit acts, x kills t
        with pytest.raises(SingularPairingError):
            relative_diagonal_class(lopsided)


class TestRelativeSymmetry:
    def test_disk_class_is_symmetric(self):
        mp = disk_pair(3)
        w = relative_diagonal_class(mp)
        assert check_relative_symmetry(mp, w).ok

    def test_system_rows_match_check_relative_symmetry_residuals(
            self, residual_system):
        # check_relative_symmetry multiplies and acts on the class; the
        # system is built from the structure constants directly
        for name in ("disk:3", "cylinder:sphere:2", "cylinder:cp:2",
                     "cylinder:torus:2", "closed:sphere:2", "closed:cp:2",
                     "closed:torus:2"):
            for mode in SignMode:
                mp = resolve(name, mode).payload
                nm, nr = mp.module_basis.size, mp.ring.size
                rows, width = block_rows(mp)
                expected = residual_system(
                    nm, nr, lambda mu: check_relative_symmetry(
                        mp, TensorClass(mu, mp.module_basis, mp.ring.basis)))
                assert width == nm * nr, (name, mode)
                # blocks do not keep the (probe, left, right) order
                assert sorted(rows) == sorted(expected), (name, mode)

    def test_all_catalog_classes_symmetric(self):
        for name, mp in PAIRS.items():
            w = relative_diagonal_class(mp)
            assert check_relative_symmetry(mp, w).ok, name

    def test_asymmetric_class_reported(self):
        mp = cylinder_pair(sphere(2))
        # 1t (x) 1 alone
        w = TensorClass(Matrix([[1, 0], [0, 0]]), mp.module_basis,
                        mp.ring.basis)
        report = check_relative_symmetry(mp, w)
        assert not report.ok

    def test_residual_report_pinned(self):
        # a seeded random integer class on cylinder:torus:2; the entries
        # come in (probe, left, right) order
        mp = resolve("cylinder:torus:2").payload
        w = TensorClass(Matrix([[0, 0, 0, 1], [0, -3, -3, 1],
                                [1, 2, 0, 2], [0, 2, -3, 0]]),
                        mp.module_basis, mp.ring.basis)
        assert [(e.probe, e.left, e.right, e.value)
                for e in check_relative_symmetry(mp, w)] == [
            (1, 1, 3, -4), (1, 2, 1, 1), (1, 3, 0, 1), (1, 3, 1, 2),
            (1, 3, 3, -1), (2, 1, 3, 3), (2, 2, 2, 1), (2, 2, 3, -3),
            (2, 3, 1, 3), (2, 3, 2, 3), (2, 3, 3, -3), (3, 2, 3, 1),
            (3, 3, 3, -1)]

    def test_closed_embedding_report_matches_absolute(self):
        ring = sphere(2)
        mp = closed_as_pair(ring)
        bad_abs = Matrix([[0, 1], [0, 0]])
        abs_report = check_symmetry(
            ring, TensorClass(bad_abs, ring.basis, ring.basis))
        rel_report = check_relative_symmetry(
            mp, TensorClass(bad_abs, mp.module_basis, mp.ring.basis))
        assert [(e.probe, e.left, e.right, e.value) for e in abs_report] == \
            [(e.probe, e.left, e.right, e.value) for e in rel_report]


class TestRelativeSolutionSpace:
    def test_disk_space_is_one_dimensional(self):
        space = solve_relative_symmetric_space(disk_pair(4))
        assert len(space) == 1
        assert space[0].mu == Matrix([[1]])

    def test_closed_embedding_space_matches_absolute(self):
        # the closed case is the pair case with module = ring
        for name in catalog_names():
            for mode in SignMode:
                ring = resolve(name, mode).payload
                if isinstance(ring, ModulePair):
                    continue
                mp = closed_as_pair(ring)
                rel = solve_relative_symmetric_space(mp)
                abs_ = solve_symmetric_space(ring)
                assert [s.mu for s in rel] == [s.mu for s in abs_], \
                    (name, mode)
                assert diagonal_class(ring, mode).mu == \
                    relative_diagonal_class(mp, mode).mu, (name, mode)

    def test_cylinder_space_contains_class(self):
        mp = cylinder_pair(sphere(2))
        space = solve_relative_symmetric_space(mp)
        w = relative_diagonal_class(mp)
        assert relative_class_in_span(space, w)

    def test_every_solution_is_symmetric(self):
        for name, mp in PAIRS.items():
            for s in solve_relative_symmetric_space(mp):
                assert check_relative_symmetry(mp, s).ok, name


# ---------------------------------------------------------------------------
# the zero-skipping action and pair oracle against the dense loops they
# replaced

def dense_bilinear(products, a, b, size):
    """``act``/``multiply`` as a loop over every key of the product map."""
    out = [Fraction(0)] * size
    for (i, j), coeffs in products.items():
        c = a[i] * b[j]
        if c == 0:
            continue
        for k, v in coeffs.items():
            out[k] += c * v
    return tuple(out)


def dense_relative_residuals(mp, mode, w):
    """``check_relative_symmetry`` entries under the sign convention
    ``mode``, signed rows and columns built per probe.

    Each term takes the Koszul sign of the two factors that pass each
    other, with the ring unit's degree read from its basis:
    ``(x_i (x) y_j).(1 (x) y_k)`` moves ``1`` past ``y_j``, and
    ``(y_k (x) 1).(x_l (x) y_s)`` moves ``x_l`` past ``1``.
    """
    nm, nr = mp.module_basis.size, mp.ring.size
    ring_deg = mp.ring.basis.degrees
    mod_deg = mp.module_basis.degrees
    unit_deg = ring_deg[mp.ring.basis.unit_index]
    products, action = exact_map(mp.ring), exact_map(mp)
    entries = []
    for k in range(nr):
        yk = basis_element(mp.ring, k)
        lhs_rows = []
        for i in range(nm):
            row = w.mu.row(i)
            signed = tuple(koszul_sign(mode, ring_deg[j], unit_deg) * row[j]
                           for j in range(nr))
            lhs_rows.append(dense_bilinear(products, signed, yk, nr))
        rhs_cols = []
        for j in range(nr):
            col = tuple(w.mu[l, j] for l in range(nm))
            signed = tuple(koszul_sign(mode, unit_deg, mod_deg[l]) * col[l]
                           for l in range(nm))
            rhs_cols.append(dense_bilinear(action, yk, signed, nm))
        for i in range(nm):
            for s in range(nr):
                value = lhs_rows[i][s] - rhs_cols[s][i]
                if value != 0:
                    entries.append((k, i, s, value))
    return entries


class TestSparseActionMatchesDense:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_act(self, data):
        mp = data.draw(st.one_of(pairs(), pairs(rational_rings()),
                                 rescaled_pairs()))
        y = data.draw(elements(mp.ring.size))
        x = data.draw(elements(mp.module_basis.size))
        assert act(mp, y, x) == dense_bilinear(exact_map(mp), y, x,
                                               mp.module_basis.size)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_check_relative_symmetry(self, data):
        # the report takes no sign convention; the dense residual is
        # signed under the drawn one, so the report equals both only if
        # the condition is sign-free; half of the rings have odd classes,
        # where the sign could show
        mp = data.draw(pairs(st.one_of(rings(), rings(ODD_RING_NAMES))))
        mode = data.draw(modes)
        w = TensorClass(data.draw(matrices(mp.module_basis.size,
                                           mp.ring.size)),
                        mp.module_basis, mp.ring.basis)
        assert [(e.probe, e.left, e.right, e.value)
                for e in check_relative_symmetry(mp, w)] == \
            dense_relative_residuals(mp, mode, w)
