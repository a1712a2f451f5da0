from fractions import Fraction

import pytest

from frobdiag.boundary import (ModulePair, act, check_relative_duality,
                               check_relative_symmetry,
                               check_relative_top_normalization,
                               module_basis_element, relative_class,
                               relative_class_in_span,
                               relative_diagonal_class,
                               relative_pairing_matrix,
                               solve_relative_symmetric_space,
                               validate_module)
from frobdiag.catalog import (catalog_names, closed_as_pair,
                              complex_projective, cylinder_pair, disk_pair,
                              resolve, sphere, torus)
from frobdiag.diagonal import (SignMode, SingularPairingError,
                               check_symmetry, diagonal_class,
                               solve_symmetric_space)
from frobdiag.linalg import Matrix
from frobdiag.ring import (GradedBasis, MissingTopClassError, RingStructure,
                           basis_element, pairing_matrix)

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


class TestAction:
    def test_disk_action(self):
        mp = disk_pair(3)
        one = basis_element(mp.ring, 0)
        x = module_basis_element(mp, 0)
        assert act(mp, one, x) == x

    def test_cylinder_action_matches_ring_product(self):
        ring = sphere(2)
        mp = cylinder_pair(ring)
        x = basis_element(ring, 1)
        ut = module_basis_element(mp, 0)  # 1*t
        xt = module_basis_element(mp, 1)  # x*t
        assert act(mp, x, ut) == xt
        assert act(mp, x, xt) == (Fraction(0),) * 2


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
        assert check_relative_duality(disk_pair(3))
        assert check_relative_duality(cylinder_pair(complex_projective(2)))


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
        assert check_relative_symmetry(mp, SignMode.LITERAL, w).ok

    def test_all_catalog_classes_symmetric_both_modes(self):
        for name, mp in PAIRS.items():
            w = relative_diagonal_class(mp)
            for mode in SignMode:
                assert check_relative_symmetry(mp, mode, w).ok, (name, mode)

    def test_asymmetric_class_reported(self):
        mp = cylinder_pair(sphere(2))
        w = relative_class(mp, Matrix([[1, 0], [0, 0]]))  # 1t (x) 1 alone
        report = check_relative_symmetry(mp, SignMode.LITERAL, w)
        assert not report.ok

    def test_closed_embedding_report_matches_absolute(self):
        ring = sphere(2)
        mp = closed_as_pair(ring)
        bad_abs = Matrix([[0, 1], [0, 0]])
        from frobdiag.diagonal import tensor_class
        abs_report = check_symmetry(ring, SignMode.LITERAL,
                                    tensor_class(ring, ring, bad_abs))
        rel_report = check_relative_symmetry(mp, SignMode.LITERAL,
                                             relative_class(mp, bad_abs))
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
                rel = solve_relative_symmetric_space(mp, mode)
                abs_ = solve_symmetric_space(ring, mode)
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
            for mode in SignMode:
                for s in solve_relative_symmetric_space(mp, mode):
                    assert check_relative_symmetry(mp, mode, s).ok, name
