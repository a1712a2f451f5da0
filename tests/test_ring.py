import random
import tracemalloc
from fractions import Fraction

import pytest

from frobdiag.boundary import ModulePair, validate_module
from frobdiag.catalog import (catalog_names, complex_projective,
                              cylinder_pair, disk_pair, point, resolve,
                              sphere, torus)
from frobdiag.diagonal import SignMode, kunneth_product
from frobdiag.linalg import Matrix
from frobdiag.ring import (GradedBasis, MissingTopClassError, RingStructure,
                           associativity_defects, basis_element, change_basis,
                           check_poincare_duality, multiply, pairing_matrix,
                           unit_element, validate)
from strategies import check_frobenius_chain, exact_map


def degenerate_ring() -> RingStructure:
    """Basis 1, a, t with a.a = a.t = 0: valid ring, singular pairing."""
    basis = GradedBasis(labels=("1", "a", "t"), degrees=(0, 2, 4),
                        formal_dimension=4, unit_index=0, top_index=2)
    return RingStructure(basis, {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1,
    })


class TestGradedBasis:
    def test_unit_degree_must_vanish(self):
        with pytest.raises(ValueError):
            GradedBasis(labels=("a",), degrees=(1,), formal_dimension=1)

    def test_top_degree_must_match_dimension(self):
        with pytest.raises(ValueError):
            GradedBasis(labels=("1", "x"), degrees=(0, 2),
                        formal_dimension=3, top_index=1)

    def test_ring_requires_unit(self):
        basis = GradedBasis(labels=("x",), degrees=(1,), formal_dimension=1,
                            unit_index=None)
        with pytest.raises(ValueError):
            RingStructure(basis, {})


class TestValidate:
    def test_catalog_rings_are_valid(self):
        for ring in (point(), sphere(2), sphere(3), complex_projective(2),
                     complex_projective(3), torus(2),
                     kunneth_product(sphere(2), sphere(2), SignMode.LITERAL)):
            assert validate(ring).ok

    def test_rescaled_top_product_is_still_a_valid_ring(self):
        # doubling h.h only moves the pairing; no axiom involves the
        # fundamental-class normalization
        ring = complex_projective(2)
        tensor = dict(ring.tensor)
        tensor[(1, 1, 2)] = 2
        rescaled = RingStructure(ring.basis, tensor)
        assert validate(rescaled).ok
        assert pairing_matrix(rescaled) != pairing_matrix(ring)

    def test_missing_unit_product_is_reported(self):
        ring = complex_projective(2)
        tensor = dict(ring.tensor)
        del tensor[(0, 0, 0)]
        report = validate(RingStructure(ring.basis, tensor))
        assert not report.ok
        assert any(v.axiom == "unit" and v.indices == (0, 0) for v in report)

    def test_grading_violation_located(self):
        basis = GradedBasis(labels=("1", "x"), degrees=(0, 2),
                            formal_dimension=2, top_index=1)
        ring = RingStructure(basis, {(0, 0, 0): 1, (0, 1, 1): 1,
                                     (1, 0, 1): 1, (1, 1, 1): 1})
        report = validate(ring)
        assert any(v.axiom == "grading" and v.indices == (1, 1, 1)
                   for v in report)

    def test_associativity_violation_located(self):
        ring = complex_projective(3)
        tensor = dict(ring.tensor)
        tensor[(1, 2, 3)] = 2  # h.h^2 = 2h^3 but h^2.h = h^3
        report = validate(RingStructure(ring.basis, tensor))
        assert [str(v) for v in report] == [
            "associativity at (1, 1, 1, 3): 1 != 2",
            "graded-commutativity at (1, 2, 3): 2 != 1",
        ]

    @pytest.mark.parametrize("value, detail", [
        (0, "-1 != 0"), (-3, "-1 != 3"), (Fraction(-1, 2), "-1 != 1/2")])
    def test_graded_commutativity_detail_signs_the_value(self, value,
                                                         detail):
        # torus:2 has a.b = -ab against b.a = ab; with b.a set to value,
        # the detail compares a.b with -(b.a), read as one number: no
        # "-0" for a removed entry, no "--3" for a negative one
        tensor = {**torus(2).tensor, (2, 1, 3): value}
        report = validate(RingStructure(torus(2).basis, tensor))
        assert [str(v) for v in report
                if v.axiom == "graded-commutativity"] == \
            [f"graded-commutativity at (1, 2, 3): {detail}"]

    def test_failing_validation_keeps_only_its_defects(self):
        # h^3.h^4 = 2h^7 breaks associativity alone: the certificate
        # fails, and the run over every middle factor keeps its failing
        # entries only; holding every triple it visits would take about
        # 5 MiB here
        ring = complex_projective(60)
        tensor = dict(ring.tensor)
        tensor[(3, 4, 7)] = 2
        bad = RingStructure(ring.basis, tensor)
        tracemalloc.start()
        try:
            report = validate(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {v.axiom for v in report} == {"associativity",
                                             "graded-commutativity"}
        assert peak < 2**20

    def test_allow_noncommutative_skips_only_that_axiom(self):
        # no Koszul sign
        literal_torus = kunneth_product(sphere(1), sphere(1),
                                        SignMode.LITERAL)
        report = validate(literal_torus)
        assert any(v.axiom == "graded-commutativity" for v in report)
        assert all(v.axiom == "graded-commutativity" for v in report)
        assert validate(literal_torus, allow_noncommutative=True).ok


def all_triples_defects(products, action, n_ring, n_module):
    """The associativity defects by their definition, the oracle that
    shares no code with :func:`associativity_defects`: every ``(i, j,
    k)`` visited, and each side, ``(y_i.y_j).x_k`` and ``y_i.(y_j.x_k)``,
    contracted over the middle index on its own."""
    by_ring, by_module = {}, {}
    for (i, m), coeffs in action.items():
        by_ring.setdefault(i, {})[m] = coeffs
        by_module.setdefault(m, {})[i] = coeffs

    def contract(outer, inner):
        out = {}
        for m, c in outer.items():
            for s, v in inner.get(m, {}).items():
                out[s] = out.get(s, 0) + c * v
        return out

    defects = []
    for i in range(n_ring):
        for j in range(n_ring):
            for k in range(n_module):
                left = contract(products.get((i, j), {}),
                                by_module.get(k, {}))
                right = contract(action.get((j, k), {}), by_ring.get(i, {}))
                for s in sorted(left.keys() | right.keys()):
                    a, b = left.get(s, Fraction(0)), right.get(s, Fraction(0))
                    if a != b:
                        defects.append(((i, j, k, s), a, b))
    return defects


def ideal_pair(n: int, first: int) -> ModulePair:
    """cp:n acting on its ideal spanned by ``h^first .. h^n``.

    The module is smaller than the ring, so a defect search that mixes up
    ring and module indices cannot agree with the all-triples loop.
    """
    ring = complex_projective(n)
    size = n + 1 - first
    module_basis = GradedBasis(
        labels=tuple(f"h^{first + a}" for a in range(size)),
        degrees=tuple(2 * (first + a) for a in range(size)),
        formal_dimension=2 * n, unit_index=None, top_index=size - 1)
    action = {(i, a, a + i): 1
              for i in range(n + 1) for a in range(size) if a + i < size}
    return ModulePair(ring, module_basis, action)


def left_factor_pair() -> ModulePair:
    """sphere:2 acting on ``H*(S^2 x S^2)`` through the left factor.

    The module is larger than the ring, so a defect search that takes
    the ring's size for the module's cannot agree with the all-triples
    loop.
    """
    module_basis = GradedBasis(labels=("1", "a", "b", "ab"),
                               degrees=(0, 2, 2, 4), formal_dimension=4,
                               unit_index=None, top_index=3)
    action = {(0, j, j): 1 for j in range(4)} | {(1, 0, 1): 1, (1, 2, 3): 1}
    return ModulePair(sphere(2), module_basis, action)


def corrupted(mp: ModulePair, rng: random.Random) -> ModulePair:
    """``mp`` with one to three entries of its ring or action changed."""
    tensor, action = dict(mp.ring.tensor), dict(mp.action)
    nr, nm = mp.ring.size, mp.module_basis.size
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            target, sizes = action, (nr, nm, nm)
        else:
            target, sizes = tensor, (nr, nr, nr)
        kind = rng.choice(("scale", "drop", "add"))
        if kind == "add" or not target:
            target[tuple(rng.randrange(n) for n in sizes)] = \
                rng.choice((1, -1, 2))
        elif kind == "drop":
            del target[rng.choice(sorted(target))]
        else:
            target[rng.choice(sorted(target))] = rng.choice((2, -1, -3))
    return ModulePair(RingStructure(mp.ring.basis, tensor), mp.module_basis,
                      action)


def defect_lists(mp: ModulePair):
    """The defects by the routine, by the all-triples oracle, and as
    ``validate_module`` reports them (which passes the width itself)."""
    nr, nm = mp.ring.size, mp.module_basis.size
    reported = [(v.indices, v.detail) for v in validate_module(mp)
                if v.axiom == "module-associativity"]
    products, action = exact_map(mp.ring), exact_map(mp)
    return (associativity_defects(products, action, nm),
            all_triples_defects(products, action, nr, nm),
            reported)


class TestAssociativityDefects:
    PAIRS = [disk_pair(1), disk_pair(3), cylinder_pair(sphere(2)),
             cylinder_pair(complex_projective(3)), cylinder_pair(torus(3)),
             cylinder_pair(kunneth_product(complex_projective(2), sphere(2),
                                           SignMode.LITERAL)),
             ideal_pair(3, 1), ideal_pair(4, 2), ideal_pair(5, 5),
             left_factor_pair()]

    @pytest.mark.parametrize("index", range(len(PAIRS)))
    def test_valid_pairs_match_all_triples(self, index):
        mp = self.PAIRS[index]
        new, old, reported = defect_lists(mp)
        assert new == old == reported == []

    def test_corrupted_pairs_match_all_triples(self):
        rng = random.Random(20)
        with_defects = 0
        for mp in self.PAIRS:
            for _ in range(25):
                new, old, reported = defect_lists(corrupted(mp, rng))
                assert new == old
                assert reported == [(at, f"{a} != {b}") for at, a, b in old]
                with_defects += bool(old)
        assert with_defects >= 100

    def test_corrupted_rings_match_all_triples(self):
        rng = random.Random(21)
        with_defects = 0
        for ring in (complex_projective(4), torus(3),
                     kunneth_product(complex_projective(2), torus(2),
                                     SignMode.LITERAL)):
            for _ in range(30):
                bad = corrupted(ModulePair(ring, ring.basis, ring.tensor),
                                rng).ring
                products = exact_map(bad)
                new = associativity_defects(products, products, bad.size)
                old = all_triples_defects(products, products,
                                          bad.size, bad.size)
                assert new == old
                with_defects += bool(old)
        assert with_defects >= 30


def is_int_exactly_where_integral(values) -> bool:
    return all(type(v) is (int if v.denominator == 1 else Fraction)
               for v in values)


class TestIntegralConstants:
    """Structure constants are ``int`` where integral, ``Fraction`` else."""

    def test_catalog_entries(self):
        for name in catalog_names():
            payload = resolve(name).payload
            if isinstance(payload, ModulePair):
                assert is_int_exactly_where_integral(payload.action.values())
                payload = payload.ring
            assert is_int_exactly_where_integral(payload.tensor.values())

    def test_rational_moved_ring_and_its_pair(self):
        ring = torus(3)
        rng = random.Random(5)
        moved = change_basis(ring, random_degree_preserving_change(ring, rng))
        values = list(moved.tensor.values())
        assert {type(v) for v in values} == {int, Fraction}
        assert is_int_exactly_where_integral(values)
        assert is_int_exactly_where_integral(
            cylinder_pair(moved).action.values())
        # given as Fractions or strings, integral values still become ints
        again = RingStructure(moved.basis, {key: str(v) for key, v
                                            in moved.tensor.items()})
        assert is_int_exactly_where_integral(again.tensor.values())
        assert again == moved

    def test_defects_of_int_and_fraction_twins_agree(self):
        rng = random.Random(22)
        with_defects = 0
        for ring in (complex_projective(4), torus(3)):
            for _ in range(30):
                bad = corrupted(ModulePair(ring, ring.basis, ring.tensor),
                                rng).ring
                products = exact_map(bad)
                twin = {key: {k: Fraction(v) for k, v in coeffs.items()}
                        for key, coeffs in products.items()}
                ints = associativity_defects(products, products, bad.size)
                fractions = associativity_defects(twin, twin, bad.size)
                assert ints == fractions
                assert [f"{a} != {b}" for _, a, b in ints] == \
                    [f"{a} != {b}" for _, a, b in fractions]
                with_defects += bool(ints)
        assert with_defects >= 20


class TestMultiply:
    def test_cp2_generator_squares_to_top(self):
        ring = complex_projective(2)
        h = basis_element(ring, 1)
        assert multiply(ring, h, h) == basis_element(ring, 2)

    def test_unit_is_neutral(self):
        ring = complex_projective(3)
        rng = random.Random(7)
        a = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(ring.size))
        assert multiply(ring, unit_element(ring), a) == a
        assert multiply(ring, a, unit_element(ring)) == a

    def test_sphere_generator_squares_to_zero(self):
        ring = sphere(2)
        x = basis_element(ring, 1)
        assert multiply(ring, x, x) == (Fraction(0),) * 2

    def test_dimension_mismatch(self):
        ring = sphere(2)
        with pytest.raises(ValueError):
            multiply(ring, (Fraction(1),), basis_element(ring, 0))

    def test_elementwise_associativity_random_elements(self):
        rng = random.Random(11)
        for ring in (complex_projective(2), torus(2),
                     kunneth_product(sphere(2), sphere(2), SignMode.LITERAL)):
            for _ in range(5):
                a, b, c = (tuple(Fraction(rng.randint(-3, 3))
                                 for _ in range(ring.size))
                           for _ in range(3))
                left = multiply(ring, multiply(ring, a, b), c)
                right = multiply(ring, a, multiply(ring, b, c))
                assert left == right


class TestPairing:
    def test_sphere_pairing(self):
        assert pairing_matrix(sphere(2)) == Matrix([[0, 1], [1, 0]])

    def test_cp2_pairing_antidiagonal(self):
        assert pairing_matrix(complex_projective(2)) == Matrix(
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_point_pairing(self):
        assert pairing_matrix(point()) == Matrix([[1]])

    def test_missing_top_raises(self):
        basis = GradedBasis(labels=("1",), degrees=(0,), formal_dimension=0)
        ring = RingStructure(basis, {(0, 0, 0): 1})
        with pytest.raises(MissingTopClassError):
            pairing_matrix(ring)

    def test_unit_row_is_top_indicator(self):
        for ring in (sphere(2), complex_projective(3), torus(2)):
            p = pairing_matrix(ring)
            unit = ring.basis.unit_index
            top = ring.basis.top_index
            for j in range(ring.size):
                assert p[unit, j] == Fraction(int(j == top))
                assert p[j, unit] == Fraction(int(j == top))


class TestDuality:
    def test_sphere_has_duality(self):
        assert check_poincare_duality(sphere(2))

    def test_degenerate_pairing_detected(self):
        ring = degenerate_ring()
        assert validate(ring).ok
        assert not check_poincare_duality(ring)

    def test_point_has_duality(self):
        assert check_poincare_duality(point())


class TestFrobeniusChain:
    def test_holds_on_catalog_rings(self):
        for ring in (complex_projective(2), sphere(2), sphere(5), torus(2),
                     kunneth_product(complex_projective(1),
                                     complex_projective(1),
                                     SignMode.LITERAL)):
            assert check_frobenius_chain(ring)

    def test_broken_associativity_breaks_chain(self):
        ring = complex_projective(3)
        tensor = dict(ring.tensor)
        tensor[(1, 2, 3)] = 2
        assert not check_frobenius_chain(RingStructure(ring.basis, tensor))


def random_degree_preserving_change(ring, rng):
    """Random invertible block matrix fixing the unit and top columns."""
    from collections import defaultdict

    from frobdiag.linalg import rank

    n = ring.size
    by_degree = defaultdict(list)
    for i, d in enumerate(ring.basis.degrees):
        by_degree[d].append(i)
    entries = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    fixed = {ring.basis.unit_index, ring.basis.top_index}
    for indices in by_degree.values():
        free = [i for i in indices if i not in fixed]
        if not free:
            continue
        while True:
            block = [[Fraction(rng.randint(-3, 3)) for _ in free]
                     for _ in free]
            if rank(Matrix(block)) == len(free):
                break
        for bi, i in enumerate(free):
            for bj, j in enumerate(free):
                entries[i][j] = block[bi][bj]
    return Matrix(entries)


class TestChangeBasis:
    def test_transported_ring_is_valid_with_same_invariants(self):
        rng = random.Random(3)
        ring = kunneth_product(sphere(2), sphere(2), SignMode.LITERAL)
        p = random_degree_preserving_change(ring, rng)
        moved = change_basis(ring, p)
        assert validate(moved).ok
        assert check_poincare_duality(moved)
        assert check_frobenius_chain(moved)

    def test_identity_change_is_identity(self):
        ring = complex_projective(2)
        assert change_basis(ring, Matrix.identity(ring.size)) == ring

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            change_basis(sphere(2), Matrix.identity(3))
