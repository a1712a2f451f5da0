"""Generator certificates: associativity and symmetry checked on generators.

Once grading and the unit axioms hold, associativity with a generating
set as middle factors implies associativity, and once the ring and the
action are associative, symmetry for the generators implies symmetry.
Validation and the residual checks look at the generators first and
check every middle factor or probe only when that finds a defect, so
every report they return equals the full one, on valid and corrupted
inputs alike; the associativity routine itself is checked against an
all-triples oracle that shares no code with it.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import ring as ring_module
from frobdiag.boundary import (ModulePair, check_relative_symmetry,
                               relative_diagonal_class, validate_module)
from frobdiag.catalog import closed_as_pair, cylinder_pair, resolve
from frobdiag.diagonal import (SignMode, TensorClass, check_symmetry,
                               diagonal_class)
from frobdiag.ring import (GradedBasis, RingStructure, associativity_defects,
                           generators, validate)
from strategies import (RING_NAMES, bad_action_pair, changed,
                        corrupted_pairs, corrupted_rings, graded_slots,
                        matrices, pairs, rings, validated)
from test_ring import all_triples_defects

# larger rings, where generators leave out most middle factors
NAMES = RING_NAMES + ["cp:5", "product:cp:2,sphere:3"]
CHEAP = ("grading", "unit", "action-grading", "unit-action")


def full_scan(check, payload, **options):
    """``check(payload)`` with every index as a middle factor from the
    start."""
    with mock.patch.object(ring_module, "generators",
                           lambda ring: list(range(ring.size))):
        return check(payload, **options)


def scans(products, action, ring, width):
    """The defects with generator middles, and all defects by the
    all-triples oracle."""
    return (associativity_defects(products, action, width, generators(ring)),
            all_triples_defects(products, action, ring.size, width))


class TestValidationCertificate:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ring_reports_equal_the_full_scan(self, data):
        ring = data.draw(st.one_of(rings(NAMES), corrupted_rings(NAMES)))
        allow = data.draw(st.booleans())
        report = validate(ring, allow_noncommutative=allow)
        assert report.violations == full_scan(
            validate, ring, allow_noncommutative=allow).violations
        if not any(v.axiom in CHEAP for v in report):
            products = ring._action_products
            certified, full = scans(products, products, ring, ring.size)
            assert (certified == []) == (full == [])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_pair_reports_equal_the_full_scan(self, data):
        mp = data.draw(st.one_of(pairs(), corrupted_pairs()))
        report = validate_module(mp)
        assert report.violations == full_scan(validate_module,
                                              mp).violations
        if not any(v.axiom in CHEAP or v.axiom.startswith("nu-")
                   for v in report):
            certified, full = scans(mp.ring._action_products,
                                    mp._action_products, mp.ring,
                                    mp.module_basis.size)
            assert (certified == []) == (full == [])

    @pytest.mark.parametrize("name", ["cp:5", "torus:3",
                                      "product:cp:2,sphere:3"])
    def test_seeded_corruptions(self, name):
        # one constant changed where grading and unit cannot see it, in
        # the ring or in the action of its cylinder: the certificate runs,
        # and finds a defect exactly when the full scan does
        ring = resolve(name, SignMode.GRADED).payload
        mp = cylinder_pair(ring)
        ring_slots = graded_slots(ring.basis, ring.basis, ring.basis)
        action_slots = graded_slots(mp.ring.basis, mp.module_basis,
                                    mp.module_basis)
        rng = random.Random(name)
        with_defects = 0
        for _ in range(15):
            bad_ring = RingStructure(ring.basis, changed(
                ring.tensor, rng.choice(ring_slots), rng.choice((1, -1, 2))))
            bad_pair = ModulePair(mp.ring, mp.module_basis, changed(
                mp.action, rng.choice(action_slots), rng.choice((1, -1, 2))))
            for check, payload, action, over in (
                    (validate, bad_ring, bad_ring._action_products, bad_ring),
                    (validate_module, bad_pair, bad_pair._action_products,
                     mp.ring)):
                report = check(payload)
                assert not any(v.axiom in CHEAP or v.axiom.startswith("nu-")
                               for v in report)
                assert report.violations == \
                    full_scan(check, payload).violations
                certified, full = scans(over._action_products, action, over,
                                        payload.module_basis.size)
                assert (certified == []) == (full == [])
                with_defects += bool(full)
        assert with_defects >= 20

    def test_middles_of_a_ring_that_is_not_connected(self):
        # 1, e, f in degree 0 with e.e = f, e.f = f.e = e, f.f = 0:
        # (e.e).f = 0 but e.(e.f) = f
        basis = GradedBasis(labels=("1", "e", "f"), degrees=(0, 0, 0),
                            formal_dimension=0, unit_index=0, top_index=2)
        tensor = {(0, i, i): 1 for i in range(3)}
        tensor.update({(i, 0, i): 1 for i in (1, 2)})
        tensor.update({(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
        ring = RingStructure(basis, tensor)
        assert generators(ring) == [1, 2]
        report = validate(ring)
        assert not report.ok
        assert report.violations == full_scan(validate, ring).violations
        products = ring._action_products
        assert [v.indices for v in report] == \
            [indices for indices, _, _ in
             all_triples_defects(products, products, 3, 3)]


class TestPairSharingItsRingsProduct:
    @pytest.mark.parametrize("share", [closed_as_pair, cylinder_pair])
    @pytest.mark.parametrize("name", ["cp:5", "torus:3"])
    def test_defects_come_from_the_ring_report(self, monkeypatch, name,
                                               share):
        # a pair acting by its ring's stored product on a module of the
        # ring's size has the ring's maps and width: its
        # module-associativity entries are the ring's associativity
        # entries, found by the ring's runs alone
        ring = resolve(name, SignMode.GRADED).payload
        slots = graded_slots(ring.basis, ring.basis, ring.basis)
        routine = ring_module.associativity_defects
        middles = []

        def counted(products, action, width, keep=None):
            middles.append(keep)
            return routine(products, action, width, keep)

        monkeypatch.setattr(ring_module, "associativity_defects", counted)
        rng = random.Random(name)
        with_defects = 0
        for _ in range(10):
            bad = RingStructure(ring.basis, changed(
                ring.tensor, rng.choice(slots), rng.choice((1, -1, 2))))
            mp = share(bad)
            assert mp._shares_product()
            middles.clear()
            report = validate_module(mp)
            found = [(v.indices, v.detail) for v in report
                     if v.axiom == "nu-associativity"]
            assert [(v.indices, v.detail) for v in report
                    if v.axiom == "module-associativity"] == found
            products = bad._action_products
            assert [indices for indices, _ in found] == \
                [indices for indices, _, _ in
                 all_triples_defects(products, products, bad.size,
                                     bad.size)]
            # the certificate, then one run over every middle if it fails
            assert middles == ([generators(bad), None] if found
                               else [generators(bad)])
            with_defects += bool(found)
        assert with_defects >= 5


def operator_certificate(payload) -> tuple[list, list]:
    """The generator-middle defects of the maps of a ring or pair scaled
    to ints: by the operator identities of :func:`associativity_defects`,
    and by the all-triples oracle restricted to those middles."""
    ring, width = payload.ring, payload.module_basis.size
    p, a = ring_module.common_maps(payload)
    middles = generators(ring)
    return (associativity_defects(p, a, width, middles),
            [defect for defect in all_triples_defects(p, a, ring.size, width)
             if defect[0][1] in middles])


class TestOperatorCertificate:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rings(), corrupted_rings(), pairs(), corrupted_pairs()))
    def test_equals_the_generator_scan(self, payload):
        certified, oracle = operator_certificate(payload)
        assert certified == oracle

    def test_left_side_only(self):
        # (x.x).e = f but x.(x.e) = 0, and x, the only generator, acts
        # on nothing
        mp = bad_action_pair()
        ring = mp.ring
        assert validate(ring).ok and generators(ring) == [1]
        assert operator_certificate(mp) == ([((1, 1, 0, 1), 1, 0)],) * 2
        assert [(v.axiom, v.indices, v.detail) for v in validate_module(mp)] \
            == [("module-associativity", (1, 1, 0, 1), "1 != 0")]

    def test_right_side_only(self):
        # 1, x, y (degrees 0, 2, 2) with no products but the unit's,
        # acting on e, g, h (degrees 0, 2, 4): y.e = g and x.g = h.
        # (x.y).e = 0 but x.(y.e) = h
        ring = RingStructure(
            GradedBasis(labels=("1", "x", "y"), degrees=(0, 2, 2),
                        formal_dimension=2, unit_index=0),
            {(0, i, i): 1 for i in range(3)} | {(1, 0, 1): 1, (2, 0, 2): 1})
        mp = ModulePair(ring, GradedBasis(
            labels=("e", "g", "h"), degrees=(0, 2, 4), formal_dimension=4,
            unit_index=None, top_index=2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (2, 0, 1): 1,
             (1, 1, 2): 1})
        assert validate(ring).ok and generators(ring) == [1, 2]
        assert operator_certificate(mp) == ([((1, 2, 0, 2), 0, 1)],) * 2
        assert [(v.axiom, v.indices, v.detail) for v in validate_module(mp)] \
            == [("module-associativity", (1, 2, 0, 2), "0 != 1")]


class TestResidualCertificate:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_probed_report_equals_the_full_report(self, data):
        payload = data.draw(st.one_of(rings(NAMES), pairs()))
        if isinstance(payload, ModulePair):
            ring, left = payload.ring, payload.module_basis
            check, inverse = check_relative_symmetry, relative_diagonal_class
        else:
            ring, left = payload, payload.basis
            check, inverse = check_symmetry, diagonal_class
        if data.draw(st.booleans()):
            w = inverse(payload)
        else:
            w = TensorClass(data.draw(matrices(left.size, ring.size)), left,
                            ring.basis)
        # the validated copy probes the generators first; the payload
        # as drawn, never validated, checks every basis element
        assert check(validated(payload), w).entries == \
            check(payload, w).entries


class TestGeneratorsOncePerRing:
    @pytest.mark.parametrize("argv,rings_built", [
        (("diag", "cp:3", "--mode", "graded"), 1),
        (("diag", "torus:2"), 1),
        (("pair", "cp:2"), 1),
        (("pair", "cylinder:cp:2", "--mode", "graded"), 1),
        (("solve", "torus:2", "--mode", "graded"), 1),
        (("solve", "cylinder:sphere:2"), 1),
        (("kunneth", "cp:2", "torus:2", "--mode", "graded"), 3),
    ])
    def test_one_reduction_per_ring(self, invoke, monkeypatch, argv,
                                    rings_built):
        reduced = []
        pick = ring_module._pick_generators

        def counted(ring):
            reduced.append(ring)
            return pick(ring)

        monkeypatch.setattr(ring_module, "_pick_generators", counted)
        code, _, err = invoke(*argv)
        assert code == 0, err
        assert len(reduced) == rings_built
        assert len({id(ring) for ring in reduced}) == rings_built

