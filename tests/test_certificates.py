"""Generator certificates: associativity and symmetry checked on generators.

Once grading and the unit axioms hold, associativity with a generating
set as middle factors implies associativity, and once the ring and the
action are associative, symmetry for the generators implies symmetry.
Validation and the residual checks look at the generators first and scan
everything only when that finds a defect, so every report they return
equals the full scan's, on valid and corrupted inputs alike.
"""

import random
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import ring as ring_module
from frobdiag.boundary import (ModulePair, check_relative_symmetry,
                               relative_diagonal_class, validate_module)
from frobdiag.catalog import cylinder_pair, resolve
from frobdiag.diagonal import (SignMode, TensorClass, check_symmetry,
                               diagonal_class)
from frobdiag.ring import (GradedBasis, RingStructure, associativity_defects,
                           generators, validate)
from strategies import (RING_NAMES, changed, corrupted_pairs,
                        corrupted_rings, graded_slots, matrices, pairs, rings)

# larger rings, where generators leave out most middle factors
NAMES = RING_NAMES + ["cp:5", "product:cp:2,sphere:3"]
CHEAP = ("grading", "unit", "action-grading", "unit-action")


def full_scan(check, payload, **options):
    """``check(payload)`` with every index as a middle factor: the scan
    over every triple."""
    with mock.patch.object(ring_module, "generators",
                           lambda ring: list(range(ring.size))):
        return check(payload, **options)


def scans(products, action, ring):
    """The defects with generator middles, and all defects."""
    return (list(associativity_defects(products, action, generators(ring))),
            list(associativity_defects(products, action)))


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
            certified, full = scans(ring._products, ring._products, ring)
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
            certified, full = scans(mp.ring._products, mp._action_products,
                                    mp.ring)
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
                    (validate, bad_ring, bad_ring._products, bad_ring),
                    (validate_module, bad_pair, bad_pair._action_products,
                     mp.ring)):
                report = check(payload)
                assert not any(v.axiom in CHEAP or v.axiom.startswith("nu-")
                               for v in report)
                assert report.violations == \
                    full_scan(check, payload).violations
                certified, full = scans(over._products, action, over)
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
        assert [v.indices for v in report] == \
            [indices for indices, _, _ in
             associativity_defects(ring._products, ring._products)]


def operator_certificate(payload) -> tuple[bool, bool]:
    """``_generators_certify`` on the maps of a ring or pair scaled to
    ints, and whether the generator-middle scan of the same maps finds
    no defect."""
    if isinstance(payload, ModulePair):
        ring, width = payload.ring, payload.module_basis.size
    else:
        ring, width = payload, payload.size
    den = lcm(ring._den, payload._den)
    p = ring_module.scaled_action(ring, den)
    a = ring_module.scaled_action(payload, den)
    middles = generators(ring)
    return (ring_module._generators_certify(p, a, middles, width),
            next(associativity_defects(p, a, middles), None) is None)


class TestOperatorCertificate:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rings(), corrupted_rings(), pairs(), corrupted_pairs()))
    def test_equals_the_generator_scan(self, payload):
        certified, clean = operator_certificate(payload)
        assert certified == clean

    def test_left_side_only(self):
        # 1, x, z (degrees 0, 2, 4) with x.x = z, acting on e, f
        # (degrees 0, 4): z.e = f, and x acts as zero.  (x.x).e = f but
        # x.(x.e) = 0, and x, the only generator, acts on nothing
        ring = RingStructure(
            GradedBasis(labels=("1", "x", "z"), degrees=(0, 2, 4),
                        formal_dimension=4, unit_index=0, top_index=2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
             (2, 0, 2): 1, (1, 1, 2): 1})
        mp = ModulePair(ring, GradedBasis(
            labels=("e", "f"), degrees=(0, 4), formal_dimension=4,
            unit_index=None, top_index=1),
            {(0, 0, 0): 1, (0, 1, 1): 1, (2, 0, 1): 1})
        assert validate(ring).ok and generators(ring) == [1]
        assert operator_certificate(mp) == (False, False)
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
        assert operator_certificate(mp) == (False, False)
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
        full = check(payload, w)
        assert check(payload, w, generators(ring)).entries == \
            full.entries


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

