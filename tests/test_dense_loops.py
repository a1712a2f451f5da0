"""Basis change and validation against the dense loops they replaced.

``change_basis`` contracts the structure tensor's terms with the nonzero
entries of the change and its inverse; the reference transports every
pair of basis columns through dense products.  The unit and
graded-commutativity checks of ``validate`` and the unit-action check of
``validate_module`` walk the product maps' terms; the references walk
every index pair.  Results must be equal, entry for entry and in order.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import ring as ring_module
from frobdiag.boundary import ModulePair, validate_module
from frobdiag.linalg import Matrix, invert
from frobdiag.ring import (RingStructure, ValidationReport, change_basis,
                           multiply, validate)
from strategies import (apply, changed, corrupted_pairs, corrupted_rings,
                        nonzero, rings, unimodular_degree_preserving)


def dense_change_basis(ring, p):
    """The product of every pair of new basis columns, moved back by the
    inverse as a dense vector."""
    n = ring.size
    q = invert(p)
    tensor = {}
    for a in range(n):
        va = p.column(a)
        for b in range(n):
            vb = p.column(b)
            prod_new = apply(q, multiply(ring, va, vb))
            for c, v in enumerate(prod_new):
                if v != 0:
                    tensor[(a, b, c)] = v
    return RingStructure(ring.basis, tensor)


@st.composite
def rational_changes(draw, ring):
    """A unimodular degree-preserving change, its columns scaled by
    drawn nonzero rationals."""
    scale = [draw(nonzero) for _ in range(ring.size)]
    rows = [[] for _ in range(ring.size)]
    for (i, j), v in draw(unimodular_degree_preserving(ring)).terms():
        rows[i].append((j, v * scale[j]))
    return Matrix.sparse(rows, ring.size)


class TestChangeBasis:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_the_dense_transport(self, data):
        ring = data.draw(rings())
        if data.draw(st.booleans()):
            p = data.draw(unimodular_degree_preserving(ring))
        else:
            p = data.draw(rational_changes(ring))
        moved = change_basis(ring, p)
        expected = dense_change_basis(ring, p)
        assert moved == expected
        assert list(moved.tensor.items()) == list(expected.tensor.items())
        assert [type(v) for v in moved.tensor.values()] == \
            [type(v) for v in expected.tensor.values()]


def dense_validate(ring, allow_noncommutative=False):
    """``validate`` with its unit and graded-commutativity checks over
    every index pair."""
    report = ValidationReport()
    deg = ring.basis.degrees
    n = ring.size
    u = ring.basis.unit_index
    for (i, j, k), v in sorted(ring.tensor.items()):
        if deg[k] != deg[i] + deg[j]:
            report.add("grading", (i, j, k),
                       f"entry {v} has degree {deg[i]}+{deg[j]} -> {deg[k]}")
    for i in range(n):
        for side, coeffs in (("left", ring.product_coefficients(u, i)),
                             ("right", ring.product_coefficients(i, u))):
            for k in range(n):
                expected = int(k == i)
                actual = coeffs.get(k, 0)
                if actual != expected:
                    report.add("unit", (i, k),
                               f"{side} unit product gives {actual}, "
                               f"expected {expected}")
    for indices, a, b in ring_module._defects_unless_certified(
            ring, ring, report.ok):
        report.add("associativity", indices, f"{a} != {b}")
    if not allow_noncommutative:
        for i in range(n):
            for j in range(i, n):
                sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
                fwd = ring.product_coefficients(i, j)
                bwd = ring.product_coefficients(j, i)
                for k in set(fwd) | set(bwd):
                    a = fwd.get(k, 0)
                    b = bwd.get(k, 0)
                    if a != sign * b:
                        report.add("graded-commutativity", (i, j, k),
                                   f"{a} != {'-' if sign < 0 else ''}{b}")
    return report


def dense_validate_module(mp, allow_noncommutative=False):
    """``validate_module`` with its ring part and its unit-action check
    over every index pair."""
    report = ValidationReport()
    for v in dense_validate(mp.ring, allow_noncommutative):
        report.add(f"nu-{v.axiom}", v.indices, v.detail)
    ring_deg = mp.ring.basis.degrees
    mod_deg = mp.module_basis.degrees
    for (i, j, k), v in sorted(mp.action.items()):
        if mod_deg[k] != ring_deg[i] + mod_deg[j]:
            report.add("action-grading", (i, j, k),
                       f"entry {v} has degree {ring_deg[i]}+{mod_deg[j]} "
                       f"-> {mod_deg[k]}")
    unit = mp.ring.basis.unit_index
    for j in range(mp.module_basis.size):
        coeffs = mp.action_coefficients(unit, j)
        for k in range(mp.module_basis.size):
            expected = int(k == j)
            actual = coeffs.get(k, 0)
            if actual != expected:
                report.add("unit-action", (j, k),
                           f"unit acts with {actual}, expected {expected}")
    for indices, a, b in ring_module._defects_unless_certified(
            mp.ring, mp, report.ok):
        report.add("module-associativity", indices, f"{a} != {b}")
    return report


@st.composite
def unit_corrupted_rings(draw):
    """A corrupted ring, half of the time with a unit product changed
    too (by a drawn amount, or removed), and half of the time with
    ``x_j.x_i`` removed for up to three products ``x_i.x_j``."""
    ring = draw(corrupted_rings())
    tensor, u = ring.tensor, ring.basis.unit_index
    if draw(st.booleans()):
        index = st.integers(min_value=0, max_value=ring.size - 1)
        i, k = draw(index), draw(index)
        slot = draw(st.sampled_from(((u, i, k), (i, u, k))))
        amount = draw(st.one_of(nonzero, st.just(
            -Fraction(tensor.get(slot, 0)))))
        tensor = changed(tensor, slot, amount)
    if draw(st.booleans()):
        products = sorted({(i, j) for i, j, _ in tensor if i != j})
        if products:
            gone = draw(st.lists(st.sampled_from(products), max_size=3))
            tensor = {(i, j, k): v for (i, j, k), v in tensor.items()
                      if (j, i) not in gone}
    return RingStructure(ring.basis, tensor)


@st.composite
def unit_corrupted_pairs(draw):
    """A corrupted pair, half of the time with the unit's action changed
    too (by a drawn amount, or removed)."""
    mp = draw(corrupted_pairs())
    if draw(st.booleans()):
        index = st.integers(min_value=0, max_value=mp.module_basis.size - 1)
        slot = (mp.ring.basis.unit_index, draw(index), draw(index))
        amount = draw(st.one_of(nonzero, st.just(
            -Fraction(mp.action.get(slot, 0)))))
        mp = ModulePair(mp.ring, mp.module_basis,
                        changed(mp.action, slot, amount))
    return mp


class TestValidation:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ring_report_equals_the_dense_loops(self, data):
        ring = data.draw(unit_corrupted_rings())
        allow = data.draw(st.booleans())
        assert validate(ring, allow_noncommutative=allow).violations == \
            dense_validate(ring, allow).violations

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pair_report_equals_the_dense_loops(self, data):
        mp = data.draw(unit_corrupted_pairs())
        allow = data.draw(st.booleans())
        assert validate_module(mp, allow_noncommutative=allow).violations \
            == dense_validate_module(mp, allow).violations
