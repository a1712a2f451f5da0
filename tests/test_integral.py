"""Integer structure constants: the hot loops run on ints.

A ring and its action are scaled to ints by one common denominator ``D``
before the associativity certificate, the generator pick, the residual
oracle and the symmetry-system build.  The associator is quadratic and
the residual and the system rows are linear in the constants, so every
defect scales by ``D**2`` and every residual and row by ``D``: zero
patterns, kernels and reduced forms stay as they are, and so does every
reported value.  Rational rings are drawn so that ``D > 1`` is exercised.
"""

from collections import Counter
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobdiag import diagonal
from frobdiag import ring as ring_module
from frobdiag.boundary import (ModulePair, check_relative_symmetry,
                               relative_diagonal_class, validate_module)
from frobdiag.catalog import catalog_names, resolve
from frobdiag.diagonal import (SignMode, TensorClass, _product_index,
                               _symmetry_system, check_symmetry, left_factor,
                               right_factor, tensor_multiply)
from frobdiag.linalg import Matrix, _integral, _reduce, nullspace
from frobdiag.constants import common_maps, sparse_tensor
from frobdiag.ring import (GradedBasis, RingStructure,
                           _defects_unless_certified, _Echelon, _insert,
                           associativity_defects, basis_element, generators,
                           validate)
from strategies import (changed, corrupted_pairs, corrupted_rings,
                        equations, exact_map, graded_slots, matrices, modes,
                        nonzero, pairs, rational_rings, reference_system,
                        rescaled_pairs, rings, validated)
from test_ring import all_triples_defects

CHEAP = ("grading", "unit", "action-grading", "unit-action")


def denominators(values):
    return lcm(*(Fraction(v).denominator for v in values))


@st.composite
def rational_corrupted_rings(draw):
    """A rational ring with one constant off where grading and the unit
    axioms cannot see it."""
    ring = draw(rational_rings())
    slots = graded_slots(ring.basis, ring.basis, ring.basis)
    if not slots:
        return ring
    return RingStructure(ring.basis, changed(
        ring.tensor, draw(st.sampled_from(slots)), draw(nonzero)))


any_ring = st.one_of(rings(), rational_rings(), corrupted_rings(),
                     rational_corrupted_rings())
any_pair = st.one_of(pairs(), pairs(rational_rings()), corrupted_pairs(),
                     pairs(rational_corrupted_rings()))


def ring_and_action(payload):
    """The ring, the action's exact map and the action's denominator."""
    return payload.ring, exact_map(payload), payload._den


@st.composite
def rescaled_corrupted_pairs(draw):
    """A rescaled pair with one action constant off where action grading
    and the unit action cannot see it: a defect whose sides carry both
    the ring's and the action's denominators."""
    mp = draw(rescaled_pairs())
    slots = graded_slots(mp.ring.basis, mp.module_basis, mp.module_basis)
    if not slots:
        return mp
    return ModulePair(mp.ring, mp.module_basis, changed(
        mp.action, draw(st.sampled_from(slots)), draw(nonzero)))


class TestSparseTensor:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(any_ring, any_pair))
    def test_den_is_the_lcm_of_the_denominators(self, payload):
        ring, action, den = ring_and_action(payload)
        tensor = payload.action if isinstance(payload, ModulePair) \
            else payload.tensor
        assert den == denominators(tensor.values())
        assert ring._den == denominators(ring.tensor.values())

    def test_ints_are_kept_and_others_made_exact(self):
        big = 10 ** 30
        raw = {(0, 0, 0): big, (0, 1, 1): "3/6", (1, 0, 1): Fraction(4, 2),
               (1, 1, 0): 0, (1, 1, 1): Fraction(-2, 3)}
        ints, den = sparse_tensor(raw, (2, 2, 2), "t")
        assert den == 6
        assert ints == {(0, 0): {0: 6 * big}, (0, 1): {1: 3},
                        (1, 0): {1: 12}, (1, 1): {1: -4}}
        assert all(type(v) is int for c in ints.values() for v in c.values())
        ring = RingStructure(GradedBasis(("a", "b"), (0, 0), 0), raw)
        assert ring.tensor == {(0, 0, 0): big, (0, 1, 1): Fraction(1, 2),
                               (1, 0, 1): 2, (1, 1, 1): Fraction(-2, 3)}
        assert [type(v) for v in ring.tensor.values()] == \
            [int, Fraction, int, Fraction]
        assert exact_map(ring)[0, 1] == {1: Fraction(1, 2)}
        clean = {(0, 0, 0): big, (1, 1, 1): Fraction(-2, 3)}
        kept = RingStructure(GradedBasis(("a", "b"), (0, 0), 0), clean)
        assert kept.tensor == clean and type(kept.tensor[0, 0, 0]) is int
        assert kept._ints == {(0, 0): {0: 3 * big}, (1, 1): {1: -2}}
        assert sparse_tensor({(0, 0, 0): 1}, (1, 1, 1), "t")[1] == 1


class TestCommonMaps:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(any_ring, any_pair, rescaled_pairs()))
    def test_scales_every_value_by_the_common_den(self, payload):
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        for scaled, given_map in zip(common_maps(payload),
                                     (exact_map(ring), action)):
            assert scaled.keys() == given_map.keys()
            for key, coeffs in given_map.items():
                assert scaled[key] == {k: common * v
                                       for k, v in coeffs.items()}
                assert all(type(v) is int for v in scaled[key].values())

    @pytest.mark.parametrize("name", catalog_names())
    def test_den_one_returns_the_maps_themselves(self, name):
        payload = resolve(name).payload
        ring = payload.ring
        assert ring._den == payload._den == 1
        products, acted = common_maps(payload)
        assert products is ring._ints and acted is payload._ints
        assert payload._common is None

    def test_copies_are_built_once_and_only_when_the_dens_differ(self):
        basis = resolve("cp:2").payload.basis
        ring = RingStructure(basis, {(0, i, i): 1 for i in range(3)}
                             | {(i, 0, i): 1 for i in (1, 2)}
                             | {(1, 1, 2): Fraction(1, 3)})
        assert ring._den == 3
        # a ring, and a pair at its ring's den, read the stored maps
        for acting in (ring, ModulePair(ring, basis, ring.tensor)):
            products, acted = common_maps(acting)
            assert products is ring._ints and acted is acting._ints
            assert acting._common is None
        # an integral action is scaled to the ring's den 3, once; the
        # ring's map, already there, is not copied
        mp = ModulePair(ring, basis, {(0, i, i): 1 for i in range(3)}
                        | {(1, 1, 2): 1})
        assert mp._den == 1
        first = common_maps(mp)
        assert common_maps(mp) is first and mp._common is first
        assert first[0] is ring._ints and first[0][1, 1] == {2: 1}
        assert first[1] == {(0, 0): {0: 3}, (0, 1): {1: 3}, (0, 2): {2: 3},
                            (1, 1): {2: 3}}

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(rational_rings(), pairs(rational_rings()),
                     rescaled_pairs()))
    def test_each_map_is_scaled_once(self, payload):
        # validation, the graded solve and the residual check all run on
        # the maps over one common denominator; maps stored at that
        # denominator are read as they are, and otherwise the copies are
        # built the first time only, then read from the pair
        built = []

        def counted(acting):
            kept = acting._common
            maps = common_maps(acting)
            if acting._common is not kept:
                built.append(acting)
            return maps

        with mock.patch.object(ring_module, "common_maps", counted), \
                mock.patch.object(diagonal, "common_maps", counted):
            if isinstance(payload, ModulePair):
                assert validate_module(payload).ok
                w = relative_diagonal_class(payload, SignMode.GRADED)
                assert check_relative_symmetry(payload, w).ok
            else:
                assert validate(payload).ok
                w = diagonal.diagonal_class(payload, SignMode.GRADED)
                assert check_symmetry(payload, w).ok
        # a ring, and a pair sharing its ring's map, are never scaled
        assert built == ([payload] if payload._den != payload.ring._den
                         else [])


class TestCertificate:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_ring, any_pair, rescaled_corrupted_pairs()))
    def test_integer_certificate_finds_the_fraction_defects(self, payload):
        # the generator-middle defects of the scaled maps are those of the
        # maps as given, times D**2; so the integer certificate finds a
        # defect exactly when the Fraction scan does
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        middles, width = generators(ring), payload.module_basis.size
        ints = associativity_defects(*common_maps(payload), width, middles)
        fractions = associativity_defects(exact_map(ring), action,
                                          width, middles)
        square = common * common
        assert ints == [(at, square * a, square * b)
                        for at, a, b in fractions]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_ring, any_pair, rescaled_corrupted_pairs()))
    def test_certified_defects_are_all_defects_or_none(self, payload):
        # once grading, the unit axioms and (for a pair) the ring's own
        # associativity hold, the certificate yields every defect of the
        # maps as given, with the values the all-triples oracle computes
        # from them and printed as it prints them, or none when there are
        # none
        ring, action, den = ring_and_action(payload)
        check = validate_module if isinstance(payload, ModulePair) \
            else validate
        assume(not any(v.axiom in CHEAP or v.axiom.startswith("nu-")
                       for v in check(payload)))
        certified = _defects_unless_certified(payload, True)
        oracle = all_triples_defects(exact_map(ring), action,
                                     ring.size, payload.module_basis.size)
        assert certified == oracle
        assert [f"{a} != {b}" for _, a, b in certified] == \
            [f"{a} != {b}" for _, a, b in oracle]


def pick_inserting_every_product(ring):
    """:func:`generators` as it was: every decomposable product inserted,
    repeated ones included, over the constants as given, each scaled to
    integers by its own denominators."""
    deg, unit = ring.basis.degrees, ring.basis.unit_index
    candidates = sorted((i for i in range(ring.size) if i != unit),
                        key=lambda i: (deg[i], i))
    if any(deg[i] == 0 for i in candidates):
        return candidates
    echelon = _Echelon()
    for (i, j), coeffs in exact_map(ring).items():
        if i != unit and j != unit:
            _insert(echelon, _integral(coeffs)[0])
    return [k for k in candidates if _insert(echelon, {k: 1})]


class TestGeneratorPick:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_picks_unchanged(self, name):
        payload = resolve(name).payload
        ring = payload.ring if isinstance(payload, ModulePair) else payload
        assert ring_module._pick_generators(ring) == \
            pick_inserting_every_product(ring)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(rings(), rational_rings(), corrupted_rings()))
    def test_drawn_picks_unchanged(self, ring):
        assert ring_module._pick_generators(ring) == \
            pick_inserting_every_product(ring)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(rings(), rational_rings(), corrupted_rings()))
    def test_pick_leaves_the_kept_maps_unchanged(self, ring):
        # the kernel owns the rows it is given and reduces int rows in
        # place, so the pick inserts copies of the map stored on the ring
        # (the product map itself when D = 1); torus:3 and cp:2 x cp:2
        # have degrees of rank 3, where moved products have several terms
        kept = {key: dict(coeffs) for key, coeffs in ring._ints.items()}
        products = exact_map(ring)
        generators(ring)
        assert ring._ints == kept and ring._common is None
        assert exact_map(ring) == products

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_cp_inserts_each_distinct_product_once(self, monkeypatch, n):
        # cp:n has about n**2/2 decomposable products but only n - 1
        # distinct ones, h^2 .. h^n; with the n candidates that is
        # 2n - 1 insertions
        calls = []

        def counted(echelon, row):
            calls.append(row)
            return _insert(echelon, row)

        monkeypatch.setattr(ring_module, "_insert", counted)
        ring = resolve(f"cp:{n}").payload
        assert ring_module._pick_generators(ring) == [1]
        assert len(calls) == 2 * n - 1


def residuals_by_tensor_multiply(ring, mode, mu):
    """``(k, i, s, value)`` of ``w.(1(x)x_k) - (x_k(x)1).w``, in order,
    through :func:`tensor_multiply` over the constants as given."""
    w = TensorClass(mu, ring.basis, ring.basis)
    entries = []
    for k in range(ring.size):
        x = basis_element(ring, k)
        lhs = tensor_multiply(ring, ring, mode, w,
                              right_factor(ring, ring, x)).mu
        rhs = tensor_multiply(ring, ring, mode,
                              left_factor(ring, ring, x), w).mu
        for i in range(ring.size):
            for s in range(ring.size):
                if lhs[i, s] != rhs[i, s]:
                    entries.append((k, i, s, lhs[i, s] - rhs[i, s]))
    return entries


class TestResiduals:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_ring_residuals_equal_tensor_multiply(self, data):
        ring, mode = data.draw(rational_rings()), data.draw(modes)
        mu = data.draw(matrices(ring.size, ring.size))
        expected = residuals_by_tensor_multiply(ring, mode, mu)
        w = TensorClass(mu, ring.basis, ring.basis)
        # unvalidated, every probe is checked; validated, the generators
        # first
        for payload in (ring, validated(ring)):
            assert [(e.probe, e.left, e.right, e.value)
                    for e in check_symmetry(payload, w)] == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_pair_residuals_equal_tensor_multiply(self, data):
        # the cylinder and closed pairs act by the ring's own product, and
        # a unit passing a module class never carries a sign, so their
        # residuals are the ring's
        mp, mode = data.draw(pairs(rational_rings())), data.draw(modes)
        ring = mp.ring
        mu = data.draw(matrices(ring.size, ring.size))
        expected = residuals_by_tensor_multiply(ring, mode, mu)
        w = TensorClass(mu, mp.module_basis, ring.basis)
        for payload in (mp, validated(mp)):
            assert [(e.probe, e.left, e.right, e.value)
                    for e in check_relative_symmetry(payload, w)] == \
                expected


def unscaled(function, *args):
    """``function(*args)`` with the constants left as given.  The kernel
    takes integer rows, so a system built from them is reduced with each
    row scaled by its own denominators instead of by the common ``D``."""
    def reduce_integral(rows, echelon=None, zeros=()):
        return _reduce((_integral(row)[0] for row in rows), echelon, zeros)

    with mock.patch.object(diagonal, "common_maps",
                           lambda acting: (exact_map(acting.ring),
                                           exact_map(acting))), \
            mock.patch.object(diagonal, "_reduce", reduce_integral):
        return function(*args)


class TestSystem:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_are_den_times_the_unscaled_rows(self, data):
        payload = data.draw(st.one_of(rational_rings(),
                                      pairs(rational_rings())))
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        # each block the solvers build, which together are the whole
        # system (a one-term equation is its column alone, on either side)
        width = payload.module_basis.size * ring.size
        together = Counter()
        for degree in _product_index(payload).blocks:
            rows, zeros = _symmetry_system(payload, degree)
            together += equations(rows, zeros)
            plain_rows, plain_zeros = unscaled(_symmetry_system, payload,
                                               degree)
            assert zeros == plain_zeros
            assert rows == [{c: common * v for c, v in row.items()}
                            for row in plain_rows]
            assert all(type(v) is int for row in rows for v in row.values())
            pinned = [((c, 1),) for c in zeros]
            assert nullspace(Matrix.sparse(
                [*(r.items() for r in rows), *pinned], width)) == \
                nullspace(Matrix.sparse(
                    [*(r.items() for r in plain_rows), *pinned], width))
        assert together == equations(reference_system(payload)[0])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_graded_solution_equals_the_unscaled_one(self, data):
        ring = data.draw(rational_rings())
        assert diagonal.diagonal_class(ring, SignMode.GRADED) == \
            unscaled(diagonal.diagonal_class, ring, SignMode.GRADED)
