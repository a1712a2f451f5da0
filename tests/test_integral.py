"""Integer structure constants: the hot loops run on ints.

A ring and its action are scaled to ints by one common denominator ``D``
before the associativity certificate, the generator pick, the residual
oracle and the symmetry-system build.  The associator is quadratic and
the residual and the system rows are linear in the constants, so every
defect scales by ``D**2`` and every residual and row by ``D``: zero
patterns, kernels and reduced forms stay as they are, and so does every
reported value.  Rational rings are drawn so that ``D > 1`` is exercised.
"""

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
from frobdiag.diagonal import (SignMode, TensorClass, _blocks,
                               _symmetry_system, check_symmetry, left_factor,
                               right_factor, tensor_multiply)
from frobdiag.linalg import Matrix, nullspace
from frobdiag.ring import (RingStructure, _defects_unless_certified,
                           _Echelon, _insert, associativity_defects,
                           basis_element, generators, scaled_action,
                           sparse_tensor, validate)
from strategies import (changed, corrupted_pairs, corrupted_rings,
                        graded_slots, matrices, modes, nonzero, pairs,
                        rational_rings, rings)

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
    """The ring, the action's product map and the action's denominator."""
    if isinstance(payload, ModulePair):
        return payload.ring, payload._action_products, payload._den
    return payload, payload._products, payload._den


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
        tensor, products, den = sparse_tensor(
            {(0, 0, 0): big, (0, 1, 1): "3/6", (1, 0, 1): Fraction(4, 2),
             (1, 1, 0): 0, (1, 1, 1): Fraction(-2, 3)}, (2, 2, 2), "t")
        assert tensor[0, 0, 0] is big
        assert tensor == {(0, 0, 0): big, (0, 1, 1): Fraction(1, 2),
                          (1, 0, 1): 2, (1, 1, 1): Fraction(-2, 3)}
        assert type(tensor[1, 0, 1]) is int
        assert products == {(0, 0): {0: big}, (0, 1): {1: Fraction(1, 2)},
                            (1, 0): {1: 2}, (1, 1): {1: Fraction(-2, 3)}}
        assert den == 6
        assert sparse_tensor({(0, 0, 0): 1}, (1, 1, 1), "t")[2] == 1


class TestScaledAction:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(any_ring, any_pair))
    def test_scales_every_value_by_the_common_den(self, payload):
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        for scaled, given_map in ((scaled_action(ring, common),
                                   ring._products),
                                  (scaled_action(payload, common), action)):
            assert scaled.keys() == given_map.keys()
            for key, coeffs in given_map.items():
                assert scaled[key] == {k: common * v
                                       for k, v in coeffs.items()}
                assert all(type(v) is int for v in scaled[key].values())

    @pytest.mark.parametrize("name", catalog_names())
    def test_den_one_returns_the_maps_themselves(self, name):
        payload = resolve(name).payload
        ring, action, den = ring_and_action(payload)
        assert lcm(ring._den, den) == 1
        assert scaled_action(ring, 1) is ring._products
        assert scaled_action(payload, 1) is action

    def test_a_map_asked_for_twice_is_scaled_once(self):
        ring = RingStructure(resolve("cp:2").payload.basis,
                             {(0, i, i): 1 for i in range(3)}
                             | {(i, 0, i): 1 for i in (1, 2)}
                             | {(1, 1, 2): Fraction(1, 3)})
        assert ring._den == 3
        first = scaled_action(ring, 3)
        assert scaled_action(ring, 3) is first
        assert ring._scaled == {3: first}
        assert first[1, 1] == {2: 1}

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(rational_rings(), pairs(rational_rings())))
    def test_each_map_is_scaled_once(self, payload):
        # validation, the generator pick, the graded solve and the
        # residual check all run on the scaled maps; each map is scaled
        # the first time only, then read from the ring or pair
        scaled = []

        def counted(acting, den):
            if den not in acting._scaled:
                scaled.append(acting._action_products)
            return scaled_action(acting, den)

        with mock.patch.object(ring_module, "scaled_action", counted), \
                mock.patch.object(diagonal, "scaled_action", counted):
            if isinstance(payload, ModulePair):
                validate_module(payload)
                w = relative_diagonal_class(payload, SignMode.GRADED,
                                            generators(payload.ring))
                check_relative_symmetry(payload, w)
            else:
                validate(payload)
                w = diagonal.diagonal_class(payload, SignMode.GRADED,
                                            generators(payload))
                check_symmetry(payload, w)
        ring, action, _ = ring_and_action(payload)
        assert scaled
        assert len(scaled) == len({id(m) for m in scaled})
        assert {id(m) for m in scaled} <= {id(ring._products), id(action)}


class TestCertificate:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_ring, any_pair))
    def test_integer_certificate_finds_the_fraction_defects(self, payload):
        # the generator-middle defects of the scaled maps are those of the
        # maps as given, times D**2; so the integer certificate finds a
        # defect exactly when the Fraction scan does
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        middles = generators(ring)
        ints = list(associativity_defects(
            scaled_action(ring, common), scaled_action(payload, common),
            middles))
        fractions = list(associativity_defects(ring._products, action,
                                               middles))
        square = common * common
        assert ints == [(at, square * a, square * b)
                        for at, a, b in fractions]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_ring, any_pair))
    def test_certified_defects_are_all_defects_or_none(self, payload):
        # once grading, the unit axioms and (for a pair) the ring's own
        # associativity hold, the certificate yields every defect of the
        # maps as given, or none when there are none
        ring, action, den = ring_and_action(payload)
        check = validate_module if isinstance(payload, ModulePair) \
            else validate
        assume(not any(v.axiom in CHEAP or v.axiom.startswith("nu-")
                       for v in check(payload)))
        assert list(_defects_unless_certified(payload, True)) == \
            list(associativity_defects(ring._products, action))


def pick_inserting_every_product(ring):
    """:func:`generators` as it was: every decomposable product inserted,
    repeated ones included, over the constants as given."""
    deg, unit = ring.basis.degrees, ring.basis.unit_index
    candidates = sorted((i for i in range(ring.size) if i != unit),
                        key=lambda i: (deg[i], i))
    if any(deg[i] == 0 for i in candidates):
        return candidates
    echelon = _Echelon()
    for (i, j), coeffs in ring._products.items():
        if i != unit and j != unit:
            _insert(echelon, dict(coeffs))
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
        # place, so the pick inserts copies of the scaled map kept on
        # the ring (the product map itself when D = 1); torus:3 and
        # cp:2 x cp:2 have degrees of rank 3, where moved products have
        # several terms
        scaled = scaled_action(ring, ring._den)
        kept = {key: dict(coeffs) for key, coeffs in scaled.items()}
        products = {key: dict(coeffs)
                    for key, coeffs in ring._products.items()}
        generators(ring)
        assert ring._scaled == {ring._den: kept}
        assert ring._products == products

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
        for probes in (None, generators(ring)):
            assert [(e.probe, e.left, e.right, e.value)
                    for e in check_symmetry(ring, w, probes)] == \
                expected

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
        for probes in (None, generators(ring)):
            assert [(e.probe, e.left, e.right, e.value)
                    for e in check_relative_symmetry(mp, w, probes)] == \
                expected


def unscaled(function, *args):
    """``function(*args)`` with the constants left as given."""
    with mock.patch.object(diagonal, "scaled_action",
                           lambda acting, den: acting._action_products):
        return function(*args)


class TestSystem:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_are_den_times_the_unscaled_rows(self, data):
        payload = data.draw(st.one_of(rational_rings(),
                                      pairs(rational_rings())))
        ring, action, den = ring_and_action(payload)
        common = lcm(ring._den, den)
        # the whole system, then each block the solvers build
        for degree in (None, *_blocks(payload)):
            rows, width = _symmetry_system(payload, None, degree)
            plain_rows, plain_width = unscaled(_symmetry_system, payload,
                                               None, degree)
            assert width == plain_width
            assert rows == [{c: common * v for c, v in row.items()}
                            for row in plain_rows]
            assert all(type(v) is int for row in rows for v in row.values())
            assert nullspace(Matrix.sparse((r.items() for r in rows),
                                           width)) == \
                nullspace(Matrix.sparse((r.items() for r in plain_rows),
                                        width))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_graded_solution_equals_the_unscaled_one(self, data):
        ring = data.draw(rational_rings())
        assert diagonal.diagonal_class(ring, SignMode.GRADED) == \
            unscaled(diagonal.diagonal_class, ring, SignMode.GRADED)
