"""``class_in_span`` against a sympy rank reference.

Spaces are drawn subsets of the solved symmetric spaces of drawn rings
and pairs.  The reference says ``w`` is in the span
iff appending its flattened coefficients to the space's does not raise
the rank, computed by sympy, which shares no code with the package.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.boundary import solve_relative_symmetric_space
from frobdiag.catalog import resolve
from frobdiag.diagonal import (TensorClass, class_in_span, pure_tensor,
                               solve_symmetric_space, unflatten)
from frobdiag.ring import unit_element
from strategies import matrices, nonzero, pairs, rings


def sympy_rank(vectors, width: int) -> int:
    return sympy.Matrix(len(vectors), width,
                        [sympy.Rational(v.numerator, v.denominator)
                         for vec in vectors for v in vec]).rank()


def reference_in_span(space, w: TensorClass) -> bool:
    rows = [s.flatten() for s in space]
    width = len(w.flatten())
    return sympy_rank(rows + [w.flatten()], width) == sympy_rank(rows, width)


@st.composite
def spaces(draw) -> list[TensorClass]:
    """A drawn subset, in drawn order, of a solved symmetric space."""
    if draw(st.booleans()):
        space = solve_symmetric_space(draw(rings()))
    else:
        space = solve_relative_symmetric_space(draw(pairs()))
    return draw(st.lists(st.sampled_from(space), unique_by=id,
                         max_size=len(space)))


def combination(space, coefficients) -> TensorClass:
    flats = [s.flatten() for s in space]
    flat = [sum((c * f[at] for c, f in zip(coefficients, flats)),
                Fraction(0)) for at in range(len(flats[0]))]
    return unflatten(flat, space[0].left_basis, space[0].right_basis)


class TestClassInSpan:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_combinations_are_members(self, data):
        space = data.draw(spaces().filter(bool))
        coefficients = data.draw(st.lists(
            st.one_of(st.just(Fraction(0)), nonzero),
            min_size=len(space), max_size=len(space)))
        w = combination(space, coefficients)
        assert class_in_span(space, w)
        assert reference_in_span(space, w)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_classes_match_reference(self, data):
        space = data.draw(spaces().filter(bool))
        first = space[0]
        w = TensorClass(data.draw(matrices(first.left_basis.size,
                                           first.right_basis.size)),
                        first.left_basis, first.right_basis)
        if data.draw(st.booleans()):
            # a member moved off the span, or not, by the drawn class
            shifted = combination(space, [Fraction(1)] * len(space))
            w = unflatten([a + b for a, b in zip(shifted.flatten(),
                                                 w.flatten())],
                          first.left_basis, first.right_basis)
        assert class_in_span(space, w) == reference_in_span(space, w)

    def test_a_non_member_is_refused(self):
        ring = resolve("cp:2").payload
        space = solve_symmetric_space(ring)
        # 1 (x) x is not symmetric, so it lies outside the symmetric space
        x = tuple(Fraction(int(i == 1)) for i in range(ring.size))
        w = pure_tensor(ring, ring, unit_element(ring), x)
        assert not reference_in_span(space, w)
        assert not class_in_span(space, w)

    def test_empty_space_holds_only_zero(self):
        ring = resolve("sphere:2").payload
        zero = unflatten([Fraction(0)] * 4, ring.basis, ring.basis)
        unit = pure_tensor(ring, ring, unit_element(ring),
                           unit_element(ring))
        assert class_in_span([], zero)
        assert not class_in_span([], unit)
        assert reference_in_span([], zero)
        assert not reference_in_span([], unit)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_class_of_another_shape_is_refused(self, data):
        space = data.draw(spaces().filter(bool))
        shape = space[0].mu.shape
        other = resolve("sphere:2" if shape == (3, 3) else "cp:2").payload
        w = pure_tensor(other, other, unit_element(other),
                        unit_element(other))
        if data.draw(st.booleans()):
            w = unflatten([Fraction(0)] * other.size ** 2, other.basis,
                          other.basis)
        with pytest.raises(ValueError):
            class_in_span(space, w)
