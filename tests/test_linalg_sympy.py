"""The elimination kernel against sympy, an implementation it shares nothing with.

Matrices are drawn like the symmetry systems: mostly zeros, rational
entries, and often tall, with repeated and all-zero rows in any order.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.linalg import (Matrix, SingularMatrixError, SparseMatrix,
                             invert, nullspace, rank, rref, solve)

# zero listed twice: two entries in three are zero, as in the symmetry systems
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    """A few drawn rows, then possibly repeated and zero rows, shuffled."""
    c = draw(st.integers(min_value=1, max_value=max_cols))
    base = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=1, max_size=max_rows))
    repeats = draw(st.lists(st.sampled_from(base), max_size=2 * len(base)))
    zeros = [[Fraction(0)] * c] * draw(st.integers(min_value=0, max_value=2))
    return Matrix(draw(st.permutations(base + repeats + zeros)))


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return Matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                min_size=n, max_size=n)))


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for i in range(m.rows) for v in m.row(i)])


def to_fraction(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


def to_matrix(s: sympy.Matrix) -> Matrix:
    return Matrix([[to_fraction(s[i, j]) for j in range(s.cols)]
                   for i in range(s.rows)])


def to_vectors(columns) -> list[tuple[Fraction, ...]]:
    return [tuple(to_fraction(v) for v in col) for col in columns]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_and_rank_match_sympy(m):
    expected, pivots = to_sympy(m).rref()
    assert rref(m) == (to_matrix(expected), list(pivots))
    assert rank(m) == len(pivots)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(m):
    assert nullspace(m) == to_vectors(to_sympy(m).nullspace())


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(m, data):
    b = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    rhs = to_sympy(Matrix([[v] for v in b]))
    augmented, pivots = to_sympy(m).row_join(rhs).rref()
    got = solve(m, b)
    if m.cols in pivots:
        assert got is None
        return
    particular = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        particular[p] = to_fraction(augmented[r, m.cols])
    assert got == (tuple(particular),
                   to_vectors(to_sympy(m).nullspace()))


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_invert_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        with pytest.raises(SingularMatrixError):
            invert(m)
    else:
        assert invert(m) == to_matrix(s.inv())


def to_sparse(m: Matrix) -> SparseMatrix:
    return SparseMatrix([[(c, v) for c, v in enumerate(m.row(i)) if v]
                         for i in range(m.rows)], m.cols)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_sparse_input_matches_dense(m, data):
    # the symmetry systems reach the kernel as SparseMatrix; the dense
    # Matrix path is checked against sympy above
    s = to_sparse(m)
    assert (s.rows, s.cols) == (m.rows, m.cols)
    assert [s.row(i) for i in range(s.rows)] == \
        [m.row(i) for i in range(m.rows)]
    assert rank(s) == rank(m)
    assert nullspace(s) == nullspace(m)
    b = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    assert solve(s, b) == solve(m, b)
