"""The elimination kernel against sympy, an implementation it shares nothing with.

Matrices are drawn like the symmetry systems: mostly zeros, rational
entries, and often tall, with repeated and all-zero rows in any order.
Sparse matrices also mix ``int`` and ``Fraction`` values, with large
coprime denominators, since the kernel scales its rows to integers.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag.linalg import (Matrix, SingularMatrixError, _Echelon, _insert,
                             _integral, _primitive, _reduce, invert,
                             nullspace, rank, rref, solve)

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


def sympy_solve(m: Matrix, b):
    """What :func:`solve` should return, read off sympy's augmented RREF."""
    rhs = to_sympy(Matrix([[v] for v in b]))
    augmented, pivots = to_sympy(m).row_join(rhs).rref()
    if m.cols in pivots:
        return None
    particular = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        particular[p] = to_fraction(augmented[r, m.cols])
    return tuple(particular), to_vectors(to_sympy(m).nullspace())


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(m, data):
    b = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    assert solve(m, b) == sympy_solve(m, b)


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_invert_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        with pytest.raises(SingularMatrixError):
            invert(m)
    else:
        assert invert(m) == to_matrix(s.inv())


def to_sparse(m: Matrix) -> Matrix:
    return Matrix.sparse([[(c, v) for c, v in enumerate(m.row(i)) if v]
                          for i in range(m.rows)], m.cols)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_sparse_input_matches_dense(m, data):
    # the symmetry systems reach the kernel through Matrix.sparse; the
    # dense constructor is checked against sympy above
    s = to_sparse(m)
    assert (s.rows, s.cols) == (m.rows, m.cols)
    assert [s.row(i) for i in range(s.rows)] == \
        [m.row(i) for i in range(m.rows)]
    assert rank(s) == rank(m)
    assert nullspace(s) == nullspace(m)
    b = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    assert solve(s, b) == solve(m, b)


# primes just under 10**6, so that a row's denominators are coprime and
# their lcm is large
BIG_PRIMES = (999983, 999979, 999961, 999959, 999953)
mixed_values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
              st.integers(min_value=1, max_value=10**6)),
    st.builds(Fraction, st.integers(min_value=-7, max_value=7),
              st.sampled_from(BIG_PRIMES)),
).filter(bool)


@st.composite
def mixed_rows(draw, c):
    """One sparse row over ``c`` columns: ``int`` or ``Fraction`` values."""
    columns = draw(st.sets(st.integers(min_value=0, max_value=c - 1),
                           max_size=c))
    return [(col, draw(mixed_values)) for col in sorted(columns)]


@st.composite
def mixed_sparse(draw, max_rows=5, max_cols=6, square=False):
    """Drawn rows with duplicates and empty rows, shuffled, as a Matrix."""
    c = draw(st.integers(min_value=1, max_value=max_cols))
    if square:
        rows = draw(st.lists(mixed_rows(c), min_size=c, max_size=c))
    else:
        base = draw(st.lists(mixed_rows(c), min_size=1, max_size=max_rows))
        repeats = draw(st.lists(st.sampled_from(base),
                                max_size=2 * len(base)))
        zeros = [[]] * draw(st.integers(min_value=0, max_value=2))
        rows = draw(st.permutations(base + repeats + zeros))
    return Matrix.sparse(rows, c)


def all_fractions(*vectors) -> bool:
    return all(type(v) is Fraction for vec in vectors for v in vec)


@settings(max_examples=80, deadline=None)
@given(mixed_sparse(), st.data())
def test_mixed_sparse_input_matches_sympy(s, data):
    expected, pivots = to_sympy(s).rref()
    reduced, got_pivots = rref(s)
    assert (reduced, got_pivots) == (to_matrix(expected), list(pivots))
    assert all_fractions(*(reduced.row(i) for i in range(reduced.rows)))
    assert rank(s) == len(pivots)
    kernel = nullspace(s)
    assert kernel == to_vectors(to_sympy(s).nullspace())
    assert all_fractions(*kernel)
    b = data.draw(st.lists(st.one_of(st.just(0), mixed_values),
                           min_size=s.rows, max_size=s.rows))
    got = solve(s, b)
    assert got == sympy_solve(s, b)
    if got is not None:
        assert all_fractions(got[0], *got[1])


@settings(max_examples=80, deadline=None)
@given(mixed_sparse(square=True))
def test_mixed_sparse_invert_matches_sympy(s):
    m = to_sympy(s)
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            invert(s)
    else:
        inverse = invert(s)
        assert inverse == to_matrix(m.inv())
        assert all_fractions(*(inverse.row(i) for i in range(inverse.rows)))


@settings(max_examples=80, deadline=None)
@given(mixed_sparse())
def test_kernel_rows_are_primitive_and_indexed(s):
    """The invariants of the fraction-free reduction itself.

    Every pivot row is a primitive integer row (content 1) with a positive
    lead at its pivot column, nothing left of it and nothing at another
    pivot column; the column index lists exactly the pivot rows holding
    each non-pivot column.  The outputs checked against sympy would not
    notice a row left unreduced by its content or with a negative lead.
    """
    echelon = _reduce(map(dict, s._data))
    pivots = echelon.pivots
    for p, row in pivots.items():
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not any(c in pivots for c in row if c != p)
    expected = {}
    for p, row in pivots.items():
        for c in row:
            if c != p:
                expected.setdefault(c, set()).add(p)
    assert {c: h for c, h in echelon.holders.items() if h} == expected


def reduce_in_given_order(rows) -> _Echelon:
    """Every row inserted in the order given, with no sort by lead; the
    kernel owns what it is given, so it gets copies."""
    echelon = _Echelon()
    for row in rows:
        _insert(echelon, dict(row))
    return echelon


@settings(max_examples=80, deadline=None)
@given(mixed_sparse(), st.data())
def test_insertion_order_changes_no_pivot_row(s, data):
    """``_reduce`` inserts by decreasing lead; the reduced row echelon
    form is unique, so any order gives the same pivot rows and index."""
    rows = data.draw(st.permutations(s._data))
    echelon = _reduce(map(dict, rows))
    reference = reduce_in_given_order(rows)
    assert echelon.pivots == reference.pivots
    assert {c: h for c, h in echelon.holders.items() if h} == \
        {c: h for c, h in reference.holders.items() if h}


def primitive_through_integral(row) -> dict:
    """A row made primitive by scaling to integers first, whatever its
    values."""
    ints, _ = _integral(row)
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


int_values = st.integers(min_value=-60, max_value=60)
integral_fractions = st.builds(Fraction, int_values)


@st.composite
def rows_to_make_primitive(draw):
    """Rows of ints, of integral ``Fraction``s, or of both mixed with
    proper fractions; zero values included."""
    values = draw(st.sampled_from((
        int_values, integral_fractions,
        st.one_of(int_values, integral_fractions, mixed_values))))
    return draw(st.dictionaries(st.integers(min_value=0, max_value=8),
                                values, max_size=6))


@settings(max_examples=200, deadline=None)
@given(rows_to_make_primitive())
def test_primitive_equals_the_integral_path(row):
    """The same primitive row, as ints: an int row made primitive in
    place, any other in a new dict with ``row`` left as it was."""
    given_row = dict(row)
    got = _primitive(row)
    assert got == primitive_through_integral(given_row)
    assert all(type(v) is int and v for v in got.values())
    if all(type(v) is int for v in given_row.values()):
        assert got is row
    else:
        assert got is not row and row == given_row


int_sparse = st.builds(
    Matrix.sparse,
    st.lists(st.dictionaries(st.integers(min_value=0, max_value=3),
                             st.integers(min_value=-6, max_value=6),
                             max_size=4).map(lambda row: row.items()),
             min_size=1, max_size=6),
    st.just(4))


@settings(max_examples=80, deadline=None)
@given(st.one_of(mixed_sparse(), mixed_sparse(square=True), int_sparse),
       st.data())
def test_public_functions_leave_the_matrix_unchanged(s, data):
    """The kernel owns the rows it is given and reduces int rows in
    place, so ``rref``, ``rank``, ``invert``, ``nullspace`` and
    ``solve`` hand it copies: the matrix equals a copy taken before."""
    before = Matrix.sparse([row.items() for row in s._data], s.cols)
    rref(s)
    rank(s)
    nullspace(s)
    solve(s, data.draw(st.lists(st.one_of(st.just(0), mixed_values),
                                min_size=s.rows, max_size=s.rows)))
    if s.rows == s.cols:
        try:
            invert(s)
        except SingularMatrixError:
            pass
    assert s == before
    assert s._data == before._data
