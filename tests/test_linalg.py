from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from frobdiag import linalg
from frobdiag.linalg import (Matrix, SingularMatrixError, frac, invert,
                             nullspace, rank, rref, solve)
from strategies import apply


def vector(values) -> tuple[Fraction, ...]:
    return tuple(frac(v) for v in values)


def det_cofactor(m: Matrix) -> Fraction:
    """Independent determinant oracle: Laplace expansion, no elimination."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = Matrix([[m[i, c] for c in range(n) if c != j]
                        for i in range(1, n)])
        sign = -1 if j % 2 else 1
        total += sign * m[0, j] * det_cofactor(minor)
    return total


def antidiagonal_ones(n: int) -> Matrix:
    return Matrix([[Fraction(int(i + j == n - 1)) for j in range(n)]
                   for i in range(n)])


class TestFrac:
    def test_accepts_int_str_fraction(self):
        assert frac(3) == Fraction(3)
        assert frac("-3/2") == Fraction(-3, 2)
        assert frac(Fraction(1, 7)) == Fraction(1, 7)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            frac(0.5)

    def test_lowest_terms_cross_multiplication(self):
        # reduced representative equals any expansion under cross products
        a = Fraction(6, 4)
        b = Fraction(3, 2)
        assert a == b
        assert a.numerator * b.denominator == b.numerator * a.denominator


class TestMatrixBasics:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_product_shapes(self):
        a = Matrix([[1, 2, 3]])
        b = Matrix([[1], [1], [1]])
        assert (a @ b)[0, 0] == 6
        with pytest.raises(ValueError):
            b @ b

    def test_apply(self):
        m = Matrix([[1, 2], [3, 4]])
        assert apply(m, vector([1, 1])) == vector([3, 7])


class TestSparseConstructor:
    def test_row_is_dense_on_demand(self):
        m = Matrix.sparse([((0, Fraction(2)), (2, Fraction(-1))), ()], 3)
        assert (m.rows, m.cols) == (2, 3)
        assert m.row(0) == vector([2, 0, -1])
        assert m.row(1) == vector([0, 0, 0])

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            Matrix.sparse([((3, Fraction(1)),)], 3)

    def test_no_rows_keeps_its_width(self):
        m = Matrix.sparse([], 2)
        assert nullspace(m) == [vector([1, 0]), vector([0, 1])]
        assert solve(m, []) == (vector([0, 0]), nullspace(m))


mixed_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def dense_lists(draw, max_n=4):
    """Dense rows with int and Fraction entries, zero rows, any shape."""
    r = draw(st.integers(min_value=0, max_value=max_n))
    c = draw(st.integers(min_value=0, max_value=max_n))
    row = st.one_of(st.lists(mixed_entries, min_size=c, max_size=c),
                    st.just([0] * c))
    return draw(st.lists(row, min_size=r, max_size=r)), c


class TestOneMatrixType:
    @settings(max_examples=100, deadline=None)
    @given(dense_lists())
    def test_dense_and_sparse_constructors_agree(self, drawn):
        entries, width = drawn
        nonzeros = [[(j, v) for j, v in enumerate(row) if v]
                    for row in entries]
        dense = Matrix(entries)
        if not entries:
            # dense rows give a matrix with no rows the shape (0, 0)
            width = 0
        sparse = Matrix.sparse(nonzeros, width)
        assert dense == sparse and hash(dense) == hash(sparse)
        assert sparse.shape == dense.shape
        assert repr(sparse) == repr(dense)
        expected = [tuple(Fraction(v) for v in row) for row in entries]
        for m in (dense, sparse):
            rows = [m.row(i) for i in range(m.rows)]
            items = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
            terms = list(m.terms())
            assert rows == expected
            assert items == [v for row in expected for v in row]
            assert terms == [((i, j), v) for i, row in enumerate(expected)
                             for j, v in enumerate(row) if v]
            assert all(type(v) is Fraction
                       for v in (*items, *(v for _, v in terms),
                                 *(v for vec in rows for v in vec)))

    def test_index_errors(self):
        for m in (Matrix([[1, 0], [0, 2]]),
                  Matrix.sparse([((0, 1),), ((1, 2),)], 2)):
            assert m[-1, -1] == 2
            for key in ((2, 0), (0, 2), (-3, 0), (0, -3)):
                with pytest.raises(IndexError):
                    m[key]


class TestInvert:
    def test_identity(self):
        assert invert(Matrix.identity(3)) == Matrix.identity(3)

    def test_antidiagonal_ones_is_self_inverse(self):
        m = antidiagonal_ones(3)
        inv = invert(m)
        assert inv == m
        assert m @ inv == Matrix.identity(3)

    def test_swap_matrix_is_self_inverse(self):
        m = Matrix([[0, 1], [1, 0]])
        assert invert(m) == m

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(Matrix([[1, 2], [2, 4]]))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            invert(Matrix([[1, 2]]))

    def test_rational_entries(self):
        m = Matrix([["1/2", "1/3"], ["1/4", "1/5"]])
        assert m @ invert(m) == Matrix.identity(2)


class TestNullspace:
    def test_identity_trivial_kernel(self):
        assert nullspace(Matrix.identity(2)) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace(Matrix.zeros(2, 2))
        assert basis == [vector([1, 0]), vector([0, 1])]

    def test_matrix_with_no_rows_keeps_its_width(self):
        m = Matrix.zeros(0, 5)
        assert m.shape == (0, 5)
        assert nullspace(m) == [tuple(Fraction(int(i == j)) for i in range(5))
                                for j in range(5)]
        assert m == Matrix.sparse([], 5)
        assert m != Matrix.zeros(0, 4) and m != Matrix([])

    def test_single_row(self):
        assert nullspace(Matrix([[1, 1]])) == [vector([-1, 1])]

    def test_echelon_normal_form_is_deterministic(self):
        m = Matrix([[1, 2, 3], [2, 4, 6]])
        first = nullspace(m)
        again = nullspace(Matrix([[1, 2, 3], [2, 4, 6]]))
        assert first == again
        for v in first:
            assert apply(m, v) == vector([0, 0])


class TestSolve:
    def test_identity_system(self):
        got = solve(Matrix.identity(2), vector([3, 4]))
        assert got == (vector([3, 4]), [])

    def test_underdetermined(self):
        got = solve(Matrix([[1, 1]]), vector([2]))
        assert got == (vector([2, 0]), [vector([-1, 1])])

    def test_inconsistent_is_none(self):
        assert solve(Matrix([[0]]), vector([1])) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve(Matrix.identity(2), vector([1]))


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=n, max_size=n))
    return Matrix(rows)


@st.composite
def rect_matrices(draw, max_n=4):
    r = draw(st.integers(min_value=1, max_value=max_n))
    c = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(
        st.lists(small_entries, min_size=c, max_size=c),
        min_size=r, max_size=r))
    return Matrix(rows)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_invert_roundtrip(self, m):
        assume(det_cofactor(m) != 0)
        inv = invert(m)
        assert m @ inv == Matrix.identity(m.rows)
        assert inv @ m == Matrix.identity(m.rows)
        assert invert(inv) == m

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_singular_iff_zero_determinant(self, m):
        if det_cofactor(m) == 0:
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            invert(m)

    @settings(max_examples=80, deadline=None)
    @given(rect_matrices())
    def test_rank_nullity(self, m):
        kernel = nullspace(m)
        assert rank(m) + len(kernel) == m.cols
        zero = vector([0] * m.rows)
        for v in kernel:
            assert apply(m, v) == zero

    @settings(max_examples=60, deadline=None)
    @given(rect_matrices(), st.data())
    def test_solve_consistent_systems(self, m, data):
        x = vector(data.draw(st.lists(small_entries, min_size=m.cols,
                                      max_size=m.cols)))
        b = apply(m, x)
        got = solve(m, b)
        assert got is not None
        particular, kernel = got
        assert apply(m, particular) == b
        # full solution set: particular + span(kernel) contains x
        diff = tuple(a - b_ for a, b_ in zip(x, particular))
        span = Matrix(kernel) if kernel else None
        if span is None:
            assert all(v == 0 for v in diff)
        else:
            aug = Matrix(list(kernel) + [diff])
            assert rank(aug) == rank(span)

    def test_rref_idempotent(self):
        m = Matrix([[2, 4], [1, 3]])
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert reduced == again and pivots == pivots2


class TestEliminationOrder:
    def test_cp_graded_system_is_not_cubic(self, invoke, monkeypatch):
        # the graded system of cp:n is chains w[i, j+1] - w[i+1, j]; rows
        # inserted by decreasing lead never clear a pivot upward, so the
        # 10,300 eliminations of cp:100 stay under 2 n**2, where clearing
        # each new pivot from the earlier rows of its chain took 176,950
        n, calls = 100, []
        eliminate = linalg._eliminate

        def counted(row, c, pivot_row):
            calls.append(c)
            return eliminate(row, c, pivot_row)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        code, _, err = invoke("diag", f"cp:{n}", "--mode", "graded")
        assert (code, err) == (0, "")
        assert 0 < len(calls) <= 2 * n * n
