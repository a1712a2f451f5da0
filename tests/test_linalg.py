from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from frobdiag import boundary, linalg
from frobdiag.catalog import resolve
from frobdiag.diagonal import _symmetry_system
from frobdiag.linalg import (Matrix, SingularMatrixError, frac, invert,
                             nullspace, rank, rref, solve)
from strategies import (apply, echelon_of, equations, inserted_one_at_a_time,
                        validated)


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


class TestUpwardClearing:
    """A pivot row cleared upward by a new pivot is divided by its
    content again, so that it stays primitive."""

    def test_one_term_row_deletes_and_divides(self):
        echelon = linalg._Echelon()
        assert linalg._insert(echelon, {0: 2, 1: 1, 2: 4})
        assert linalg._insert(echelon, {1: -3})
        assert echelon.pivots == {0: {0: 1, 2: 2}, 1: {1: 1}}
        assert {c: h for c, h in echelon.holders.items() if h} == {2: {0}}

    def test_several_term_row_divides(self):
        echelon = linalg._Echelon()
        assert linalg._insert(echelon, {0: 2, 1: 1, 2: 1})
        assert linalg._insert(echelon, {1: 3, 2: 3})
        assert echelon.pivots == {0: {0: 1}, 1: {1: 1, 2: 1}}
        assert {c: h for c, h in echelon.holders.items() if h} == {2: {1}}


class TestZeroColumns:
    """``_reduce``'s ``zeros``: columns known to be 0, each standing for
    the row ``{c: 1}``, settled before any row is visited."""

    @staticmethod
    def counted(monkeypatch, name) -> list:
        """The calls of ``linalg.<name>`` from now on, as their row
        arguments, copied before the kernel changes them in place."""
        calls, function = [], getattr(linalg, name)

        def wrapper(*args):
            calls.append([dict(a) for a in args if type(a) is dict])
            return function(*args)

        monkeypatch.setattr(linalg, name, wrapper)
        return calls

    def test_zero_column_is_deleted_from_the_rows(self, monkeypatch):
        inserted = self.counted(monkeypatch, "_insert")
        echelon = linalg._reduce([{0: 2, 1: 3, 2: 4}, {1: 5, 3: -5}],
                                 zeros=[1])
        # {1: 5, 3: -5} is left as {3: -5}, so column 3 is settled as 0
        # as well, and only the rest of the first row is inserted
        assert inserted == [[{0: 2, 2: 4}]]
        assert echelon.pivots == {0: {0: 1, 2: 2}, 1: {1: 1}, 3: {3: 1}}
        assert echelon_of(echelon) == echelon_of(
            inserted_one_at_a_time([{0: 2, 1: 3, 2: 4}, {1: 5, 3: -5},
                                    {1: 1}]))

    def test_chain_ending_in_a_zero_column_needs_no_elimination(
            self, monkeypatch):
        eliminated = self.counted(monkeypatch, "_eliminate")
        chain = [{2: 1, 3: -1}, {1: 1, 2: -1}, {0: 1, 1: -1}]
        for zero in (0, 3):
            for step in (1, -1):
                echelon = linalg._reduce([dict(r) for r in chain[::step]],
                                         zeros=[zero])
                assert echelon.pivots == {c: {c: 1} for c in range(4)}
                assert eliminated == []

    def test_zero_column_the_echelon_holds_goes_to_insert(self, monkeypatch):
        # column 4 is a pivot of the earlier echelon, column 5 sits in
        # its pivot row: each {c: 1} is inserted, which clears c from
        # that row, instead of being put among the pivots as it is
        def earlier():
            return inserted_one_at_a_time([{4: 1, 5: 2, 7: 3}])

        inserted = self.counted(monkeypatch, "_insert")
        for zero, pivot_4 in ((4, {4: 1}), (5, {4: 1, 7: 3})):
            inserted.clear()
            echelon = linalg._reduce([{6: 1, 8: 1}], earlier(),
                                     zeros=[zero, 8])
            assert [{zero: 1}] in inserted
            assert echelon.pivots.get(4) == pivot_4
            assert echelon_of(echelon) == echelon_of(inserted_one_at_a_time(
                [{6: 1, 8: 1}, {zero: 1}, {8: 1}], earlier()))


class TestEliminationOrder:
    def test_cp_graded_system_is_not_cubic(self, invoke, monkeypatch):
        # the graded system of cp:n is chains w[i, j+1] - w[i+1, j], each
        # ended by a one-term row or a pin, so ``_reduce`` settles nearly
        # all of it as zero unknowns before any elimination, and a
        # one-term pivot only deletes its column; ``_eliminate`` counts
        # the eliminations against a pivot row of several terms
        n, calls = 100, []
        eliminate = linalg._eliminate

        def counted(row, c, pivot_row):
            calls.append(c)
            return eliminate(row, c, pivot_row)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        code, _, err = invoke("diag", f"cp:{n}", "--mode", "graded")
        assert (code, err) == (0, "")
        assert 0 < len(calls) <= 2 * n * n
        # the kernel alone on the chains: rows inserted by decreasing lead
        # never clear a pivot upward, so its 9,801 eliminations stay under
        # 2 n**2, where clearing each new pivot from the earlier rows of
        # its chain took 328,350
        ring = resolve(f"cp:{n}").payload
        twin = validated(ring)
        rows, _ = _symmetry_system(twin)
        # validated, the system probes h, the one generator, alone; a
        # fresh copy probes every basis element, so in its middle block
        # it has h's equations, rows and zero columns, and more
        probed = equations(*_symmetry_system(twin, 2 * n))
        every = equations(*_symmetry_system(ring, 2 * n))
        assert probed <= every and probed.total() < every.total()
        calls.clear()
        linalg._reduce(row for row in rows if len(row) == 2)
        assert 0 < len(calls) <= 2 * n * n

    def test_settling_visits_stay_linear(self, invoke, monkeypatch):
        # a pair pins only the top row of its class, so the zeros of its
        # graded system spread along chains of two-term rows, found at
        # the far end of each; settling them with one more pass over the
        # kept rows per zero found late made 171,901 row visits on
        # cylinder:cp:100 against 20,202 nonzeros.  A visit asks the row
        # its length once; ``_insert`` asks too, and is not counted
        visits, nonzeros, inserting = [0], [0], [False]

        class Counted(dict):
            def __len__(self):
                visits[0] += not inserting[0]
                return super().__len__()

        build, insert = boundary._relative_symmetry_system, linalg._insert

        def counted_build(*args):
            rows, zeros = build(*args)
            nonzeros[0] += sum(map(len, rows))
            return [Counted(row) for row in rows], zeros

        def uncounted_insert(echelon, row):
            inserting[0] = True
            try:
                return insert(echelon, row)
            finally:
                inserting[0] = False

        monkeypatch.setattr(boundary, "_relative_symmetry_system",
                            counted_build)
        monkeypatch.setattr(linalg, "_insert", uncounted_insert)
        code, _, err = invoke("pair", "cylinder:cp:100", "--mode", "graded")
        assert (code, err) == (0, "")
        assert 0 < visits[0] <= nonzeros[0]
