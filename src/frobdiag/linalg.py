"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so results are
exact: a computed inverse really multiplies back to the identity, and a
nullspace vector really annihilates the matrix.

``rref``, ``rank``, ``invert``, ``nullspace`` and ``solve`` share one
elimination kernel, a sparse incremental Gauss-Jordan over rows stored as
``{column: Fraction}`` maps (cf. LaMacchia and Odlyzko, "Solving large
sparse linear systems over finite fields", CRYPTO '90).  The systems this
package builds are tall and almost entirely zero, with many repeated
equations; stored sparsely, zero and repeated rows cost one cheap
reduction each and then drop out.  The kernel keeps its pivot rows fully
reduced after every insertion, so what it returns is the reduced row
echelon form of the row space.  That form is unique, whatever order the
rows arrive in, and kernels and solution sets are read off it in echelon
normal form; two runs (or two different call sites) can be compared with
plain equality.

Systems that are built sparse stay sparse: a :class:`SparseMatrix` holds
only the nonzero entries of each row, as ``(column, value)`` pairs, and is
accepted by ``rref``, ``rank``, ``nullspace`` and ``solve`` wherever a dense
:class:`Matrix` is, with the same results.  The kernel copies its rows into
dicts either way, so a sparse system never passes through a dense one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class SingularMatrixError(ValueError):
    """Raised when a square matrix has no inverse."""


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(frac(v) for v in values)


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Sequence[Sequence[int | str | Fraction]]):
        data = tuple(tuple(frac(v) for v in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
        else:
            width = 0
        self.rows = len(data)
        self.cols = width
        self._data = data

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def from_rows(rows: Sequence[Vector]) -> "Matrix":
        return Matrix([list(r) for r in rows])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(v == 0 for row in self._data for v in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __neg__(self) -> "Matrix":
        return Matrix([[-v for v in row] for row in self._data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc += self._data[i][k] * other._data[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum((row[k] * v[k] for k in range(self.cols)),
                         Fraction(0)) for row in self._data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


class SparseMatrix:
    """Matrix given by the nonzero entries of its rows.

    Each row is a sequence of ``(column, value)`` pairs with Fraction
    values, sorted by column, with no zero value and no repeated column.
    ``rows`` and ``cols`` are the shape; :meth:`row` expands one row into a
    dense vector on demand.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: Sequence[Sequence[tuple[int, Fraction]]],
                 cols: int):
        data = tuple(tuple(row) for row in rows)
        if any(not 0 <= c < cols for row in data for c, _ in row):
            raise ValueError(f"column index outside 0..{cols - 1}")
        self.rows = len(data)
        self.cols = cols
        self._data = data

    def row(self, i: int) -> Vector:
        out = [Fraction(0)] * self.cols
        for c, v in self._data[i]:
            out[c] = v
        return tuple(out)


SparseRow = dict[int, Fraction]


def _sparse_rows(m: Matrix | SparseMatrix) -> list[SparseRow]:
    """Fresh ``{column: value}`` copies of the rows, for :func:`_reduce`."""
    if isinstance(m, SparseMatrix):
        return [dict(row) for row in m._data]
    return [{c: v for c, v in enumerate(m.row(i)) if v} for i in range(m.rows)]


def _reduce(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Sparse incremental Gauss-Jordan: the reduced row echelon form.

    Returns ``{pivot column: row}``.  Each pivot row holds 1 at its pivot,
    0 at every other pivot column, and nothing left of its pivot.  An
    inserted row is first cleared at every pivot column; what is left, if
    anything, is normalized at its leading column, which becomes a new
    pivot and is cleared from the earlier pivot rows.  Zero, duplicate and
    dependent rows reduce to nothing and drop out.  The input rows are
    consumed.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def _insert(pivots: dict[int, SparseRow], row: SparseRow) -> bool:
    """One step of :func:`_reduce`: add ``row`` (consumed) to ``pivots``.

    Returns True iff the row was independent of the pivot rows, that is,
    iff it added a pivot.
    """
    for c in [c for c in row if c in pivots]:
        _subtract(row, row[c], pivots[c])
    if not row:
        return False
    lead = min(row)
    inv = 1 / row[lead]
    row = {c: v * inv for c, v in row.items()}
    for other in pivots.values():
        f = other.get(lead)
        if f is not None:
            _subtract(other, f, row)
    pivots[lead] = row
    return True


def _subtract(row: SparseRow, f: Fraction, pivot_row: SparseRow) -> None:
    """``row -= f * pivot_row`` in place, dropping entries that vanish."""
    for c, v in pivot_row.items():
        value = row.get(c, 0) - f * v
        if value:
            row[c] = value
        else:
            del row[c]


def _kernel(pivots: dict[int, SparseRow], n_cols: int) -> list[Vector]:
    """Echelon-normalized basis of the kernel, read off a reduction."""
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for p, row in pivots.items():
            if f in row:
                v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def rref(m: Matrix | SparseMatrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of ``m`` and its pivot columns."""
    pivots = _reduce(_sparse_rows(m))
    order = sorted(pivots)
    zero = Fraction(0)
    data = [[pivots[p].get(c, zero) for c in range(m.cols)] for p in order]
    data += [[zero] * m.cols for _ in range(m.rows - len(order))]
    return Matrix(data), order


def rank(m: Matrix | SparseMatrix) -> int:
    return len(_reduce(_sparse_rows(m)))


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises :class:`SingularMatrixError` when the determinant is zero.
    """
    if not m.is_square():
        raise ValueError(f"cannot invert non-square matrix {m.shape}")
    n = m.rows
    rows = _sparse_rows(m)
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
    pivots = _reduce(rows)
    if any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    zero = Fraction(0)
    return Matrix([[pivots[i].get(n + j, zero) for j in range(n)]
                   for i in range(n)])


def nullspace(m: Matrix | SparseMatrix) -> list[Vector]:
    """Echelon-normalized basis of ``{v : m @ v = 0}``.

    Each free column yields one basis vector carrying 1 at that column and
    0 at every other free column, listed in increasing column order.  The
    basis is therefore canonical: equal spaces give equal output.
    """
    return _kernel(_reduce(_sparse_rows(m)), m.cols)


def solve(m: Matrix | SparseMatrix, b: Sequence[Fraction]
          ) -> tuple[Vector, list[Vector]] | None:
    """Solve ``m @ x = b`` exactly.

    Returns ``(particular, kernel_basis)`` with free variables of the
    particular solution pinned to zero, or ``None`` when the system is
    inconsistent.  Both come from one reduction of the augmented matrix:
    its pivot rows, restricted to the columns of ``m``, are the reduced
    echelon form of ``m`` itself.
    """
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != rows {m.rows}")
    n_cols = m.cols
    rows = _sparse_rows(m)
    for row, value in zip(rows, b):
        value = frac(value)
        if value:
            row[n_cols] = value
    pivots = _reduce(rows)
    if n_cols in pivots:
        return None  # a pivot in the augmented column: 0 = 1
    x = [Fraction(0)] * n_cols
    for p, row in pivots.items():
        x[p] = row.get(n_cols, Fraction(0))
    return tuple(x), _kernel(pivots, n_cols)
