"""Exact linear algebra over the rationals.

Every entry this module returns is a ``fractions.Fraction``, so results
are exact: a computed inverse really multiplies back to the identity, and
a nullspace vector really annihilates the matrix.

``rref``, ``rank``, ``invert``, ``nullspace`` and ``solve`` share one
elimination kernel, a sparse incremental Gauss-Jordan over rows stored as
``{column: value}`` maps (cf. LaMacchia and Odlyzko, "Solving large
sparse linear systems over finite fields", CRYPTO '90).  The systems this
package builds are tall and almost entirely zero, with many repeated
equations; stored sparsely, zero and repeated rows cost one cheap
reduction each and then drop out.  The kernel keeps its pivot rows fully
reduced after every insertion, so what it returns is the reduced row
echelon form of the row space.  That form is unique, whatever order the
rows arrive in, and kernels and solution sets are read off it in echelon
normal form; two runs (or two different call sites) can be compared with
plain equality.

The kernel is fraction-free, after Bareiss ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968): each input row is scaled by the lcm of its denominators and
divided by the gcd of the result, and a row is cleared at a column by
``d*row - f*pivot_row`` followed by division by its content, so every
pivot row is a primitive integer row with a positive lead and the only
division is an exact one.  Integer arithmetic is what makes this pay:
the symmetry systems have integer coefficients, and an ``int`` product
costs a small fraction of a ``Fraction`` one, which needs a gcd.  Rows
are divided by their leads only on the way out, into ``Fraction``
entries.  A column index (column -> pivot rows holding it) lets a new
pivot be cleared from just the rows that hold its column, instead of
from every pivot row.

Systems that are built sparse stay sparse: a :class:`SparseMatrix` holds
only the nonzero entries of each row, as ``(column, value)`` pairs, and is
accepted wherever a dense :class:`Matrix` is, with the same results.  The
kernel copies its rows into dicts either way, so a sparse system never
passes through a dense one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

Vector = tuple[Fraction, ...]
K = TypeVar("K", bound=Hashable)


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

    Each row is a sequence of ``(column, value)`` pairs with ``int`` or
    ``Fraction`` values, sorted by column, with no zero value and no
    repeated column.  ``rows`` and ``cols`` are the shape; :meth:`row`
    expands one row into a dense vector of Fractions on demand.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self,
                 rows: Sequence[Sequence[tuple[int, int | Fraction]]],
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
            out[c] = frac(v)
        return tuple(out)


SparseRow = dict[int, int]


def _sparse_rows(m: Matrix | SparseMatrix
                 ) -> list[dict[int, int | Fraction]]:
    """The nonzero entries of each row as ``{column: value}`` maps."""
    if isinstance(m, SparseMatrix):
        return [dict(row) for row in m._data]
    return [{c: v for c, v in enumerate(m.row(i)) if v} for i in range(m.rows)]


def _integral(values: Mapping[K, int | Fraction]) -> tuple[dict[K, int], int]:
    """``values`` times the lcm ``D`` of their denominators, and ``D``.

    The scaled values are ints; zero values are dropped.
    """
    den = lcm(*[v.denominator for v in values.values()])
    return {key: v.numerator * (den // v.denominator)
            for key, v in values.items() if v}, den


def _primitive(row: Mapping[int, int | Fraction]) -> SparseRow:
    """``row`` scaled to coprime integers with the same span.

    The row is scaled to integers by :func:`_integral` and divided by the
    gcd of the result, its content.
    """
    ints, _ = _integral(row)
    g = gcd(*ints.values())
    if g > 1:
        return {c: v // g for c, v in ints.items()}
    return ints


class _Echelon:
    """Reduced row echelon form over primitive integer rows.

    ``pivots`` maps each pivot column to its row: coprime integers with a
    positive lead at that column, nothing left of it, and 0 at every other
    pivot column; dividing the row by its lead gives the row of the
    rational RREF.  ``holders`` maps a column to the pivot columns whose
    rows hold a nonzero there (the leads themselves left out).
    """

    __slots__ = ("pivots", "holders")

    def __init__(self) -> None:
        self.pivots: dict[int, SparseRow] = {}
        self.holders: dict[int, set[int]] = {}


def _reduce(rows: Iterable[Mapping[int, int | Fraction]]) -> _Echelon:
    """Insert every row of ``rows`` into an empty :class:`_Echelon`."""
    echelon = _Echelon()
    for row in rows:
        _insert(echelon, row)
    return echelon


def _insert(echelon: _Echelon, row: Mapping[int, int | Fraction]) -> bool:
    """One step of :func:`_reduce`: add ``row`` (not modified) to ``echelon``.

    The row, made primitive, is cleared at every pivot column it holds;
    what is left, if anything, gets a positive lead at its leading column,
    which becomes a new pivot and is cleared from the pivot rows that the
    column index lists as holding it.  Returns True iff the row was
    independent of the pivot rows, that is, iff it added a pivot.
    """
    pivots, holders = echelon.pivots, echelon.holders
    row = _primitive(row)
    for c in [c for c in row if c in pivots]:
        _eliminate(row, c, pivots[c])
    if not row:
        return False
    lead = min(row)
    if row[lead] < 0:
        for c in row:
            row[c] = -row[c]
    for p in holders.pop(lead, ()):
        other = pivots[p]
        _eliminate(other, lead, row)
        # only the new row's columns can have changed in ``other``
        for c in row:
            if c in other:
                holders.setdefault(c, set()).add(p)
            elif c in holders:
                holders[c].discard(p)
    for c in row:
        if c != lead:
            holders.setdefault(c, set()).add(lead)
    pivots[lead] = row
    return True


def _eliminate(row: SparseRow, c: int, pivot_row: SparseRow) -> None:
    """Clear column ``c`` of ``row`` in place with ``pivot_row``.

    ``row`` becomes ``d*row - f*pivot_row`` for the smallest positive
    ``d`` and matching ``f`` that cancel at ``c`` (``pivot_row[c] > 0``),
    divided by its content; entries that vanish are dropped.  Every
    division is exact.
    """
    d, f = pivot_row[c], row[c]
    g = gcd(d, f)
    d, f = d // g, f // g
    if d != 1:
        for k in row:
            row[k] *= d
    for k, v in pivot_row.items():
        value = row.get(k, 0) - f * v
        if value:
            row[k] = value
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _kernel(echelon: _Echelon, n_cols: int) -> list[Vector]:
    """Echelon-normalized basis of the kernel, read off a reduction."""
    pivots = echelon.pivots
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for p in echelon.holders.get(f, ()):
            row = pivots[p]
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def rref(m: Matrix | SparseMatrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of ``m`` and its pivot columns."""
    pivots = _reduce(_sparse_rows(m)).pivots
    order = sorted(pivots)
    zero = Fraction(0)
    data = []
    for p in order:
        row = pivots[p]
        data.append([Fraction(row[c], row[p]) if c in row else zero
                     for c in range(m.cols)])
    data += [[zero] * m.cols for _ in range(m.rows - len(order))]
    return Matrix(data), order


def rank(m: Matrix | SparseMatrix) -> int:
    return len(_reduce(_sparse_rows(m)).pivots)


def invert(m: Matrix | SparseMatrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises :class:`SingularMatrixError` when the determinant is zero.
    """
    if m.rows != m.cols:
        raise ValueError(
            f"cannot invert non-square matrix ({m.rows}, {m.cols})")
    n = m.rows
    rows = _sparse_rows(m)
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots = _reduce(rows).pivots
    if any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    zero = Fraction(0)
    out = []
    for i in range(n):
        row, lead = pivots[i], pivots[i][i]
        out.append([Fraction(row[n + j], lead) if n + j in row else zero
                    for j in range(n)])
    return Matrix(out)


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
    echelon = _reduce(rows)
    pivots = echelon.pivots
    if n_cols in pivots:
        return None  # a pivot in the augmented column: 0 = 1
    x = [Fraction(0)] * n_cols
    for p in echelon.holders.get(n_cols, ()):
        row = pivots[p]
        x[p] = Fraction(row[n_cols], row[p])
    return tuple(x), _kernel(echelon, n_cols)
