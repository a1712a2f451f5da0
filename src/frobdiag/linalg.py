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

Since the order is free, a reduction inserts its rows by decreasing
leading column.  A pivot row holds nothing left of its lead, so a new
pivot left of every existing one is held by no earlier row and nothing
is cleared upward: the Gauss-Jordan back-substitution, which costs
about n**3/3 eliminations on the chains ``w[i, j+1] - w[i+1, j]`` of a
graded system when they arrive with increasing leads, does not occur.
Only a row whose leading entry is eliminated can land among the
existing pivots, and the column index below clears it from the rows
that hold its column, as it does for rows that callers insert one at a
time.

The kernel is fraction-free, after Bareiss ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968): an input row with a ``Fraction`` entry is scaled by the lcm of
its denominators, every row is divided by the gcd of its values, and a
row is cleared at a column by ``d*row - f*pivot_row`` followed by
division by its content, so every pivot row is a primitive integer row
with a positive lead and the only division is an exact one.  Integer
arithmetic is what makes this pay: the symmetry systems have integer
coefficients, and an ``int`` product costs a small fraction of a
``Fraction`` one, which needs a gcd.  Rows are divided by their leads
only on the way out, into ``Fraction`` entries.  A column index
(column -> pivot rows holding it) lets a new pivot be cleared from just
the rows that hold its column, instead of from every pivot row.

The kernel owns the rows it is given: an int row is made primitive,
reduced and kept as a pivot row in place.  The ``{column: int}`` rows
that :mod:`frobdiag.diagonal` builds for its symmetry systems, which
never become a :class:`Matrix`, go in as they are; a :class:`Matrix`,
which stores only the nonzero entries of each row as a ``{column:
value}`` map, hands the kernel copies, so it stays unchanged.  Results are
built the same way, from the nonzero entries of the pivot rows: kernel
vectors and particular solutions come off a reduction as sparse
``{column: Fraction}`` maps, and only the public :func:`nullspace` and
:func:`solve` make them dense tuples, at their edge.

A reduction can go on in an echelon that holds pivots already: a
block-diagonal system, such as a symmetry system split by total degree,
goes in one block at a time, each block's rows by decreasing lead.  No
pivot row of one block holds a column of another, so each block is
reduced as if alone, and the result is the reduced form of the whole.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

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


class Matrix:
    """Immutable matrix of Fractions that stores only its nonzero entries.

    Row ``i`` is held as a ``{column: value}`` map of its nonzero entries,
    with ``int`` or ``Fraction`` values; every read returns ``Fraction``s.
    ``Matrix(entries)`` takes dense rows, :meth:`sparse` the nonzero
    ``(column, value)`` pairs of each row, and :meth:`terms` gives the
    nonzero entries back.  No zero is stored, so equal matrices compare
    and hash equal whichever constructor built them.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Sequence[Sequence[int | str | Fraction]]):
        rows = list(entries)
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("rows have unequal lengths")
        self.rows = len(rows)
        self.cols = width
        self._data = tuple({c: v for c, v in enumerate(map(frac, row)) if v}
                           for row in rows)

    @staticmethod
    def sparse(rows: Iterable[Iterable[tuple[int, int | Fraction]]],
               cols: int) -> "Matrix":
        """Matrix of width ``cols`` whose rows have the given nonzero
        ``(column, value)`` pairs; zero values are dropped."""
        data = tuple({c: v for c, v in row if v} for row in rows)
        if any(not 0 <= c < cols for row in data for c in row):
            raise ValueError(f"column index outside 0..{cols - 1}")
        m = object.__new__(Matrix)
        m.rows, m.cols, m._data = len(data), cols, data
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.sparse([((i, 1),) for i in range(n)], n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.sparse([()] * rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """The nonzero entries as ``((i, j), value)``, in row-major order."""
        for i, row in enumerate(self._data):
            for j in sorted(row):
                yield (i, j), frac(row[j])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        row = self._data[i]
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return frac(row.get(j % self.cols, 0))

    def row(self, i: int) -> Vector:
        out = [Fraction(0)] * self.cols
        for c, v in self._data[i].items():
            out[c] = frac(v)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash(tuple(frozenset(row.items()) for row in self._data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.shape} @ {other.shape}")
        out = []
        for row in self._data:
            acc: dict[int, int | Fraction] = {}
            for k, a in row.items():
                for j, b in other._data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(acc.items())
        return Matrix.sparse(out, other.cols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


SparseRow = dict[int, int]


def _integral(values: Mapping[K, int | Fraction]) -> tuple[dict[K, int], int]:
    """``values`` times the lcm ``D`` of their denominators, and ``D``.

    The scaled values are ints; zero values are dropped.
    """
    den = lcm(*[v.denominator for v in values.values()])
    return {key: v.numerator * (den // v.denominator)
            for key, v in values.items() if v}, den


def _primitive(row: dict[int, int | Fraction]) -> SparseRow:
    """``row`` scaled to coprime integers with the same span; zero values
    are dropped.

    The row is divided by the gcd of its values, its content.  An int
    row is made primitive in place and returned, so the caller must own
    it; a row with a ``Fraction`` value (``gcd`` takes ints only) comes
    back as a new dict, scaled to integers by :func:`_integral` first.
    """
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction value
        ints, _ = _integral(row)
        g = gcd(*ints.values())
        if g > 1:
            return {c: v // g for c, v in ints.items()}
        return ints
    if g > 1:
        for c in row:
            row[c] //= g
    if 0 in row.values():
        for c in [c for c, v in row.items() if not v]:
            del row[c]
    return row


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


def _reduce(rows: Iterable[dict[int, int | Fraction]],
            echelon: _Echelon | None = None) -> _Echelon:
    """Insert the nonempty rows of ``rows`` into ``echelon`` (by default a
    new, empty :class:`_Echelon`), by decreasing leading column (stably),
    and return it.  The rows are the kernel's from then on (:func:`_insert`).

    A pivot row holds nothing left of its lead, so a new lead left of
    every existing one is held by no pivot row and :func:`_insert` has
    nothing to clear upward; only a row whose lead is eliminated can
    land among the existing leads.  The order changes no result: the
    reduced row echelon form of the row space is unique.
    """
    if echelon is None:
        echelon = _Echelon()
    for row in sorted(filter(None, rows), key=min, reverse=True):
        _insert(echelon, row)
    return echelon


def _insert(echelon: _Echelon, row: dict[int, int | Fraction]) -> bool:
    """One step of :func:`_reduce`: add ``row`` to ``echelon``.

    The kernel owns ``row`` from then on: an int row is changed in place
    (:func:`_primitive`) and may become a pivot row, so a caller passes a
    row it may give away, or a copy.

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
    division is exact.  A one-entry pivot row, ``{c: 1}``, only deletes
    ``row[c]``.
    """
    if len(pivot_row) == 1:
        del row[c]
    else:
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


def _kernel(echelon: _Echelon, n_cols: int) -> list[dict[int, Fraction]]:
    """Echelon-normalized basis of the kernel, read off a reduction.

    Each free column ``f`` below ``n_cols`` gives one vector, as its
    nonzero entries: 1 at ``f``, 0 at every other free column, and
    ``-row[f]/row[p]`` at each pivot ``p`` whose row holds ``f``.  The
    vectors come in increasing order of their free columns.
    """
    pivots, holders = echelon.pivots, echelon.holders
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for p in holders.get(f, ()):
            row = pivots[p]
            v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis


def _particular(echelon: _Echelon, n_cols: int) -> dict[int, Fraction]:
    """The solution with every free variable 0, as its nonzero entries,
    of a reduction whose column ``n_cols`` is the right-hand side; the
    caller checks first that ``n_cols`` is not a pivot."""
    pivots = echelon.pivots
    return {p: Fraction(pivots[p][n_cols], pivots[p][p])
            for p in echelon.holders.get(n_cols, ())}


def _dense(entries: Mapping[int, Fraction], n: int) -> Vector:
    out = [Fraction(0)] * n
    for c, v in entries.items():
        out[c] = v
    return tuple(out)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of ``m`` and its pivot columns."""
    pivots = _reduce(map(dict, m._data)).pivots
    order = sorted(pivots)
    reduced = [[(c, Fraction(v, pivots[p][p])) for c, v in pivots[p].items()]
               for p in order]
    return Matrix.sparse(reduced + [()] * (m.rows - len(order)),
                         m.cols), order


def rank(m: Matrix) -> int:
    return len(_reduce(map(dict, m._data)).pivots)


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises :class:`SingularMatrixError` when the determinant is zero.
    """
    if m.rows != m.cols:
        raise ValueError(
            f"cannot invert non-square matrix ({m.rows}, {m.cols})")
    n = m.rows
    pivots = _reduce({**row, n + i: 1}
                     for i, row in enumerate(m._data)).pivots
    if any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return Matrix.sparse([[(c - n, Fraction(v, pivots[i][i]))
                           for c, v in pivots[i].items() if c >= n]
                          for i in range(n)], n)


def nullspace(m: Matrix) -> list[Vector]:
    """Echelon-normalized basis of ``{v : m @ v = 0}``.

    Each free column yields one basis vector carrying 1 at that column and
    0 at every other free column, listed in increasing column order.  The
    basis is therefore canonical: equal spaces give equal output.
    """
    n = m.cols
    return [_dense(v, n) for v in _kernel(_reduce(map(dict, m._data)), n)]


def solve(m: Matrix, b: Sequence[Fraction]
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
    echelon = _reduce({**row, n_cols: value} if value else dict(row)
                      for row, value in zip(m._data, map(frac, b)))
    if n_cols in echelon.pivots:
        return None  # a pivot in the augmented column: 0 = 1
    return (_dense(_particular(echelon, n_cols), n_cols),
            [_dense(v, n_cols) for v in _kernel(echelon, n_cols)])
