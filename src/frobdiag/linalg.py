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

A reduction first settles its one-term rows, the singleton step of that
paper's structured elimination: a row ``{c: v}`` says that unknown
``c`` is 0, so it gets the pivot row ``{c: 1}`` and ``c`` is deleted
from the other rows, which may leave more one-term rows.  A caller that
meets such an equation where it makes it hands over the column alone,
as one of the reduction's ``zeros``, and no row is made for it; those
columns are settled before the first row is visited.  The symmetry
systems hand over their one-term equations and their zero pins so, and
most of their other rows settle in turn, with no elimination step: the
chains ``w[i, j+1] - w[i+1, j]`` of a graded system each end in a
one-term equation or a pinned entry.  :func:`_reduce` gives the passes
and why the result is unchanged.

Since the order is free, a reduction inserts the other rows by
decreasing leading column.  A pivot row holds nothing left of its lead,
so a new pivot left of every existing one is held by no earlier row and
nothing is cleared upward: the Gauss-Jordan back-substitution, which
costs about n**3/3 eliminations on those chains when they arrive with
increasing leads, does not occur.  Only a row whose leading entry is
eliminated can land among the existing pivots, and the column index
below clears it from the rows that hold its column, as it does for rows
that callers insert one at a time.

The kernel is fraction-free, after Bareiss ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968): it takes integer rows, each row of a :class:`Matrix` scaled once
by the lcm of its denominators (:func:`_integral`), and a row is cleared
at a column by ``d*row - f*pivot_row``; once all its eliminations are
done, a new row is divided once by its content, the gcd of its values,
and a pivot row cleared upward is divided by its content again.  So
every pivot row is a primitive integer row with a positive lead and the
only division is an exact one.  A one-term pivot row is ``{c: 1}``, and
clearing column ``c`` with it only deletes the entry.  Integer
arithmetic is what makes this pay: the symmetry systems have integer
coefficients, and an ``int`` product costs a small fraction of a
``Fraction`` one, which needs a gcd.  Rows are divided by their leads
only on the way out, into ``Fraction`` entries.  A column index
(column -> pivot rows holding it) lets a new pivot be cleared from just
the rows that hold its column, instead of from every pivot row.

The kernel owns the rows it is given, which hold no zero value: a row is
reduced, made primitive and kept as a pivot row in place.  The
``{column: int}`` rows that :mod:`frobdiag.diagonal` builds for its
symmetry systems, which never become a :class:`Matrix`, go in as they
are; a :class:`Matrix`, which stores only the nonzero entries of each
row as a ``{column: value}`` map, hands the kernel scaled copies, so it
stays unchanged.  Results are built the same way, from the nonzero
entries of the pivot rows: kernel vectors and particular solutions come
off a reduction as sparse ``{column: Fraction}`` maps, and only the
public :func:`nullspace` and :func:`solve` make them dense tuples, at
their edge.

A reduction can go on in an echelon that holds pivots already: a
block-diagonal system, such as a symmetry system split by total degree,
goes in one block at a time, each block's rows settled and then inserted
by decreasing lead.  No pivot row of one block holds a column of
another, so each block is reduced as if alone, and the result is the
reduced form of the whole.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
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
        return Matrix._of_maps(data, cols)

    @staticmethod
    def _of_maps(data: tuple[dict[int, int | Fraction], ...],
                 cols: int) -> "Matrix":
        """Matrix of width ``cols`` whose rows are the maps ``data``, taken
        as they are: the caller guarantees that no value is zero and that
        every column lies in ``0..cols-1``."""
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

# built once: an attrgetter made per call costs more than a list of the
# denominators saves
_denominator = attrgetter("denominator")


def _integral(values: Mapping[K, int | Fraction]) -> tuple[dict[K, int], int]:
    """``values`` times the lcm ``D`` of their denominators, and ``D``.

    The scaled values are ints; zero values are dropped.
    """
    den = lcm(*map(_denominator, values.values()))
    return {key: v.numerator * (den // v.denominator)
            for key, v in values.items() if v}, den


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


def _reduce(rows: Iterable[SparseRow], echelon: _Echelon | None = None,
            zeros: Iterable[int] = ()) -> _Echelon:
    """Insert the integer rows of ``rows`` into ``echelon`` (by default a
    new, empty :class:`_Echelon`) and return it.  The rows are the
    kernel's from then on (:func:`_insert`).  Each column in ``zeros`` is
    an unknown known to be 0: it stands for the row ``{c: 1}``, as a
    caller that meets a one-term equation ``{c: v}`` hands it over.

    One-term rows are settled first, in passes over the rows, with the
    columns of ``zeros`` settled before the first.  A row left with one
    term ``{c: v}`` settles ``c``, and ``c`` is deleted from every row
    visited after it; a row left empty, or with one term at a column
    already settled, drops out.  A pass that settles a column after it
    has kept a row, which may hold that column, is followed by another
    over the kept rows, in reverse order.  Reversing is what keeps the
    passes few: a chain of two-term rows whose rows come in order, ended
    by a one-term row or a zero column, settles in the pass that meets
    that end first, and the chains of the symmetry systems come in order
    from one end or the other.  Then each settled column ``c`` gets the
    pivot row ``{c: 1}``, except where ``echelon`` already holds ``c``, as
    a pivot or in a pivot row: that ``{c: 1}`` joins the rows left, which
    go to :func:`_insert` by decreasing leading column (stably), and
    :func:`_insert` clears ``c`` from those rows.  The echelon is looked
    up once per call, for all settled columns, ``zeros`` among them.

    The result is the reduced row echelon form of the rows, the rows
    ``{c: 1}`` of ``zeros`` and the echelon.  A settled ``e_c`` lies in
    their row space: a column of ``zeros`` gives it outright, and any
    other is ``1/v`` times a row ``{c: v}``, which is a given row minus
    multiples of the ``e_z`` settled before it.  So the settled ``e_c``,
    the rows left and the earlier pivot rows span the same space.  The
    last pass settled nothing after keeping a row, and ``zeros`` were
    settled before any row was visited, so no row left holds a settled
    column.  A settled column put straight among the pivots is held by no
    earlier pivot row, so by no pivot row that :func:`_insert` makes
    either, and a ``{c: 1}`` row holds no other column: together they are
    in reduced form, which is unique.  A pivot row holds nothing left of
    its lead, so a new lead left of every existing one is held by no
    pivot row and :func:`_insert` has nothing to clear upward; only a row
    whose lead is eliminated can land among the existing leads.
    """
    if echelon is None:
        echelon = _Echelon()
    pivots, holders = echelon.pivots, echelon.holders
    settled = set(zeros)
    again = True
    while again:
        again, kept = False, []
        for row in rows:
            n = len(row)
            if n > 1 and settled:
                for c in [c for c in row if c in settled]:
                    del row[c]
                    n -= 1
            if n != 1:
                if n:
                    kept.append(row)
                continue
            c, = row
            if c not in settled:
                settled.add(c)
                if kept:
                    again = True
        kept.reverse()
        rows = kept
    held = settled & pivots.keys() | settled & holders.keys()
    settled -= held
    pivots.update({c: {c: 1} for c in settled})
    for row in sorted([{c: 1} for c in held] + rows, key=min, reverse=True):
        _insert(echelon, row)
    return echelon


def _insert(echelon: _Echelon, row: SparseRow) -> bool:
    """One step of :func:`_reduce`: add ``row``, an integer row that holds
    no zero value, to ``echelon``.

    The kernel owns ``row`` from then on: it is changed in place and may
    become a pivot row, so a caller passes a row it may give away, or a
    copy.

    The row is cleared at every pivot column it holds: a one-term pivot
    row ``{c: 1}`` only deletes ``row[c]``, any other clears it by
    :func:`_eliminate`.  What is left, if anything, is divided once by
    its content, with the sign that makes its lead positive; its leading
    column becomes a new pivot and is cleared in the same way from the
    pivot rows that the column index lists as holding it, each of which
    is divided by its content again, so that it stays primitive.
    Returns True iff the row was independent of the pivot rows, that is,
    iff it added a pivot.
    """
    pivots, holders = echelon.pivots, echelon.holders
    for c in [c for c in row if c in pivots]:
        pivot_row = pivots[c]
        if len(pivot_row) == 1:
            del row[c]
        else:
            _eliminate(row, c, pivot_row)
    if not row:
        return False
    g = gcd(*row.values())
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    for p in holders.pop(lead, ()):
        other = pivots[p]
        if len(row) == 1:
            del other[lead]
        else:
            _eliminate(other, lead, row)
            # only the new row's columns can have changed in ``other``
            for c in row:
                if c in other:
                    holders.setdefault(c, set()).add(p)
                elif c in holders:
                    holders[c].discard(p)
        g = gcd(*other.values())
        if g != 1:
            for c in other:
                other[c] //= g
    for c in row:
        if c != lead:
            holders.setdefault(c, set()).add(lead)
    pivots[lead] = row
    return True


def _eliminate(row: SparseRow, c: int, pivot_row: SparseRow) -> None:
    """Clear column ``c`` of ``row`` in place with ``pivot_row``, a pivot
    row of more than one term.

    ``row`` becomes ``d*row - f*pivot_row`` for the smallest positive
    ``d`` and matching ``f`` that cancel at ``c`` (``pivot_row[c] > 0``);
    entries that vanish are dropped.  The caller divides by the content.
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
    pivots = _reduce(_integral(row)[0] for row in m._data).pivots
    order = sorted(pivots)
    reduced = [[(c, Fraction(v, pivots[p][p])) for c, v in pivots[p].items()]
               for p in order]
    return Matrix.sparse(reduced + [()] * (m.rows - len(order)),
                         m.cols), order


def rank(m: Matrix) -> int:
    return len(_reduce(_integral(row)[0] for row in m._data).pivots)


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix.

    Raises :class:`SingularMatrixError` when the determinant is zero.
    """
    if m.rows != m.cols:
        raise ValueError(
            f"cannot invert non-square matrix ({m.rows}, {m.cols})")
    n = m.rows
    pivots = _reduce(_integral({**row, n + i: 1})[0]
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
    echelon = _reduce(_integral(row)[0] for row in m._data)
    return [_dense(v, n) for v in _kernel(echelon, n)]


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
    echelon = _reduce(_integral({**row, n_cols: value})[0]
                      for row, value in zip(m._data, map(frac, b)))
    if n_cols in echelon.pivots:
        return None  # a pivot in the augmented column: 0 = 1
    return (_dense(_particular(echelon, n_cols), n_cols),
            [_dense(v, n_cols) for v in _kernel(echelon, n_cols)])
