"""Symmetric classes in the tensor square of a duality ring.

The tensor square of a ring with basis ``x_0..x_N`` carries classes
``w = sum mu[i][j] x_i (x) x_j``.  The interesting ones are *symmetric*:

    w . (1 (x) x) = (x (x) 1) . w   for every ring element x.

For a ring with nondegenerate top pairing, the inverse of the pairing
matrix is such a class (the algebraic shadow of the diagonal of M x M),
and this module computes it two independent ways: by exact matrix
inversion, and by solving the full symmetry linear system.

Two product conventions are supported.  LITERAL multiplies tensor factors
with no sign, matching component-by-component index manipulation, which
is the correct reading for evenly graded rings.  GRADED inserts the
Koszul sign ``(a(x)b).(c(x)d) = (-1)^(|b||c|) ac(x)bd``, the topologically
meaningful product when odd-degree classes are present.  The symmetry
condition is the same under both: the factors that pass each other are
``b`` and ``1`` in ``(a(x)b).(1(x)x)`` and ``1`` and ``a`` in
``(x(x)1).(a(x)b)``, so a unit is always one of them and the sign is
``(-1)^(|b|.0) = +1``.  Its system and residuals take no convention.

The symmetry system is built and reduced one block of total degree at a
time: ``{column: int}`` rows that the elimination kernel reads as they
are, and the columns of its one-term equations, which it settles as
zero unknowns first.  Its solution and kernel classes are read off as
sparse maps.  The split needs structure constants that respect
degrees; a ring or pair that breaks grading is one block
(:func:`_reduce_blocks` gives the argument).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

# multiply, nullspace, rank and solve are imported only for the
# benchmark's traced run (perfbench/spans.py), which wraps them in this
# module by name
from .linalg import (Matrix, SingularMatrixError, SparseRow,  # noqa: F401
                     _Echelon, _insert, _integral, _kernel, _particular,
                     _reduce, invert, nullspace, rank, solve)
from .constants import common_maps
from .ring import (GradedBasis, RingElement, RingStructure,  # noqa: F401
                   _top_index, generators, multiply, pairing_matrix,
                   unit_element)

if TYPE_CHECKING:
    from .boundary import ModulePair


# a class in a tensor square as its terms: (left, right) index -> coefficient
TermMap = dict[tuple[int, int], int | Fraction]


class SingularPairingError(ValueError):
    """The top-degree pairing matrix is singular: duality fails."""


class NoSolutionError(ValueError):
    """The normalized symmetry system is inconsistent."""


class NonUniqueSolutionError(ValueError):
    """The normalized symmetry system is underdetermined."""


class SignMode(enum.Enum):
    """Sign convention for products in the tensor square."""

    LITERAL = "literal"
    GRADED = "graded"


def koszul_sign(mode: SignMode, degree_b: int, degree_c: int) -> int:
    """Sign for moving a degree-``degree_b`` factor past ``degree_c``."""
    if mode is SignMode.GRADED and degree_b % 2 and degree_c % 2:
        return -1
    return 1


@dataclass(frozen=True)
class TensorClass:
    """Element of left (x) right with coefficient matrix ``mu``.

    ``mu[i, j]`` is the coefficient of ``x_i (x) x_j``; rows run over the
    left basis, columns over the right basis.  The left factor is the ring
    itself for a closed ring, and the relative module for a pair.
    """

    mu: Matrix
    left_basis: GradedBasis
    right_basis: GradedBasis

    def __post_init__(self):
        if self.mu.shape != (self.left_basis.size, self.right_basis.size):
            raise ValueError(
                f"coefficient matrix {self.mu.shape} does not match bases "
                f"({self.left_basis.size}, {self.right_basis.size})")

    def is_zero(self) -> bool:
        return self.mu.is_zero()


def _sparse_class(entries: Mapping[int, Fraction],
                  acting: RingStructure | ModulePair) -> TensorClass:
    """The class in module (x) ring of ``acting`` whose coefficient at
    flat index ``i*n_right + j`` is ``entries.get(i*n_right + j, 0)``."""
    left, right = acting.module_basis, acting.ring.basis
    n = right.size
    rows: list[dict[int, Fraction]] = [{} for _ in range(left.size)]
    for c, v in entries.items():
        i, j = divmod(c, n)
        rows[i][j] = v
    # entries off a reduction: none is zero, every index in range
    return TensorClass(Matrix._of_maps(tuple(rows), n), left, right)


def pure_tensor(ring_left: RingStructure, ring_right: RingStructure,
                a: RingElement, b: RingElement) -> TensorClass:
    """The decomposable class ``a (x) b``; only nonzero pairs multiply."""
    nr = ring_right.size
    b_terms = [(j, b[j]) for j in range(nr) if b[j]]
    mu = Matrix.sparse([[(j, a[i] * bj) for j, bj in b_terms] if a[i] else ()
                        for i in range(ring_left.size)], nr)
    return TensorClass(mu, ring_left.basis, ring_right.basis)


def left_factor(ring_left: RingStructure, ring_right: RingStructure,
                a: RingElement) -> TensorClass:
    return pure_tensor(ring_left, ring_right, a, unit_element(ring_right))


def right_factor(ring_left: RingStructure, ring_right: RingStructure,
                 b: RingElement) -> TensorClass:
    return pure_tensor(ring_left, ring_right, unit_element(ring_left), b)


def _require_over(ring_left: RingStructure, ring_right: RingStructure,
                  w: TensorClass) -> None:
    if w.left_basis != ring_left.basis or w.right_basis != ring_right.basis:
        raise ValueError("tensor class does not live over the given rings")


def tensor_multiply(ring_left: RingStructure, ring_right: RingStructure,
                    mode: SignMode, u: TensorClass,
                    v: TensorClass) -> TensorClass:
    """Product of two classes in the tensor-square algebra.

    The product is taken term by term over the nonzero coefficients of
    ``u`` and ``v``, scaled to integers: ``(x_a (x) x_b).(x_c (x) x_d)
    = sign x_a.x_c (x) x_b.x_d`` for each pair of terms, through the two
    rings' products.  It shares no code with the symmetry-system builder
    :func:`_symmetry_system`.
    """
    for w in (u, v):
        _require_over(ring_left, ring_right, w)
    u_terms, u_den = _integral(dict(u.mu.terms()))
    v_terms, v_den = _integral(dict(v.mu.terms()))
    deg_l = ring_left.basis.degrees
    deg_r = ring_right.basis.degrees
    v_by_left: dict[int, list[tuple[int, int]]] = {}
    for (c, d), vcd in v_terms.items():
        v_by_left.setdefault(c, []).append((d, vcd))
    out: TermMap = {}
    for (a, b), uab in u_terms.items():
        for c, v_row in v_by_left.items():
            left = ring_left.product_coefficients(a, c)
            if not left:
                continue
            signed = uab * koszul_sign(mode, deg_r[b], deg_l[c])
            for d, vcd in v_row:
                right = ring_right.product_coefficients(b, d)
                if not right:
                    continue
                coeff = signed * vcd
                for e, le in left.items():
                    ce = coeff * le
                    for f, rf in right.items():
                        out[e, f] = out.get((e, f), 0) + ce * rf
    den = u_den * v_den
    rows: list[list] = [[] for _ in range(ring_left.size)]
    for (e, f), value in out.items():
        rows[e].append((f, Fraction(value, den)))
    return TensorClass(Matrix.sparse(rows, ring_right.size),
                       ring_left.basis, ring_right.basis)


# ---------------------------------------------------------------------------
# the diagonal class

def pairing_inverse(ring: RingStructure) -> Matrix:
    """Exact inverse of the top-degree pairing matrix."""
    try:
        return invert(pairing_matrix(ring))
    except SingularMatrixError as exc:
        raise SingularPairingError(
            "top-degree pairing is degenerate; no diagonal class") from exc


def diagonal_class(ring: RingStructure,
                   mode: SignMode = SignMode.LITERAL) -> TensorClass:
    """The normalized symmetric class of ``ring (x) ring``.

    ``mode`` picks the route (the condition is sign-free).  LITERAL inverts
    the pairing matrix.  GRADED never assumes a formula; it solves the
    symmetry system subject to the top-row/top-column normalization (top
    row and column of ``mu`` equal to the unit indicator) and demands a
    unique solution.
    """
    if mode is SignMode.LITERAL:
        return TensorClass(pairing_inverse(ring), ring.basis, ring.basis)

    unit, top = ring.basis.unit_index, _top_index(ring)
    pins = [(slot, int(j == unit))
            for j in range(ring.size) for slot in ((top, j), (j, top))]
    return _normalized_solve(_symmetry_system, ring, pins, "symmetry system")


def _normalized_solve(build: SystemBuilder,
                      acting: RingStructure | ModulePair,
                      pins: Sequence[tuple[tuple[int, int], int]],
                      noun: str) -> TensorClass:
    """The unique solution of a symmetry system with some entries pinned.

    The system is reduced by :func:`_reduce_blocks` with ``pins``, a list
    of ``((i, j), value)`` pairs fixing ``mu[i, j]``; the solution is
    read off the pivot rows' right-hand sides.  ``noun`` names the
    system in the error messages.
    """
    echelon, width = _reduce_blocks(build, acting, pins)
    if width in echelon.pivots:
        raise NoSolutionError(f"normalized {noun} is inconsistent")
    if len(echelon.pivots) < width:
        raise NonUniqueSolutionError(
            f"normalized {noun} has a {width - len(echelon.pivots)}"
            "-dimensional solution family")
    return _sparse_class(_particular(echelon, width), acting)


def check_top_normalization(ring: RingStructure, w: TensorClass) -> bool:
    """True iff the top row and column of ``w.mu`` are unit indicators.

    Raises ``ValueError`` if ``w`` does not live over ``ring (x) ring``.
    """
    top, unit = _top_index(ring), ring.basis.unit_index
    _require_over(ring, ring, w)
    rows = w.mu._data
    return rows[top] == {unit: 1} and all(
        row.get(top, 0) == int(i == unit) for i, row in enumerate(rows))


# ---------------------------------------------------------------------------
# symmetry condition

@dataclass(frozen=True)
class ResidualEntry:
    probe: int          # index k of the basis element multiplied in
    left: int           # row index of the nonzero residual coefficient
    right: int          # column index
    value: Fraction

    def __str__(self) -> str:
        return (f"probe {self.probe}: residual[{self.left}, {self.right}] "
                f"= {self.value}")


@dataclass
class SymmetryReport:
    entries: list[ResidualEntry]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def check_symmetry(ring: RingStructure, w: TensorClass) -> SymmetryReport:
    """Residuals of ``w.(1(x)x_k) - (x_k(x)1).w`` over every basis element.

    An empty report means ``w`` is symmetric.  This is the residual
    oracle :func:`_symmetry_residuals` of the pair whose module is the
    ring, as :func:`frobdiag.boundary.check_relative_symmetry` is.
    """
    _require_over(ring, ring, w)
    return _symmetry_residuals(ring, w)


def _symmetry_residuals(acting: RingStructure | ModulePair,
                        w: TensorClass) -> SymmetryReport:
    """Residuals of ``w.(1(x)y_k) - (y_k(x)1).w`` for every ring element.

    ``w`` lives in module (x) ring, and ``acting`` is the pair whose
    action map expands ``y_k ^ x_l`` over the module basis, or a closed
    ring, the pair whose module is the ring.  The work is done in ints:
    ``w`` is scaled to integer terms by the lcm ``den`` of its
    denominators, and the ring's products and the action by one common
    ``D`` (:func:`frobdiag.constants.common_maps`).  The residual is linear
    in ``w`` and in the two maps together, so each entry is the integer
    difference divided by ``den * D``, the value over the data as given.
    Each side is accumulated over the terms present only, and the sides
    are compared over the sorted union of their terms, in ``(k, i, s)``
    order.  It never calls :func:`_symmetry_system`, so it checks the
    solvers' systems independently.

    Precondition: the unit acts as the identity on both factors, as no
    product with it is formed; if not, the report may differ from the
    residual that :func:`tensor_multiply` gives.

    When ``acting`` has passed validation (``acting._valid``: the pair's
    own flag, as a pair over a valid ring may have a bad action), the
    ring's generators are checked first: if each of their residuals
    vanishes, so does every residual (:func:`_symmetry_system` gives the
    argument) and the report is empty.  Otherwise, and for an unvalidated
    ``acting``, every basis element is checked and the full report
    returned.
    """
    ring = acting.ring
    products, action_products = common_maps(acting)
    terms, den = _integral(dict(w.mu.terms()))
    den *= lcm(ring._den, acting._den)

    def residual(k: int) -> list[ResidualEntry]:
        # w.(1 (x) y_k): y_j.y_k on the ring factor
        lhs: TermMap = {}
        for (i, j), c in terms.items():
            for s, v in products.get((j, k), {}).items():
                lhs[i, s] = lhs.get((i, s), 0) + c * v
        # (y_k (x) 1).w: y_k acts on the module factor x_l
        rhs: TermMap = {}
        for (l, s), c in terms.items():
            for i, v in action_products.get((k, l), {}).items():
                rhs[i, s] = rhs.get((i, s), 0) + c * v
        entries = []
        for i, s in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get((i, s), 0), rhs.get((i, s), 0)
            if a != b:
                entries.append(ResidualEntry(k, i, s, Fraction(a - b, den)))
        return entries

    if acting._valid and not any(map(residual, generators(ring))):
        return SymmetryReport([])
    return SymmetryReport([e for k in range(ring.size) for e in residual(k)])


class _ProductIndex(NamedTuple):
    """A symmetry system's equations ``(k, i, s)``, grouped by degree."""

    # |x_i| - |y_k| -> [(by_s, i*nr, acted)] over probes k, module slots
    # i: by_s[s] = [(j, c)] where y_j.y_k has c y_s, and acted = [(l*nr,
    # c)] where y_k ^ x_l has c x_i
    pairs: dict[int, list[tuple[dict, int, list]]]
    # degree -> the ring basis indices of that degree
    slots: dict[int, list[int]]


def _product_index(acting: RingStructure | ModulePair) -> _ProductIndex:
    """The :class:`_ProductIndex` of the ring's product and ``acting``'s
    action over one common denominator (:func:`common_maps`), for the
    probes that :func:`_symmetry_system` names."""
    ring = acting.ring
    nr, ring_deg = ring.size, ring.basis.degrees
    probes = generators(ring) if acting._valid else range(nr)
    products, action = common_maps(acting)
    right: dict[int, dict[int, list]] = {k: {} for k in probes}
    for (j, k), coeffs in products.items():
        if k in right:
            by_s = right[k]
            for s, c in coeffs.items():
                by_s.setdefault(s, []).append((j, c))
    left: dict[tuple[int, int], list] = {}
    for (k, l), coeffs in action.items():
        if k in right:
            for i, c in coeffs.items():
                left.setdefault((k, i), []).append((l * nr, c))
    pairs: dict[int, list] = {}
    for k, by_s in right.items():
        for i, d in enumerate(acting.module_basis.degrees):
            pairs.setdefault(d - ring_deg[k], []).append(
                (by_s, i * nr, left.get((k, i), ())))
    slots: dict[int, list[int]] = {}
    for s, d in enumerate(ring_deg):
        slots.setdefault(d, []).append(s)
    return _ProductIndex(pairs, slots)


def _symmetry_system(acting: RingStructure | ModulePair,
                     degree: int | None = None,
                     index: _ProductIndex | None = None
                     ) -> tuple[list[SparseRow], list[int]]:
    """Sparse linear system in the flattened unknowns ``mu[i*nr + j]``.

    The unknowns are the coefficients of a class in module (x) ring, where
    ``acting`` is the pair whose action map expands ``y_k ^ x_l`` over
    the module basis, or a closed ring, the pair whose module is the
    ring.  One equation per (probe k, module slot i, ring slot s): the
    coefficient of ``x_i (x) y_s`` in ``w.(1(x)y_k) - (y_k(x)1).w`` must
    vanish.  No sign enters, under either convention: in each product a
    unit is one of the two factors that pass each other.  Equations come
    straight from the two product maps, not :func:`tensor_multiply`,
    scaled to ints by one common denominator (:func:`common_maps`): the
    system is homogeneous, so its solutions and reduced form stay.

    Returns ``(rows, zeros)``: the equations of two or more terms, each
    a fresh ``{column: value}`` map of nonzero values, and the column
    ``c`` of each one-term equation ``{c: v}``, which says only that
    ``mu`` is 0 there, so no map is made for it.  Nothing is settled
    here (:func:`_reduce` does that).

    ``degree``, when given, keeps the block of equations with ``|x_i| +
    |y_s| - |y_k| == degree`` (:func:`_reduce_blocks`), visited alone:
    for each ring degree ``r``, the ``(k, i)`` with ``|x_i| - |y_k| ==
    degree - r`` against the slots ``s`` of degree ``r``.  ``index`` is
    :func:`_product_index` of ``acting``.

    The probes ``k`` are the ring's generators
    (:func:`frobdiag.ring.generators`) when ``acting`` has passed
    validation (``acting._valid``), and every ring basis index otherwise.
    The generators are enough when the ring multiplication and the action
    are associative and unital: if ``w`` is symmetric for ``x`` and for
    ``y``, then ``w.(1(x)xy) = (w.(1(x)x)).(1(x)y) = (x(x)1).w.(1(x)y)
    = (x(x)1).(y(x)1).w = (xy(x)1).w``, the two multiplications act on
    different tensor factors, residuals are linear in the probe, and the
    unit is symmetric outright.  So the system for the generators has
    the same solutions as the full one, and the same reduced row echelon
    form.  Without that precondition the two may differ, so an
    unvalidated ring or pair gets every probe.
    """
    pairs, slots = _product_index(acting) if index is None else index
    if degree is None:
        groups = [(chain.from_iterable(pairs.values()),
                   range(acting.ring.size))]
    else:
        groups = [(pairs.get(degree - r, ()), ring_slots)
                  for r, ring_slots in slots.items()]
    rows: list[SparseRow] = []
    zeros: list[int] = []
    for group, ring_slots in groups:
        for by_s, base, acted in group:
            for s in ring_slots:
                row = {base + j: c for j, c in by_s.get(s, ())}
                for l_base, c in acted:
                    column = l_base + s
                    value = row.get(column, 0) - c
                    if value:
                        row[column] = value
                    else:
                        del row[column]
                if len(row) > 1:
                    rows.append(row)
                elif row:
                    zeros.extend(row)
    return rows, zeros


# _symmetry_system, under the name of the layer whose solver passes it
SystemBuilder = Callable[..., tuple[list[SparseRow], list[int]]]


def _blocks(acting: RingStructure | ModulePair) -> list[int | None]:
    """The blocks that :func:`_reduce_blocks` reduces one at a time.

    If every term of the ring's product and of ``acting``'s action lands
    in the sum of its factors' degrees, these are the total degrees of
    the unknowns, in increasing order; otherwise ``[None]``, the whole
    system as one block.  Validation has checked this for a validated
    ``acting``; otherwise one pass over the maps' terms decides.
    """
    ring = acting.ring
    ring_deg, module_deg = ring.basis.degrees, acting.module_basis.degrees
    maps = [(ring._ints, ring_deg)]
    if acting is not ring:
        maps.append((acting._ints, module_deg))
    if acting._valid or all(
            deg[c] == ring_deg[a] + deg[b] for products, deg in maps
            for (a, b), coeffs in products.items() for c in coeffs):
        return sorted({a + b for a in set(module_deg) for b in set(ring_deg)})
    return [None]


def _reduce_blocks(build: SystemBuilder,
                   acting: RingStructure | ModulePair,
                   pins: Sequence[tuple[tuple[int, int], int]] = ()
                   ) -> tuple[_Echelon, int]:
    """The reduced row echelon form of a symmetry system, built one block
    of total degree at a time, and its number of unknowns ``width``.

    ``build(acting, degree, index)`` is :func:`_symmetry_system`.
    ``pins`` lists ``((i, j), value)`` pairs, each fixing ``mu[i, j]`` in
    its block: a zero pin joins the block's zero columns, any other is
    the row ``{c: 1, width: value}``, its right-hand side in the column
    after the unknowns.

    When the ring's product and the action respect degrees, equation
    ``(k, i, s)`` touches ``mu[i, j]`` with ``|y_j| + |y_k| = |y_s|`` and
    ``mu[l, s]`` with ``|y_k| + |x_l| = |x_i|``: all of total degree
    ``|x_i| + |y_s| - |y_k|``, one that :func:`_blocks` lists.  So the
    blocks share no unknown: no pivot row of one holds a column of
    another, each is reduced as if alone, by decreasing lead with
    nothing cleared upward, and only one block's rows are held at a
    time.  The reduced form is unique, so the result is the whole
    system's.  When a term breaks the grading (an unvalidated ring or
    pair), an equation may lie in no listed block, and :func:`_blocks`
    makes the whole system one block.

    The kernel alone holds a block's list of rows, through an iterator,
    so the list and the rows that drop out are freed after its first
    pass.
    """
    ring = acting.ring
    nr = ring.size
    width = acting.module_basis.size * nr
    ring_deg, module_deg = ring.basis.degrees, acting.module_basis.degrees
    index = _product_index(acting)
    blocks = _blocks(acting)
    pinned = {degree: ([], []) for degree in blocks}
    for (i, j), value in pins:
        pin_rows, pin_zeros = pinned[
            None if blocks == [None] else module_deg[i] + ring_deg[j]]
        if value:
            pin_rows.append({i * nr + j: 1, width: value})
        else:
            pin_zeros.append(i * nr + j)
    echelon = _Echelon()
    for degree in blocks:
        pin_rows, pin_zeros = pinned.pop(degree)
        rows, zeros = build(acting, degree, index)
        rows = chain(pin_rows, rows)  # now the list's only holder
        _reduce(rows, echelon, chain(zeros, pin_zeros))
    return echelon, width


def solve_symmetric_space(ring: RingStructure) -> list[TensorClass]:
    """Echelon-normalized basis of all symmetric classes.

    This is the brute-force description of the symmetric elements: the
    kernel of the symmetry system, one coefficient at a time.  It serves
    as the oracle against which the closed-form diagonal class is
    compared.
    """
    return _symmetric_space(_symmetry_system, ring)


def _symmetric_space(build: SystemBuilder,
                     acting: RingStructure | ModulePair) -> list[TensorClass]:
    """The kernel of a symmetry system (:func:`_reduce_blocks`) as
    classes, in the echelon-normalized order of
    :func:`frobdiag.linalg.nullspace`."""
    echelon, width = _reduce_blocks(build, acting)
    return [_sparse_class(v, acting) for v in _kernel(echelon, width)]


def class_in_span(space: Sequence[TensorClass], w: TensorClass) -> bool:
    """Membership of ``w`` in the rational span of ``space``.

    Serves closed rings and module pairs alike.  The nonzero coefficients
    of the space's classes are reduced once, as sparse rows over the flat
    index ``i*n_right + j``, each scaled to integers first; ``w`` is in
    the span iff inserting it adds no pivot.  Raises ``ValueError`` if a
    class differs in shape from ``w``.
    """
    if any(s.mu.shape != w.mu.shape for s in space):
        raise ValueError("classes of different shapes have no common span")
    n = w.mu.cols
    rows = [_integral({i * n + j: v for i, row in enumerate(s.mu._data)
                       for j, v in row.items()})[0] for s in (*space, w)]
    return not _insert(_reduce(rows[:-1]), rows[-1])


# ---------------------------------------------------------------------------
# products of rings

def kunneth_product(ring_a: RingStructure, ring_b: RingStructure,
                    mode: SignMode = SignMode.GRADED) -> RingStructure:
    """Tensor product ring on the paired basis, degrees additive.

    GRADED mode inserts the Koszul sign and models the cohomology of a
    product of spaces; LITERAL mode multiplies componentwise with no sign
    (for rings with odd-degree classes this breaks graded commutativity,
    which validation will report).
    """
    na, nb = ring_a.size, ring_b.size
    deg_a, deg_b = ring_a.basis.degrees, ring_b.basis.degrees

    def flat(i: int, ip: int) -> int:
        return i * nb + ip

    labels = tuple(f"{la}*{lb}" for la in ring_a.basis.labels
                   for lb in ring_b.basis.labels)
    degrees = tuple(deg_a[i] + deg_b[ip]
                    for i in range(na) for ip in range(nb))
    top_a, top_b = ring_a.basis.top_index, ring_b.basis.top_index
    top = flat(top_a, top_b) if top_a is not None and top_b is not None \
        else None
    basis = GradedBasis(
        labels=labels,
        degrees=degrees,
        formal_dimension=(ring_a.basis.formal_dimension
                          + ring_b.basis.formal_dimension),
        unit_index=flat(ring_a.basis.unit_index, ring_b.basis.unit_index),
        top_index=top,
    )
    tensor: dict[tuple[int, int, int], int | Fraction] = {}
    for (i, j, k), va in ring_a.tensor.items():
        for (ip, jp, kp), vb in ring_b.tensor.items():
            sign = koszul_sign(mode, deg_b[ip], deg_a[j])
            v = sign * va * vb
            if type(v) is not int and v.denominator == 1:
                v = v.numerator  # the form the product keeps as its view
            tensor[(flat(i, ip), flat(j, jp), flat(k, kp))] = v
    return RingStructure(basis, tensor)
