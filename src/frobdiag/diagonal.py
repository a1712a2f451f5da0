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
meaningful product when odd-degree classes are present.  Multiplication
by ``1 (x) x`` or ``x (x) 1`` never transposes factors of odd degree past
each other, so the symmetry condition itself is convention-independent;
the two modes are kept separate anyway so that nothing rests on that
observation silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

# rank stays imported: the benchmark's traced run (perfbench/spans.py)
# wraps it in this module by name
from .linalg import (Matrix, Vector, SingularMatrixError,  # noqa: F401
                     _insert, _integral, _reduce, invert, nullspace, rank,
                     solve)
from .ring import (GradedBasis, MissingTopClassError, ProductMap,
                   RingElement, RingStructure, multiply, pairing_matrix,
                   unit_element)


# one symmetry equation: its nonzero (column, coefficient) pairs, by column
SparseEquation = tuple[tuple[int, int | Fraction], ...]
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

    def flatten(self) -> Vector:
        return tuple(v for i in range(self.mu.rows) for v in self.mu.row(i))


def unflatten(vec: Sequence[Fraction], left_basis: GradedBasis,
              right_basis: GradedBasis) -> TensorClass:
    """Inverse of :meth:`TensorClass.flatten`: ``vec[i*n_right + j]``."""
    n = right_basis.size
    return TensorClass(Matrix([vec[i * n:(i + 1) * n]
                               for i in range(left_basis.size)]),
                       left_basis, right_basis)


def tensor_class(ring_left: RingStructure, ring_right: RingStructure,
                 mu: Matrix) -> TensorClass:
    return TensorClass(mu, ring_left.basis, ring_right.basis)


def pure_tensor(ring_left: RingStructure, ring_right: RingStructure,
                a: RingElement, b: RingElement) -> TensorClass:
    """The decomposable class ``a (x) b``; only nonzero pairs multiply."""
    nr = ring_right.size
    b_terms = [(j, b[j]) for j in range(nr) if b[j]]
    mu = Matrix.sparse([[(j, a[i] * bj) for j, bj in b_terms] if a[i] else ()
                        for i in range(ring_left.size)], nr)
    return tensor_class(ring_left, ring_right, mu)


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
    return tensor_class(ring_left, ring_right,
                        Matrix.sparse(rows, ring_right.size))


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
                   mode: SignMode = SignMode.LITERAL,
                   probes: Sequence[int] | None = None) -> TensorClass:
    """The normalized symmetric class of ``ring (x) ring``.

    LITERAL mode returns the closed form: coefficients are the inverse of
    the pairing matrix.  GRADED mode never assumes a formula; it solves
    the symmetry system subject to the top-row/top-column normalization
    (top row and column of ``mu`` equal to the unit indicator) and demands
    a unique solution.  ``probes`` is passed to :func:`_symmetry_system`.
    """
    if mode is SignMode.LITERAL:
        return tensor_class(ring, ring, pairing_inverse(ring))

    n, unit, top = ring.size, ring.basis.unit_index, ring.basis.top_index
    if top is None:
        raise MissingTopClassError("ring has no top basis index")
    rows, _ = _symmetry_system(ring, mode, ring.basis, ring.tensor, probes)
    pins = [(index, Fraction(int(j == unit)))
            for j in range(n) for index in (top * n + j, j * n + top)]
    return _normalized_solve(rows, pins, ring.basis, ring.basis,
                            "symmetry system")


def _normalized_solve(rows: list[SparseEquation],
                     pins: Sequence[tuple[int, Fraction]],
                     left_basis: GradedBasis, right_basis: GradedBasis,
                     noun: str) -> TensorClass:
    """The unique solution of a symmetry system with some entries pinned.

    ``rows`` is a system from :func:`_symmetry_system` (extended in place);
    ``pins`` lists ``(flat index, value)`` pairs fixing entries of ``mu``.
    ``noun`` names the system in the error messages.
    """
    rhs = [Fraction(0)] * len(rows)
    for index, value in pins:
        rows.append(((index, Fraction(1)),))
        rhs.append(value)
    result = solve(Matrix.sparse(rows, left_basis.size * right_basis.size),
                   rhs)
    if result is None:
        raise NoSolutionError(f"normalized {noun} is inconsistent")
    particular, kernel = result
    if kernel:
        raise NonUniqueSolutionError(
            f"normalized {noun} has a {len(kernel)}-dimensional solution "
            "family")
    return unflatten(particular, left_basis, right_basis)


def check_top_normalization(ring: RingStructure, w: TensorClass) -> bool:
    """True iff the top row and column of ``w.mu`` are unit indicators."""
    top = ring.basis.top_index
    unit = ring.basis.unit_index
    if top is None:
        raise MissingTopClassError("ring has no top basis index")
    for j in range(ring.size):
        expected = Fraction(int(j == unit))
        if w.mu[top, j] != expected or w.mu[j, top] != expected:
            return False
    return True


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


def check_symmetry(ring: RingStructure, mode: SignMode,
                   w: TensorClass) -> SymmetryReport:
    """Residuals of ``w.(1(x)x_k) - (x_k(x)1).w`` over every basis element.

    An empty report means ``w`` is symmetric.  This is the residual
    oracle :func:`_symmetry_residuals` of the pair whose module is the
    ring, as :func:`frobdiag.boundary.check_relative_symmetry` is.
    """
    _require_over(ring, ring, w)
    return _symmetry_residuals(ring, mode, ring.basis, ring._products, w)


def _symmetry_residuals(ring: RingStructure, mode: SignMode,
                        module_basis: GradedBasis,
                        action_products: ProductMap,
                        w: TensorClass) -> SymmetryReport:
    """Residuals of ``w.(1(x)y_k) - (y_k(x)1).w`` for every ring element.

    ``w`` lives in module (x) ring and ``action_products[(k, l)]`` expands
    ``y_k ^ x_l`` over the module basis; a closed ring passes its own
    basis and product map.  ``w`` is scaled to integer terms once, each
    side is accumulated over the terms present only, and the sides are
    compared over the sorted union of their terms, in ``(k, i, s)``
    order.  The oracle never calls :func:`_symmetry_system`, so it checks
    the solvers' systems by a different code path.

    Precondition: the unit acts as the identity on both factors,
    ``x_i.1 = x_i`` and ``1.y_s = y_s``; no product with the unit is
    formed.  For a ring or pair that fails a unit axiom the report may
    differ from the residual that :func:`tensor_multiply` gives.
    """
    mod_deg = module_basis.degrees
    terms, den = _integral(dict(w.mu.terms()))
    # (y_k (x) 1).w: the unit passes the module factor x_l, then y_k acts
    # on it; the signed terms do not depend on k
    signed = [(l, s, c * koszul_sign(mode, 0, mod_deg[l]))
              for (l, s), c in terms.items()]
    entries: list[ResidualEntry] = []
    for k in range(ring.size):
        # w.(1 (x) y_k): y_j.y_k on the ring factor; only a unit crosses
        # the module factor, so no Koszul sign in either mode
        lhs: TermMap = {}
        for (i, j), c in terms.items():
            for s, v in ring.product_coefficients(j, k).items():
                lhs[i, s] = lhs.get((i, s), 0) + c * v
        rhs: TermMap = {}
        for l, s, c in signed:
            for i, v in action_products.get((k, l), {}).items():
                rhs[i, s] = rhs.get((i, s), 0) + c * v
        for i, s in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get((i, s), 0), rhs.get((i, s), 0)
            if a != b:
                entries.append(ResidualEntry(k, i, s, Fraction(a - b, den)))
    return SymmetryReport(entries)


def _symmetry_system(ring: RingStructure, mode: SignMode,
                     module_basis: GradedBasis,
                     action: Mapping[tuple[int, int, int], int | Fraction],
                     probes: Sequence[int] | None = None
                     ) -> tuple[list[SparseEquation], int]:
    """Sparse linear system in the flattened unknowns ``mu[i*nr + j]``.

    The unknowns are the coefficients of a class in module (x) ring, where
    ``action[(k, l, i)]`` expands ``y_k ^ x_l`` over the module basis; a
    closed ring passes its own basis and structure tensor.  One equation
    per (probe k, module slot i, ring slot s), in that order: the
    coefficient of ``x_i (x) y_s`` in ``w.(1(x)y_k) - (y_k(x)1).w`` must
    vanish.  Each equation is its nonzero ``(column, value)`` pairs sorted
    by column; equations that vanish identically are left out.  Returns
    the equations and the number of unknowns.  Rows are assembled straight
    from the two tensors, independently of :func:`tensor_multiply`.

    ``probes`` lists the ring basis indices ``k`` to take equations for;
    ``None`` takes every one.  A generating set of the ring is enough when
    the ring multiplication and the action are associative and unital:
    if ``w`` is symmetric for ``x`` and for ``y``, then
    ``w.(1(x)xy) = (w.(1(x)x)).(1(x)y) = (x(x)1).w.(1(x)y)
    = (x(x)1).(y(x)1).w = (xy(x)1).w``, the two multiplications act on
    different tensor factors (the unit slot never moves an odd factor, so
    in either sign mode), and the unit is symmetric outright.  So the
    system for the generators (:func:`frobdiag.ring.generators`) has the
    same solutions as the full one, and the same reduced row echelon
    form.  Without that precondition the two may differ: pass a probe
    list only for a ring or pair that has passed validation.
    """
    nm, nr = module_basis.size, ring.size
    ring_deg = ring.basis.degrees
    mod_deg = module_basis.degrees
    # w.(1(x)y_k): mu[i,j] times y_j.y_k -> y_s; the unit passes y_j with
    # sign koszul(|y_j|, 0) = +1
    right: dict[tuple[int, int], list[tuple[int, int | Fraction]]] = {}
    for (j, k, s), c in ring.tensor.items():
        right.setdefault((k, s), []).append(
            (j, c * koszul_sign(mode, ring_deg[j], 0)))
    # (y_k(x)1).w: mu[l,s] times y_k ^ x_l -> x_i; the unit passes x_l
    # with sign koszul(0, |x_l|) = +1
    left: dict[tuple[int, int], list[tuple[int, int | Fraction]]] = {}
    for (k, l, i), c in action.items():
        left.setdefault((k, i), []).append(
            (l, c * koszul_sign(mode, 0, mod_deg[l])))
    rows: list[SparseEquation] = []
    for k in range(nr) if probes is None else probes:
        for i in range(nm):
            acting = left.get((k, i), ())
            for s in range(nr):
                products = right.get((k, s), ())
                if not products and not acting:
                    continue
                row = {i * nr + j: c for j, c in products}
                for l, c in acting:
                    column = l * nr + s
                    row[column] = row.get(column, 0) - c
                equation = tuple(sorted((column, v)
                                        for column, v in row.items() if v))
                if equation:
                    rows.append(equation)
    return rows, nm * nr


def solve_symmetric_space(ring: RingStructure,
                          mode: SignMode = SignMode.LITERAL,
                          probes: Sequence[int] | None = None
                          ) -> list[TensorClass]:
    """Echelon-normalized basis of all symmetric classes.

    This is the brute-force description of the symmetric elements: the
    kernel of the symmetry system, one coefficient at a time.  It serves
    as the oracle against which the closed-form diagonal class is
    compared.  ``probes`` is passed to :func:`_symmetry_system`.
    """
    return _symmetric_space(
        _symmetry_system(ring, mode, ring.basis, ring.tensor, probes),
        ring.basis, ring.basis)


def _symmetric_space(system: tuple[list[SparseEquation], int],
                     left_basis: GradedBasis,
                     right_basis: GradedBasis) -> list[TensorClass]:
    """The kernel of a :func:`_symmetry_system` as classes, in the
    echelon-normalized order of :func:`frobdiag.linalg.nullspace`."""
    rows, width = system
    return [unflatten(vec, left_basis, right_basis)
            for vec in nullspace(Matrix.sparse(rows, width))]


def class_in_span(space: Sequence[TensorClass], w: TensorClass) -> bool:
    """Membership of ``w`` in the rational span of ``space``.

    Serves closed rings and module pairs alike.  The nonzero coefficients
    of the space's classes are reduced once, as sparse rows over the flat
    index ``i*n_right + j``; ``w`` is in the span iff inserting it adds no
    pivot.  Raises ``ValueError`` if a class differs in shape from ``w``.
    """
    if any(s.mu.shape != w.mu.shape for s in space):
        raise ValueError("classes of different shapes have no common span")
    n = w.mu.cols
    rows = [{i * n + j: v for (i, j), v in s.mu.terms()}
            for s in (*space, w)]
    return not _insert(_reduce(rows[:-1]), rows[-1])


def symmetric_family(ring: RingStructure, mode: SignMode, w: TensorClass,
                     x: RingElement, y: RingElement) -> TensorClass:
    """The derived symmetric class ``(x (x) 1) . w . (1 (x) y)``.

    Requires ``w`` symmetric.  The result always equals ``w.(1 (x) x.y)``;
    for evenly graded rings it is symmetric again (checked here).  With
    odd-degree classes present the product can leave the symmetric space,
    so in that case the caller must re-check symmetry itself.
    """
    if not check_symmetry(ring, mode, w).ok:
        raise ValueError("input class is not symmetric")
    step = tensor_multiply(ring, ring, mode, left_factor(ring, ring, x), w)
    result = tensor_multiply(ring, ring, mode, step,
                             right_factor(ring, ring, y))
    xy = multiply(ring, x, y)
    via_product = tensor_multiply(ring, ring, mode, w,
                                  right_factor(ring, ring, xy))
    assert result.mu == via_product.mu, \
        "family product disagrees with multiplication through the ring"
    if all(d % 2 == 0 for d in ring.basis.degrees):
        assert check_symmetry(ring, mode, result).ok, \
            "family member lost symmetry on an evenly graded ring"
    return result


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
    tensor: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), va in ring_a.tensor.items():
        for (ip, jp, kp), vb in ring_b.tensor.items():
            sign = koszul_sign(mode, deg_b[ip], deg_a[j])
            tensor[(flat(i, ip), flat(j, jp), flat(k, kp))] = sign * va * vb
    return RingStructure(basis, tensor)
