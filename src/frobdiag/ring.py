"""Graded-commutative rings presented by structure constants.

A ring is an ordered homogeneous basis together with the sparse tensor
``t[(i, j, k)]`` expanding basis products::

    x_i . x_j = sum_k t[(i, j, k)] x_k

Index 0 is conventionally the unit; the top index (the generator paired
with the fundamental class) is explicit so bases need not be sorted by
degree.  Ring elements are plain coefficient tuples over the basis.

Validation reports every violated axiom instead of stopping at the first,
so a bad input file can be diagnosed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .linalg import Matrix, Vector, _Echelon, _insert, frac, invert, rank

# structure constants: int where integral, Fraction otherwise
SparseTensor = Mapping[tuple[int, int, int], int | Fraction]
ProductMap = Mapping[tuple[int, int], Mapping[int, int | Fraction]]


class MissingTopClassError(ValueError):
    """Raised when an operation needs a top basis index and none is set."""


@dataclass(frozen=True)
class GradedBasis:
    """Ordered basis labels with degrees, a unit index, and a top index.

    ``unit_index`` is ``None`` for bases of modules, which carry no unit.
    """

    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    formal_dimension: int
    unit_index: int | None = 0
    top_index: int | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees have different lengths")
        if not self.labels:
            raise ValueError("basis must be nonempty")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        if self.formal_dimension < 0:
            raise ValueError("formal dimension must be nonnegative")
        if self.unit_index is not None:
            if not 0 <= self.unit_index < len(self.labels):
                raise ValueError("unit index out of range")
            if self.degrees[self.unit_index] != 0:
                raise ValueError("unit basis element must have degree 0")
        if self.top_index is not None:
            if not 0 <= self.top_index < len(self.labels):
                raise ValueError("top index out of range")
            if self.degrees[self.top_index] != self.formal_dimension:
                raise ValueError(
                    "top basis element must sit in the formal dimension")

    @property
    def size(self) -> int:
        return len(self.labels)


RingElement = Vector


def sparse_tensor(raw: Mapping[tuple[int, int, int], int | str | Fraction],
                  sizes: tuple[int, int, int], what: str
                  ) -> tuple[SparseTensor, ProductMap]:
    """Checked nonzero entries of a structure tensor, and its product map.

    The product map ``(i, j) -> {k: value}`` is the working form for
    products; ``what`` names the tensor in the out-of-range error.  A
    value is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise: the two mix exactly, and products of ints
    cost far less.  No value is ever divided (``1 / int`` is a float).
    """
    ni, nj, nk = sizes
    clean: dict[tuple[int, int, int], int | Fraction] = {}
    for (i, j, k), value in raw.items():
        if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
            raise ValueError(f"{what} index {(i, j, k)} out of range")
        v = frac(value)
        if v != 0:
            clean[(i, j, k)] = v.numerator if v.denominator == 1 else v
    products: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for (i, j, k), v in clean.items():
        products.setdefault((i, j), {})[k] = v
    return clean, products


class RingStructure:
    """A graded basis plus the sparse multiplication tensor."""

    __slots__ = ("basis", "tensor", "_products")

    def __init__(self, basis: GradedBasis,
                 tensor: Mapping[tuple[int, int, int], int | str | Fraction]):
        if basis.unit_index is None:
            raise ValueError("a ring basis must carry a unit index")
        n = basis.size
        self.basis = basis
        self.tensor, self._products = sparse_tensor(tensor, (n, n, n),
                                                    "tensor")

    @property
    def size(self) -> int:
        return self.basis.size

    def product_coefficients(self, i: int,
                             j: int) -> Mapping[int, int | Fraction]:
        """Coefficients of ``x_i . x_j`` as a sparse map ``k -> value``."""
        return self._products.get((i, j), {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingStructure):
            return NotImplemented
        return self.basis == other.basis and self.tensor == other.tensor

    def __repr__(self) -> str:
        return (f"RingStructure({self.basis.size} basis elements, "
                f"dim {self.basis.formal_dimension}, "
                f"{len(self.tensor)} tensor entries)")


# ---------------------------------------------------------------------------
# elements

def basis_element(ring: RingStructure, i: int) -> RingElement:
    return tuple(Fraction(int(j == i)) for j in range(ring.size))


def unit_element(ring: RingStructure) -> RingElement:
    return basis_element(ring, ring.basis.unit_index)


def bilinear_product(products: ProductMap, a: Sequence[Fraction],
                     b: Sequence[Fraction], size: int) -> Vector:
    """``sum a[i] b[j] products[(i, j)]`` as a length-``size`` tuple.

    Only pairs of nonzero coefficients are multiplied, and only where
    ``products`` has a term for them.
    """
    out = [Fraction(0)] * size
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in b_terms:
            coeffs = products.get((i, j))
            if coeffs:
                c = ai * bj
                for k, v in coeffs.items():
                    out[k] += c * v
    return tuple(out)


def multiply(ring: RingStructure, a: Sequence[Fraction],
             b: Sequence[Fraction]) -> RingElement:
    """Bilinear extension of the structure tensor to ring elements."""
    n = ring.size
    if len(a) != n or len(b) != n:
        raise ValueError(
            f"element length mismatch: {len(a)}, {len(b)} over basis of {n}")
    return bilinear_product(ring._products, a, b, n)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} at {self.indices}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, indices: tuple[int, ...], detail: str) -> None:
        self.violations.append(Violation(axiom, indices, detail))

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


def associativity_defects(products: ProductMap, action: ProductMap
                          ) -> Iterator[tuple[tuple[int, int, int, int],
                                              int | Fraction,
                                              int | Fraction]]:
    """Where ``(y_i.y_j).x_k`` and ``y_i.(y_j.x_k)`` differ, in index order.

    ``products`` maps ``(i, j)`` to the coefficients of ``y_i.y_j``, and
    ``action`` maps ``(i, k)`` to those of ``y_i`` acting on ``x_k``; for
    a ring acting on itself the two are the same map.  Both sides are
    contracted over the middle index straight from the sparse maps, with
    no dense elements.  Only the triples ``(i, j, k)`` where one side has
    a term are visited: the left side needs an ``m`` in ``y_i.y_j`` that
    acts on ``x_k``, the right side an ``m`` in ``y_j.x_k`` that ``y_i``
    acts on.  Yields ``((i, j, k, s), left[s], right[s])``.
    """
    by_ring: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    by_module: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    for (i, m), coeffs in action.items():
        by_ring.setdefault(i, {})[m] = coeffs
        by_module.setdefault(m, {})[i] = coeffs
    triples = set()
    for (i, j), ij in products.items():
        for m in ij:
            for k in by_ring.get(m, ()):
                triples.add((i, j, k))
    for (j, k), jk in action.items():
        for m in jk:
            for i in by_module.get(m, ()):
                triples.add((i, j, k))
    for i, j, k in sorted(triples):
        left = _contract(products.get((i, j), {}), by_module.get(k, {}))
        right = _contract(action.get((j, k), {}), by_ring.get(i, {}))
        for s in sorted(left.keys() | right.keys()):
            a, b = left.get(s, 0), right.get(s, 0)
            if a != b:
                yield (i, j, k, s), a, b


def _contract(outer: Mapping[int, int | Fraction],
              inner: Mapping[int, Mapping[int, int | Fraction]]
              ) -> dict[int, int | Fraction]:
    """``sum_m outer[m] * inner[m]`` over sparse coefficient maps."""
    out: dict[int, int | Fraction] = {}
    for m, c in outer.items():
        for s, v in inner.get(m, {}).items():
            out[s] = out.get(s, 0) + c * v
    return out


def validate(ring: RingStructure,
             allow_noncommutative: bool = False) -> ValidationReport:
    """Check grading, unit, associativity, and graded commutativity.

    Violations are collected, not raised; an empty report means the tensor
    is a valid graded(-commutative) associative unital multiplication.
    ``allow_noncommutative`` skips only the graded-commutativity axiom.
    """
    report = ValidationReport()
    basis = ring.basis
    deg = basis.degrees
    n = ring.size
    u = basis.unit_index

    for (i, j, k), v in sorted(ring.tensor.items()):
        if deg[k] != deg[i] + deg[j]:
            report.add("grading", (i, j, k),
                       f"entry {v} has degree {deg[i]}+{deg[j]} -> {deg[k]}")

    for i in range(n):
        for side, coeffs in (("left", ring.product_coefficients(u, i)),
                             ("right", ring.product_coefficients(i, u))):
            for k in range(n):
                expected = int(k == i)
                actual = coeffs.get(k, 0)
                if actual != expected:
                    report.add("unit", (i, k),
                               f"{side} unit product gives {actual}, "
                               f"expected {expected}")

    for indices, a, b in associativity_defects(ring._products,
                                               ring._products):
        report.add("associativity", indices, f"{a} != {b}")

    if not allow_noncommutative:
        for i in range(n):
            for j in range(i, n):
                sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
                fwd = ring.product_coefficients(i, j)
                bwd = ring.product_coefficients(j, i)
                for k in set(fwd) | set(bwd):
                    a = fwd.get(k, 0)
                    b = bwd.get(k, 0)
                    if a != sign * b:
                        report.add("graded-commutativity", (i, j, k),
                                   f"{a} != {'-' if sign < 0 else ''}{b}")
    return report


# ---------------------------------------------------------------------------
# generators

def generators(ring: RingStructure) -> list[int]:
    """Indices of basis elements that generate ``ring`` as an algebra.

    The pick is greedy by ``(degree, index)``: a non-unit basis element is
    taken when it lies outside the span of the decomposables ``x_i.x_j``
    (``i``, ``j`` not the unit) and of the elements taken before it.  One
    incremental exact reduction answers every membership question.

    When the ring is connected (the unit is its only basis element of
    degree 0) and valid, the picks generate it; this is graded Nakayama.
    The non-unit basis elements span the ideal ``I`` of positive degree,
    the decomposables span ``I.I``, and by construction the picks of
    degree ``d`` together with ``(I.I)_d`` span ``I_d``.  ``(I.I)_d`` is
    spanned by products of elements of lower positive degree, which by
    induction on ``d`` lie in the subalgebra the picks generate; so does
    ``I_d``, and with the unit so does the ring.  For any other ring the
    argument fails (a product can land back in degree 0), and every
    non-unit index is returned.  Indices come in ``(degree, index)`` order.
    """
    deg = ring.basis.degrees
    unit = ring.basis.unit_index
    candidates = sorted((i for i in range(ring.size) if i != unit),
                        key=lambda i: (deg[i], i))
    if any(deg[i] == 0 for i in candidates):
        return candidates
    echelon = _Echelon()
    for (i, j), coeffs in ring._products.items():
        if i != unit and j != unit:
            _insert(echelon, coeffs)
    return [k for k in candidates if _insert(echelon, {k: 1})]


# ---------------------------------------------------------------------------
# duality

def pairing_matrix(ring: RingStructure) -> Matrix:
    """Matrix ``(i, j) -> coefficient of the top class in x_i . x_j``.

    This is the intersection form of the underlying manifold when the top
    class is normalized against the fundamental class.
    """
    top = ring.basis.top_index
    if top is None:
        raise MissingTopClassError("ring has no top basis index")
    n = ring.size
    return Matrix([[ring.tensor.get((i, j, top), Fraction(0))
                    for j in range(n)] for i in range(n)])


def check_poincare_duality(ring: RingStructure) -> bool:
    """True iff the top-degree pairing matrix is invertible."""
    p = pairing_matrix(ring)
    return rank(p) == p.rows


def check_frobenius_chain(ring: RingStructure) -> bool:
    """Check ``<(x_a . x_b), x_c> = <x_a, (x_b . x_c)>`` for all triples.

    The identity contracts associativity against the top functional; it
    holds for every valid ring with a top class, and is the engine behind
    the inverse-pairing description of the diagonal class.
    """
    p = pairing_matrix(ring)
    n = ring.size
    for a in range(n):
        for b in range(n):
            ab = ring.product_coefficients(a, b)
            for c in range(n):
                bc = ring.product_coefficients(b, c)
                lhs = sum((v * p[j, c] for j, v in ab.items()), Fraction(0))
                rhs = sum((p[a, i] * v for i, v in bc.items()), Fraction(0))
                if lhs != rhs:
                    return False
    return True


def change_basis(ring: RingStructure, p: Matrix) -> RingStructure:
    """Transport the structure tensor to the basis ``x'_a = sum_i p[i,a] x_i``.

    ``p`` must be invertible; it should be degree-preserving (block
    diagonal over the degree components) for the result to pass grading
    validation, and should fix the unit and top columns to keep their
    normalizations.
    """
    n = ring.size
    if p.shape != (n, n):
        raise ValueError(f"basis-change matrix must be {n}x{n}, got {p.shape}")
    q = invert(p)
    tensor: dict[tuple[int, int, int], Fraction] = {}
    for a in range(n):
        va = p.column(a)
        for b in range(n):
            vb = p.column(b)
            prod_old = multiply(ring, va, vb)
            prod_new = q.apply(prod_old)
            for c, v in enumerate(prod_new):
                if v != 0:
                    tensor[(a, b, c)] = v
    return RingStructure(ring.basis, tensor)
