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
from math import lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .linalg import Matrix, Vector, _Echelon, _insert, frac, invert, rank

if TYPE_CHECKING:
    from .boundary import ModulePair

# structure constants: int where integral, Fraction otherwise
SparseTensor = Mapping[tuple[int, int, int], int | Fraction]
ProductMap = Mapping[tuple[int, int], Mapping[int, int | Fraction]]
# an associativity defect: (i, j, k, s), then the two sides' coefficients
Defect = tuple[tuple[int, int, int, int], int | Fraction, int | Fraction]


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
                  ) -> tuple[SparseTensor, ProductMap, int]:
    """Checked nonzero entries of a structure tensor, its product map, and
    the lcm of their denominators.

    The product map ``(i, j) -> {k: value}`` is the working form for
    products; ``what`` names the tensor in the out-of-range error.  A
    value is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise: the two mix exactly, and products of ints
    cost far less.  An ``int`` is kept as it is.  No value is ever
    divided (``1 / int`` is a float).  The lcm, 1 for an integral
    tensor, is what :func:`scaled_action` scales by.
    """
    ni, nj, nk = sizes
    clean: dict[tuple[int, int, int], int | Fraction] = {}
    products: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    denominators = set()
    for (i, j, k), v in raw.items():
        if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
            raise ValueError(f"{what} index {(i, j, k)} out of range")
        if type(v) is not int:
            v = frac(v)
            if v.denominator == 1:
                v = v.numerator
            else:
                denominators.add(v.denominator)
        if v:
            clean[i, j, k] = v
            if (i, j) in products:
                products[i, j][k] = v
            else:
                products[i, j] = {k: v}
    return clean, products, lcm(*denominators)


def scaled_action(acting: RingStructure | ModulePair,
                  den: int) -> ProductMap:
    """The action map of ``acting`` (a ring, acting on itself by its
    product, or a :class:`frobdiag.boundary.ModulePair`) times ``den``.

    ``den`` must be a multiple of every value's denominator, such as the
    lcm of the ring's and the action's own (:func:`sparse_tensor`), so
    every value comes out an int.  Scaling by one common ``den`` keeps
    every linear identity between the maps, and scales an identity of
    degree ``d`` by ``den**d``, so zero patterns, kernels and reduced
    forms stay as they are.  With ``den == 1`` the map itself comes back,
    not a copy.  The scaled map is built once per ``den`` and kept on
    ``acting``, as ``_generators`` is: the associativity certificate,
    :func:`generators`, the residual oracle and the symmetry system all
    ask for the same one.
    """
    scaled = acting._scaled.get(den)
    if scaled is None:
        products = acting._action_products
        scaled = products if den == 1 else {
            key: {k: v.numerator * (den // v.denominator)
                  for k, v in coeffs.items()}
            for key, coeffs in products.items()}
        acting._scaled[den] = scaled
    return scaled


class RingStructure:
    """A graded basis plus the sparse multiplication tensor.

    ``_den`` is the lcm of the constants' denominators (see
    :func:`sparse_tensor`); ``_generators`` caches :func:`generators`,
    which is filled on first use.  A ring is the pair whose module is the
    ring, acting by its product: its ``ring`` is itself, its
    ``module_basis`` its basis and its ``_action_products`` its
    ``_products``, so code written for a pair takes a ring as it is.
    ``_scaled`` keeps that map scaled to ints by each denominator asked
    for (:func:`scaled_action`).
    """

    __slots__ = ("basis", "tensor", "_products", "_den", "_generators",
                 "_action_products", "_scaled")

    def __init__(self, basis: GradedBasis,
                 tensor: Mapping[tuple[int, int, int], int | str | Fraction]):
        if basis.unit_index is None:
            raise ValueError("a ring basis must carry a unit index")
        n = basis.size
        self.basis = basis
        self.tensor, self._products, self._den = sparse_tensor(
            tensor, (n, n, n), "tensor")
        self._generators: tuple[int, ...] | None = None
        self._action_products = self._products
        self._scaled: dict[int, ProductMap] = {}

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def ring(self) -> RingStructure:
        return self

    @property
    def module_basis(self) -> GradedBasis:
        return self.basis

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


def associativity_defects(products: ProductMap, action: ProductMap,
                          middles: Iterable[int] | None = None
                          ) -> Iterator[Defect]:
    """Where ``(y_i.y_j).x_k`` and ``y_i.(y_j.x_k)`` differ, in index order.

    ``products`` maps ``(i, j)`` to the coefficients of ``y_i.y_j``, and
    ``action`` maps ``(i, k)`` to those of ``y_i`` acting on ``x_k``; for
    a ring acting on itself the two are the same map.  Both sides are
    contracted over the middle index straight from the sparse maps, with
    no dense elements.  Only the triples ``(i, j, k)`` where one side has
    a term are visited: the left side needs an ``m`` in ``y_i.y_j`` that
    acts on ``x_k``, the right side an ``m`` in ``y_j.x_k`` that ``y_i``
    acts on.  ``middles``, when given, restricts ``j`` to its members.
    Yields ``((i, j, k, s), left[s], right[s])``.
    """
    keep = None if middles is None else set(middles)
    by_ring: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    by_module: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    for (i, m), coeffs in action.items():
        by_ring.setdefault(i, {})[m] = coeffs
        by_module.setdefault(m, {})[i] = coeffs
    triples = set()
    for (i, j), ij in products.items():
        if keep is not None and j not in keep:
            continue
        for m in ij:
            for k in by_ring.get(m, ()):
                triples.add((i, j, k))
    for (j, k), jk in action.items():
        if keep is not None and j not in keep:
            continue
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


def _generators_certify(products: ProductMap, action: ProductMap,
                        middles: Iterable[int], width: int) -> bool:
    """True iff ``associativity_defects(products, action, middles)``
    yields nothing.

    For each middle ``j`` and each ring index ``i`` this checks one
    operator identity, ``A(y_i.y_j) = A(y_i) o A(y_j)``, where ``A(y)``
    is the action of ``y``: ``x_k -> y.x_k``.  Its entry at ``(k, s)``
    is ``sum_m t[i, j, m] a[m, k, s]`` on the left and ``sum_m a[j, k,
    m] a[i, m, s]`` on the right, the two sides of
    :func:`associativity_defects` at ``(i, j, k, s)``; so every entry of
    every identity vanishes exactly when that scan finds no defect.  The
    difference is one map over the flat index ``k*width + s`` (``width``
    exceeds every module index).  The left side adds up the flat
    operators ``A(y_m)``, each built once.  The right side goes through
    the index ``m -> [(k, c)]`` of ``y_j``'s action, over whichever is
    smaller, that index or ``y_i``'s support, so it costs about the
    number of its terms.  ``i`` runs over the indices with a product
    ``y_i.y_j`` and, when ``y_j`` acts at all, over those that act: an
    ``i`` in neither has no term on either side.
    """
    acts: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    for (i, m), coeffs in action.items():
        acts.setdefault(i, {})[m] = coeffs
    lefts: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    keep = set(middles)
    for (i, j), coeffs in products.items():
        if j in keep:
            lefts.setdefault(j, {})[i] = coeffs
    flat = {m: {k * width + s: v for k, coeffs in row.items()
                for s, v in coeffs.items()}
            for m, row in acts.items()}
    for j in keep:
        index: dict[int, list[tuple[int, int | Fraction]]] = {}
        for k, coeffs in acts.get(j, {}).items():
            for m, c in coeffs.items():
                index.setdefault(m, []).append((k, c))
        left_of = lefts.get(j, {})
        for i in (left_of.keys() | acts.keys()) if index else left_of:
            diff: dict[int, int | Fraction] = {}
            for m, c in left_of.get(i, {}).items():
                for key, v in flat.get(m, {}).items():
                    diff[key] = diff.get(key, 0) + c * v
            support = acts.get(i)
            if index and support:
                if len(index) <= len(support):
                    pairs = ((index[m], support[m])
                             for m in index if m in support)
                else:
                    pairs = ((index[m], out)
                             for m, out in support.items() if m in index)
                for terms, out in pairs:
                    for k, c in terms:
                        base = k * width
                        for s, v in out.items():
                            key = base + s
                            diff[key] = diff.get(key, 0) - c * v
            if any(diff.values()):
                return False
    return True


def _defects_unless_certified(acting: RingStructure | ModulePair,
                              certify: bool) -> Iterator[Defect]:
    """The associativity defects of the action of ``acting`` (a ring, or
    a pair over one) over its ring, unless a generator certificate shows
    there are none.

    With ``certify`` (the caller has found its preconditions clean),
    :func:`_generators_certify` checks the defects with a generator of
    the ring as middle index; when there are none, nothing is yielded.
    It runs on both maps scaled to ints by one common denominator
    (:func:`scaled_action`), which scales every defect by its square and
    so finds one exactly where the maps as given have one.  Otherwise,
    or when the certificate fails, this is :func:`associativity_defects`
    in full, on the maps as given, so a failing report lists every
    defect in index order and with its own values.
    """
    ring = acting.ring
    if certify:
        den = lcm(ring._den, acting._den)
        if _generators_certify(scaled_action(ring, den),
                               scaled_action(acting, den),
                               generators(ring), acting.module_basis.size):
            return iter(())
    return associativity_defects(ring._products, acting._action_products)


def _graded_commutative(products: ProductMap, deg: Sequence[int]) -> bool:
    """Whether each product map of ``products`` equals its transpose,
    negated when both degrees are odd."""
    return all(products.get((j, i)) == ({k: -v for k, v in coeffs.items()}
                                        if deg[i] % 2 and deg[j] % 2
                                        else coeffs)
               for (i, j), coeffs in products.items())


def validate(ring: RingStructure,
             allow_noncommutative: bool = False) -> ValidationReport:
    """Check grading, unit, associativity, and graded commutativity.

    Violations are collected, not raised; an empty report means the tensor
    is a valid graded(-commutative) associative unital multiplication.
    ``allow_noncommutative`` skips only the graded-commutativity axiom.

    When grading and unit hold, associativity is checked on generators
    first (Light's test; Clifford and Preston, *The Algebraic Theory of
    Semigroups I*, 1961), and every triple is scanned only if that finds
    a defect.  Let ``T = {a : (x.a).y = x.(a.y) for all x, y}``.  ``T``
    is a subspace, as the associator is trilinear, and holds the unit by
    the unit axioms.  For ``a``, ``b`` in ``T``, ``(x.ab).y = ((x.a).b).y
    = (x.a).(b.y) = x.(a.(b.y)) = x.((a.b).y)``, each step with ``a`` or
    ``b`` as the middle factor, so ``T`` is closed under products; no
    step assumes associativity.  Hence ``T`` holds the subalgebra that
    :func:`generators` generates, which with valid grading is the whole
    ring (for a ring that is not connected it returns every non-unit
    index, and the check is the full scan).

    The other axioms are settled first by whole-map comparisons, and
    their ordered loops run only when a comparison fails; each
    comparison fails exactly when its loop reports something, so the
    report is the loops' (and the dense loops' over every index pair).
    The product map holds no zeros, so a missing coefficient is 0 and
    two coefficient maps agree exactly when they are equal as dicts.

    - Grading: the loop reports the entries ``(i, j, k)`` with ``|k| !=
      |i| + |j|``; one unsorted pass over the tensor's keys asks whether
      there is one.
    - Unit: the loop reports, on each side, the ``k`` where ``x_u.x_i``
      differs from the indicator of ``i``, over the map's terms and
      ``i``; it is silent exactly when the map is ``{i: 1}``.
    - Graded commutativity: the loop reports, for each pair ``i <= j``
      where a product has a term, the ``k`` where ``x_i.x_j`` differs
      from ``sign * x_j.x_i`` (``sign = -1`` when both degrees are odd).
      :func:`_graded_commutative` compares each key ``(i, j)`` of the
      map with its transpose, negated or not; a pair with a term has a
      key among ``(i, j)`` and ``(j, i)``, and the comparison of either
      settles the pair, as ``sign`` is ``+-1``.  It compares the map
      scaled to ints (:func:`scaled_action`), which the certificate has
      built: scaling both sides by one ``D`` keeps every equality.
    """
    report = ValidationReport()
    basis = ring.basis
    deg = basis.degrees
    n = ring.size
    u = basis.unit_index
    products = ring._products

    if any(deg[k] != deg[i] + deg[j] for i, j, k in ring.tensor):
        for (i, j, k), v in sorted(ring.tensor.items()):
            if deg[k] != deg[i] + deg[j]:
                report.add("grading", (i, j, k),
                           f"entry {v} has degree {deg[i]}+{deg[j]} "
                           f"-> {deg[k]}")

    if not all(products.get((u, i)) == {i: 1} == products.get((i, u))
               for i in range(n)):
        for i in range(n):
            for side, coeffs in (("left", ring.product_coefficients(u, i)),
                                 ("right", ring.product_coefficients(i, u))):
                for k in sorted(coeffs.keys() | {i}):
                    expected = int(k == i)
                    actual = coeffs.get(k, 0)
                    if actual != expected:
                        report.add("unit", (i, k),
                                   f"{side} unit product gives {actual}, "
                                   f"expected {expected}")

    for indices, a, b in _defects_unless_certified(ring, report.ok):
        report.add("associativity", indices, f"{a} != {b}")

    if not allow_noncommutative and not _graded_commutative(
            scaled_action(ring, ring._den), deg):
        partners: list[set[int]] = [set() for _ in range(n)]
        for i, j in products:
            partners[min(i, j)].add(max(i, j))
        for i in range(n):
            for j in sorted(partners[i]):
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
    The picks are made once per ring and kept on it.
    """
    if ring._generators is None:
        ring._generators = tuple(_pick_generators(ring))
    return list(ring._generators)


def _pick_generators(ring: RingStructure) -> list[int]:
    """The reduction behind :func:`generators`.

    Each distinct decomposable product is inserted once: the roughly
    ``n**2/2`` products of ``cp:n`` have only ``n - 1`` distinct
    coefficient maps, and a repeated row never adds a pivot.  A one-term
    product spans its column whatever its value, so it goes in as that
    column's unit row, once per column, with no key to hash.  The maps
    are scaled to ints first (:func:`scaled_action`), which changes no
    span; a longer product is inserted as a copy, since the kernel owns
    the rows it is given and the scaled map is kept on the ring.
    """
    deg = ring.basis.degrees
    unit = ring.basis.unit_index
    candidates = sorted((i for i in range(ring.size) if i != unit),
                        key=lambda i: (deg[i], i))
    if any(deg[i] == 0 for i in candidates):
        return candidates
    products = scaled_action(ring, ring._den)
    echelon = _Echelon()
    columns: set[int] = set()
    seen = set()
    for (i, j), coeffs in products.items():
        if i == unit or j == unit:
            continue
        if len(coeffs) == 1:
            k, = coeffs
            if k not in columns:
                columns.add(k)
                _insert(echelon, {k: 1})
        else:
            key = frozenset(coeffs.items())
            if key not in seen:
                seen.add(key)
                _insert(echelon, dict(coeffs))
    return [k for k in candidates if _insert(echelon, {k: 1})]


# ---------------------------------------------------------------------------
# duality

def pairing_matrix(ring: RingStructure) -> Matrix:
    """Matrix ``(i, j) -> coefficient of the top class in x_i . x_j``.

    This is the intersection form of the underlying manifold when the top
    class is normalized against the fundamental class.
    """
    return _top_entries(ring)


def _top_index(acting: RingStructure | ModulePair) -> int:
    """The top index of the module that ``acting`` acts on (for a ring,
    its own basis)."""
    top = acting.module_basis.top_index
    if top is None:
        kind = "ring" if acting is acting.ring else "module"
        raise MissingTopClassError(f"{kind} has no top basis index")
    return top


def _top_entries(acting: RingStructure | ModulePair) -> Matrix:
    """The matrix ``(i, j) -> top coefficient of y_i ^ x_j`` of ``acting``,
    with ring rows and module columns, from the action map's terms."""
    top = _top_index(acting)
    entries: list[list] = [[] for _ in range(acting.ring.size)]
    for (i, j), coeffs in acting._action_products.items():
        if top in coeffs:
            entries[i].append((j, coeffs[top]))
    return Matrix.sparse(entries, acting.module_basis.size)


def check_poincare_duality(ring: RingStructure) -> bool:
    """True iff the top-degree pairing matrix is invertible."""
    p = pairing_matrix(ring)
    return rank(p) == p.rows


def change_basis(ring: RingStructure, p: Matrix) -> RingStructure:
    """Transport the structure tensor to the basis ``x'_a = sum_i p[i,a] x_i``.

    ``p`` must be invertible; it should be degree-preserving (block
    diagonal over the degree components) for the result to pass grading
    validation, and should fix the unit and top columns to keep their
    normalizations.  With ``q = p^-1``, ``t'[a,b,c] = sum p[i,a] p[j,b]
    t[i,j,k] q[c,k]`` over the nonzero terms of ``t``, ``p`` and ``q``.
    """
    n = ring.size
    if p.shape != (n, n):
        raise ValueError(f"basis-change matrix must be {n}x{n}, got {p.shape}")
    new_of: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for (i, a), v in p.terms():
        new_of[i].append((a, v))
    q_of: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for (c, k), v in invert(p).terms():
        q_of[k].append((c, v))
    tensor: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), coeffs in ring._products.items():
        # x_i.x_j over the new basis, then spread over x'_a and x'_b
        moved: dict[int, Fraction] = {}
        for k, v in coeffs.items():
            for c, qv in q_of[k]:
                moved[c] = moved.get(c, 0) + v * qv
        for a, pa in new_of[i]:
            for b, pb in new_of[j]:
                scale = pa * pb
                for c, v in moved.items():
                    key = (a, b, c)
                    tensor[key] = tensor.get(key, 0) + scale * v
    return RingStructure(ring.basis, dict(sorted(tensor.items())))
