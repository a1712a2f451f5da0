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
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .constants import (ProductMap, SparseTensor, _Constants, _exact,
                        common_maps, sparse_tensor)
from .linalg import (Matrix, Vector, _Echelon, _insert, _integral, invert,
                     rank)

if TYPE_CHECKING:
    from .boundary import ModulePair

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


class RingStructure(_Constants):
    """A graded basis plus the sparse multiplication tensor.

    The constants are stored once, as ints over one denominator
    (:class:`_Constants`); ``tensor`` and ``product_coefficients`` are
    exact views of them.  ``_generators`` caches :func:`generators`,
    which is filled on first use.  A ring is the pair whose module is the
    ring, acting by its product: its ``ring`` is itself, its
    ``module_basis`` its basis and its ``_action_products`` its exact
    product map, so code written for a pair takes a ring as it is.
    """

    __slots__ = ("basis", "_generators")

    def __init__(self, basis: GradedBasis,
                 tensor: Mapping[tuple[int, int, int], int | str | Fraction]):
        if basis.unit_index is None:
            raise ValueError("a ring basis must carry a unit index")
        n = basis.size
        self.basis = basis
        self._generators: tuple[int, ...] | None = None
        self._store(*sparse_tensor(tensor, (n, n, n), "tensor"))

    @classmethod
    def _from_ints(cls, basis: GradedBasis, ints: ProductMap,
                   den: int) -> RingStructure:
        """The ring over ``basis`` (which carries a unit index) whose
        constants ``ints`` over ``den`` are already checked, as
        :func:`sparse_tensor` returns them."""
        ring = cls.__new__(cls)
        ring.basis = basis
        ring._generators = None
        ring._store(ints, den, None)
        return ring

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def ring(self) -> RingStructure:
        return self

    @property
    def module_basis(self) -> GradedBasis:
        return self.basis

    @property
    def tensor(self) -> SparseTensor:
        """The nonzero constants ``(i, j, k) -> value``, each an int where
        integral and a Fraction otherwise."""
        return self._flat_view()

    @property
    def _action_products(self) -> ProductMap:
        return self._exact_view()

    def product_coefficients(self, i: int,
                             j: int) -> Mapping[int, int | Fraction]:
        """Coefficients of ``x_i . x_j`` as a sparse map ``k -> value``."""
        return self._exact_view().get((i, j), {})

    def __eq__(self, other: object) -> bool:
        # equal constants have one lcm of denominators, and equal
        # multiples of it
        if not isinstance(other, RingStructure):
            return NotImplemented
        return (self.basis == other.basis and self._den == other._den
                and self._ints == other._ints)

    def __repr__(self) -> str:
        return (f"RingStructure({self.basis.size} basis elements, "
                f"dim {self.basis.formal_dimension}, "
                f"{sum(map(len, self._ints.values()))} tensor entries)")


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
    return bilinear_product(ring._action_products, a, b, n)


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
                          width: int, middles: Iterable[int] | None = None
                          ) -> list[Defect]:
    """Where ``(y_i.y_j).x_k`` and ``y_i.(y_j.x_k)`` differ, in index order.

    ``products`` maps ``(i, j)`` to the coefficients of ``y_i.y_j``, and
    ``action`` maps ``(i, k)`` to those of ``y_i`` acting on ``x_k``; for
    a ring acting on itself the two are the same map.  ``width`` exceeds
    every module index, and ``middles``, when given, restricts ``j`` to
    its members.  Returns ``((i, j, k, s), left[s], right[s])``, sorted.

    For each middle ``j`` and each ring index ``i`` this checks one
    operator identity, ``A(y_i.y_j) = A(y_i) o A(y_j)``, where ``A(y)``
    is the action of ``y``: ``x_k -> y.x_k``.  Its entry at ``(k, s)``
    is ``sum_m t[i, j, m] a[m, k, s]`` on the left and ``sum_m a[j, k,
    m] a[i, m, s]`` on the right, the two sides of associativity at
    ``(i, j, k, s)``.  The difference is one map over the flat index
    ``k*width + s``.  The left side adds up the flat operators
    ``A(y_m)``, each built once.  The right side goes through the index
    ``m -> [(k, c)]`` of ``y_j``'s action, over whichever is smaller,
    that index or ``y_i``'s support, so it costs about the number of its
    terms.  ``i`` runs over the indices with a product ``y_i.y_j`` and,
    when ``y_j`` acts at all, over those that act: an ``i`` in neither
    has no term on either side.  Only where the difference is nonzero is
    the left side added up again on its own, to report both sides; so a
    clean identity keeps nothing, and a failing one only its defects.
    """
    acts: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    for (i, m), coeffs in action.items():
        acts.setdefault(i, {})[m] = coeffs
    keep = None if middles is None else set(middles)
    lefts: dict[int, dict[int, Mapping[int, int | Fraction]]] = {}
    for (i, j), coeffs in products.items():
        if keep is None or j in keep:
            lefts.setdefault(j, {})[i] = coeffs
    flat = {m: {k * width + s: v for k, coeffs in row.items()
                for s, v in coeffs.items()}
            for m, row in acts.items()}
    defects: list[Defect] = []
    for j in (lefts.keys() | acts.keys()) if keep is None else keep:
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
                left: dict[int, int | Fraction] = {}
                for m, c in left_of.get(i, {}).items():
                    for key, v in flat.get(m, {}).items():
                        left[key] = left.get(key, 0) + c * v
                for key, d in diff.items():
                    if d:
                        a = left.get(key, 0)
                        defects.append(((i, j, *divmod(key, width)), a,
                                        a - d))
    defects.sort()
    return defects


def _defects_unless_certified(acting: RingStructure | ModulePair,
                              certify: bool) -> list[Defect]:
    """The associativity defects of the action of ``acting`` (a ring, or
    a pair over one) over its ring, each side divided back to the maps as
    given, unless a generator certificate shows there are none.

    :func:`associativity_defects` runs on both maps scaled to ints by one
    common denominator ``D`` (:func:`common_maps`), which scales every
    side by ``D**2`` and so finds a defect exactly where the maps as
    given have one; each side is divided back by :func:`_exact`.  With
    ``certify`` (the caller has found its preconditions clean), it runs
    first with the ring's generators as middle indices, and when that
    finds nothing, nothing is returned.  Otherwise, or when it finds a
    defect, it runs with every middle, so a failing report lists every
    defect in index order and with its exact values.
    """
    maps, width = common_maps(acting), acting.module_basis.size
    if certify and not associativity_defects(*maps, width,
                                             generators(acting.ring)):
        return []
    square = lcm(acting.ring._den, acting._den) ** 2
    return [(at, _exact(a, square), _exact(b, square))
            for at, a, b in associativity_defects(*maps, width)]


def _off_grade(ints: ProductMap, left: Sequence[int],
               right: Sequence[int]) -> list[tuple[int, int, int]]:
    """The grading rule: the keys ``(i, j, k)`` of the stored map
    ``ints`` with ``right[k] != left[i] + right[j]``, sorted (``left``
    holds the ring's degrees, ``right`` the ring's or the module's)."""
    return sorted((i, j, k) for (i, j), coeffs in ints.items()
                  for k in coeffs if right[k] != left[i] + right[j])


def _off_unit(sides: Sequence[Sequence[Mapping[int, int]]],
              den: int) -> list[tuple[int, int, int]]:
    """The unit rule: the ``(i, s, k)``, sorted, where ``sides[s][i]``,
    the stored coefficients (over ``den``) of a product of the unit with
    ``x_i``, differ at ``k`` from the indicator of ``i``."""
    return sorted((i, s, k) for s, products in enumerate(sides)
                  for i, coeffs in enumerate(products) if coeffs != {i: den}
                  for k in coeffs.keys() | {i}
                  if coeffs.get(k, 0) != (den if k == i else 0))


def validate(ring: RingStructure,
             allow_noncommutative: bool = False) -> ValidationReport:
    """Check grading, unit, associativity, and graded commutativity.

    Violations are collected, not raised; an empty report means the tensor
    is a valid graded(-commutative) associative unital multiplication.
    ``allow_noncommutative`` skips only the graded-commutativity axiom.
    An empty report marks the ring valid (``_valid``), so that its
    symmetry systems probe its generators only.

    Associativity is one routine, :func:`associativity_defects`.  When
    grading and unit hold, it runs with generators as middle factors
    first (Light's test; Clifford and Preston, *The Algebraic Theory of
    Semigroups I*, 1961), and with every middle factor only if that
    finds a defect, which the report then lists in full.  Let ``T = {a
    : (x.a).y = x.(a.y) for all x, y}``.  ``T`` is a subspace, as the
    associator is trilinear, and holds the unit by the unit axioms.  For
    ``a``, ``b`` in ``T``, ``(x.ab).y = ((x.a).b).y = (x.a).(b.y) =
    x.(a.(b.y)) = x.((a.b).y)``, each step with ``a`` or ``b`` as the
    middle factor, so ``T`` is closed under products; no step assumes
    associativity.  Hence ``T`` holds the subalgebra that
    :func:`generators` generates, which with valid grading is the whole
    ring (for a ring that is not connected it returns every non-unit
    index, and the first run is already the full one).

    Each other axiom is one pass over the stored map, the constants times
    ``D`` (:class:`_Constants`), that collects the failing keys; they are
    reported in index order, each value read exactly.  The stored map
    holds no zeros, so a missing coefficient is 0, and scaling both sides
    by one ``D`` keeps every equality.  Grading reports the entries
    ``(i, j, k)`` with ``|k| != |i| + |j|`` (:func:`_off_grade`).  Unit
    reports, for each ``i`` and on the left then the right, the ``k``
    where ``x_u.x_i`` differs from the indicator of ``i``
    (:func:`_off_unit`).  Graded commutativity reports, for each pair
    ``i <= j`` whose product ``x_i.x_j`` differs from ``sign * x_j.x_i``
    (``sign = -1`` when both degrees are odd), the ``k`` where they do.
    """
    report = ValidationReport()
    deg = ring.basis.degrees
    u = ring.basis.unit_index
    ints, den = ring._ints, ring._den

    for i, j, k in _off_grade(ints, deg, deg):
        report.add("grading", (i, j, k),
                   f"entry {_exact(ints[i, j][k], den)} has degree "
                   f"{deg[i]}+{deg[j]} -> {deg[k]}")

    sides = ([ints.get((u, i), {}) for i in range(ring.size)],
             [ints.get((i, u), {}) for i in range(ring.size)])
    for i, s, k in _off_unit(sides, den):
        report.add("unit", (i, k),
                   f"{('left', 'right')[s]} unit product gives "
                   f"{_exact(sides[s][i].get(k, 0), den)}, "
                   f"expected {int(k == i)}")

    for indices, a, b in _defects_unless_certified(ring, report.ok):
        report.add("associativity", indices, f"{a} != {b}")

    if not allow_noncommutative:
        mismatched = set()
        for (i, j), coeffs in ints.items():
            if ints.get((j, i)) != ({k: -v for k, v in coeffs.items()}
                                    if deg[i] % 2 and deg[j] % 2
                                    else coeffs):
                mismatched.add((min(i, j), max(i, j)))
        for i, j in sorted(mismatched):
            sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
            fwd, bwd = ints.get((i, j), {}), ints.get((j, i), {})
            for k in set(fwd) | set(bwd):
                a, b = fwd.get(k, 0), bwd.get(k, 0)
                if a != sign * b:
                    report.add("graded-commutativity", (i, j, k),
                               f"{_exact(a, den)} != "
                               f"{'-' if sign < 0 else ''}{_exact(b, den)}")
    if report.ok:
        ring._valid = True
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
    column's unit row, once per column, with no key to hash.  The pick
    reads the stored map, the constants times ``D`` (:class:`_Constants`),
    which changes no span; a longer product is inserted as a copy, since
    the kernel owns the rows it is given.
    """
    deg = ring.basis.degrees
    unit = ring.basis.unit_index
    candidates = sorted((i for i in range(ring.size) if i != unit),
                        key=lambda i: (deg[i], i))
    if any(deg[i] == 0 for i in candidates):
        return candidates
    echelon = _Echelon()
    columns: set[int] = set()
    seen = set()
    for (i, j), coeffs in ring._ints.items():
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
    with ring rows and module columns, read exactly off the stored map's
    terms (:class:`_Constants`) on first use and kept on ``acting``; a
    :class:`Matrix` is immutable, so every caller can share it."""
    if acting._pairing is None:
        top = _top_index(acting)
        den = acting._den
        entries: list[list] = [[] for _ in range(acting.ring.size)]
        for (i, j), coeffs in acting._ints.items():
            if top in coeffs:
                entries[i].append((j, _exact(coeffs[top], den)))
        acting._pairing = Matrix.sparse(entries, acting.module_basis.size)
    return acting._pairing


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
    The sums run in ints: ``p``, ``q`` and the stored constants are ints
    over ``dp``, ``dq`` and ``D``, so each ``t'`` is an int ``s`` over
    ``E = dp**2 dq D``.  With ``G`` the gcd of ``E`` and every ``s``,
    ``E / G`` is the lcm of the reduced denominators of the ``s / E``,
    and the ``s / G`` are the new ring's stored constants over it.
    """
    n = ring.size
    if p.shape != (n, n):
        raise ValueError(f"basis-change matrix must be {n}x{n}, got {p.shape}")
    p_ints, dp = _integral(dict(p.terms()))
    q_ints, dq = _integral(dict(invert(p).terms()))
    new_of: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, a), v in p_ints.items():
        new_of[i].append((a, v))
    q_of: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (c, k), v in q_ints.items():
        q_of[k].append((c, v))
    sums: dict[tuple[int, int, int], int] = {}
    for (i, j), coeffs in ring._ints.items():
        # x_i.x_j over the new basis, then spread over x'_a and x'_b
        moved: dict[int, int] = {}
        for k, v in coeffs.items():
            for c, qv in q_of[k]:
                moved[c] = moved.get(c, 0) + v * qv
        for a, pa in new_of[i]:
            for b, pb in new_of[j]:
                scale = pa * pb
                for c, v in moved.items():
                    key = (a, b, c)
                    sums[key] = sums.get(key, 0) + scale * v
    e = dp * dp * dq * ring._den
    g = gcd(e, *sums.values())
    ints: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b, c), s in sorted(sums.items()):
        if s:
            ints.setdefault((a, b), {})[c] = s // g
    return RingStructure._from_ints(ring.basis, ints, e // g)
