"""Hypothesis strategies shared by the product oracle and theorem tests.

Rings are catalog rings, as they are or moved to another basis by
``change_basis`` with an integer, unimodular, degree-preserving matrix,
so their structure constants are no longer mostly ones; pairs are the
``cylinder:`` and ``closed:`` pairs of such rings.  Elements and
coefficient matrices carry integer or rational entries in random zero
patterns; the all-zero and the one-nonzero cases are drawn on purpose.
Corrupted rings and pairs have one structure constant changed where the
grading and the unit axioms cannot see it.  Rational rings are drawn rings
moved once more by a diagonal change with non-integral entries, so their
structure constants have denominators.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from fractions import Fraction

from hypothesis import strategies as st

from frobdiag.boundary import (ModulePair, _relative_symmetry_system,
                               validate_module)
from frobdiag.catalog import (catalog_names, closed_as_pair, cylinder_pair,
                              resolve)
from frobdiag.constants import common_maps
from frobdiag.diagonal import (SignMode, TensorClass, _blocks,
                               _symmetry_system, check_symmetry, left_factor,
                               right_factor, tensor_multiply)
from frobdiag.linalg import Matrix, _Echelon, _insert
from frobdiag.ring import (GradedBasis, RingElement, RingStructure,
                           change_basis, generators, multiply, pairing_matrix,
                           validate)


def apply(m: Matrix, v) -> tuple[Fraction, ...]:
    """The matrix-vector product ``m v``, from the nonzero entries of
    ``m``."""
    if len(v) != m.cols:
        raise ValueError(f"vector length {len(v)} != cols {m.cols}")
    out = [Fraction(0)] * m.rows
    for (i, j), x in m.terms():
        out[i] += x * v[j]
    return tuple(out)


def flatten(w: TensorClass) -> tuple[Fraction, ...]:
    """The coefficients of ``w`` in row-major order: ``mu[i, j]`` at flat
    index ``i*n_right + j``."""
    return tuple(v for i in range(w.mu.rows) for v in w.mu.row(i))


def unflatten(vec, left_basis: GradedBasis,
              right_basis: GradedBasis) -> TensorClass:
    """Inverse of :func:`flatten`: ``mu[i, j]`` is ``vec[i*n_right + j]``."""
    n = right_basis.size
    return TensorClass(Matrix.sparse([enumerate(vec[i * n:(i + 1) * n])
                                      for i in range(left_basis.size)], n),
                       left_basis, right_basis)


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


def symmetric_family(ring: RingStructure, mode: SignMode, w: TensorClass,
                     x: RingElement, y: RingElement) -> TensorClass:
    """The derived symmetric class ``(x (x) 1) . w . (1 (x) y)``.

    Requires ``w`` symmetric.  The result always equals ``w.(1 (x) x.y)``;
    for evenly graded rings it is symmetric again (checked here).  With
    odd-degree classes present the product can leave the symmetric space,
    so in that case the caller must re-check symmetry itself.
    """
    if not check_symmetry(ring, w).ok:
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
        assert check_symmetry(ring, result).ok, \
            "family member lost symmetry on an evenly graded ring"
    return result


def builder(payload):
    """The symmetry-system builder that the solvers of a ring or a pair
    pass to ``diagonal._reduce_blocks``: ``build(payload, degree)`` is
    the block of that total degree, or the whole system for ``None``."""
    if isinstance(payload, ModulePair):
        return _relative_symmetry_system
    return _symmetry_system


def validated(payload):
    """A copy of a ring, or of a pair over a copy of its ring, that has
    passed validation, so that its symmetry systems and residual checks
    probe the ring's generators only; ``payload`` is left as it was.
    Graded commutativity is not asked for: the generators stand for every
    probe once the products are associative and unital."""
    twin = copy(payload)
    if isinstance(twin, ModulePair):
        twin.ring = copy(twin.ring)
        assert validate_module(twin, allow_noncommutative=True).ok
    else:
        assert validate(twin, allow_noncommutative=True).ok
    assert twin._valid
    return twin


def inserted_one_at_a_time(rows, echelon: _Echelon | None = None
                           ) -> _Echelon:
    """Integer ``rows`` given to ``_insert`` in the order given, into
    ``echelon`` or a new one: no one-term row settled first and no sort
    by lead, the reference for ``_reduce``."""
    echelon = _Echelon() if echelon is None else echelon
    for row in rows:
        _insert(echelon, row)
    return echelon


def echelon_of(echelon: _Echelon) -> tuple:
    """Pivot rows and column index; a column whose holders have all been
    cleared may be left with an empty set, which holds nothing."""
    return echelon.pivots, {c: held for c, held in echelon.holders.items()
                            if held}


def equations(rows, zeros=()) -> Counter:
    """The equations of a symmetry system, counted: a row of two or more
    terms as its sorted ``(column, value)`` pairs, a one-term row
    ``{c: v}`` or a zero column ``c`` as ``((c, 1),)``, all that the
    builder hands over for it."""
    return Counter([tuple(sorted(row.items())) if len(row) > 1
                    else ((*row, 1),) for row in rows]
                   + [((c, 1),) for c in zeros])


def block_rows(payload) -> tuple[list[tuple], int]:
    """The rows of the symmetry system of a ring or a pair, built block by
    block as its solvers build them, each as its nonzero ``(column,
    value)`` pairs sorted by column; and the number of unknowns.  A
    one-term equation comes from the builder as its column ``c`` alone,
    and is given as the row ``((c, 1),)``.  A payload that has passed
    validation gets the rows of its generator probes only."""
    build = builder(payload)
    rows = []
    for degree in _blocks(payload):
        block, zeros = build(payload, degree)
        rows += [tuple(sorted(row.items())) for row in block]
        rows += [((c, 1),) for c in zeros]
    return rows, payload.module_basis.size * payload.ring.size


def reference_system(acting, degree: int | None = None
                     ) -> tuple[list[dict], int]:
    """The symmetry system of a ring or a pair as a list of equations and
    its number of unknowns, the reference for ``_symmetry_system``.

    One equation per (probe k, module slot i, ring slot s), made one at
    a time: for every probe and every module slot, the ring slots of the
    block's degree (every one for ``degree=None``), each equation a
    ``{column: value}`` map of its nonzero values, one-term equations
    included; equations that vanish are left out.  The probes are the
    ring's generators for a validated ``acting``, every basis index
    otherwise.  The maps are scaled to ints as the solvers scale them.
    """
    ring = acting.ring
    nm, nr = acting.module_basis.size, ring.size
    ring_deg, module_deg = ring.basis.degrees, acting.module_basis.degrees
    products_map, action = common_maps(acting)
    right: dict = {}
    for (j, k), coeffs in products_map.items():
        for s, c in coeffs.items():
            right.setdefault((k, s), []).append((j, c))
    left: dict = {}
    for (k, l), coeffs in action.items():
        for i, c in coeffs.items():
            left.setdefault((k, i), []).append((l, c))
    slots: dict = {}
    for s, d in enumerate(ring_deg):
        slots.setdefault(d, []).append(s)
    every = range(nr)
    rows = []
    for k in generators(ring) if acting._valid else every:
        for i in range(nm):
            acted = left.get((k, i), ())
            base = i * nr
            for s in every if degree is None else slots.get(
                    degree + ring_deg[k] - module_deg[i], ()):
                products = right.get((k, s), ())
                if not acted:
                    if products:
                        rows.append({base + j: c for j, c in products})
                    continue
                row = {base + j: c for j, c in products}
                for l, c in acted:
                    column = l * nr + s
                    value = row.get(column, 0) - c
                    if value:
                        row[column] = value
                    else:
                        del row[column]
                if row:
                    rows.append(row)
    return rows, nm * nr


# the catalog's rings, and two whose degrees hold several decomposable
# classes (rank 3 in degree 2 of torus:3, in degree 4 of cp:2 x cp:2), so
# that a drawn ring's products, moved to another basis, have several terms
RING_NAMES = [name for name in catalog_names()
              if isinstance(resolve(name).payload, RingStructure)
              ] + ["torus:3", "product:cp:2,cp:2"]
# the rings whose odd classes make the Koszul sign show in GRADED mode
ODD_RING_NAMES = [name for name in RING_NAMES
                  if any(d % 2 for d in resolve(name).payload.basis.degrees)]

modes = st.sampled_from(list(SignMode))

nonzero = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4)
                    ).map(Fraction).filter(bool)

# zero drawn twice as often as any other kind of entry
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), nonzero)


@st.composite
def unimodular_degree_preserving(draw, ring: RingStructure) -> Matrix:
    """``L @ U`` on each degree block, ``L``/``U`` unit triangular integer.

    Blocks of one element (the unit and the top class of these rings)
    stay fixed, so the moved ring keeps its normalizations.
    """
    n = ring.size
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for degree in sorted(set(ring.basis.degrees)):
        block = [i for i in range(n) if ring.basis.degrees[i] == degree]
        g = len(block)
        coeff = st.integers(min_value=-2, max_value=2)
        lower = [[1 if r == c else (draw(coeff) if r > c else 0)
                  for c in range(g)] for r in range(g)]
        upper = [[1 if r == c else (draw(coeff) if r < c else 0)
                  for c in range(g)] for r in range(g)]
        for r in range(g):
            for c in range(g):
                p[block[r]][block[c]] = Fraction(
                    sum(lower[r][m] * upper[m][c] for m in range(g)))
    return Matrix(p)


@st.composite
def rings(draw, names: list[str] = RING_NAMES) -> RingStructure:
    """A catalog ring, moved to a drawn basis half of the time."""
    ring = resolve(draw(st.sampled_from(names)), draw(modes)).payload
    if draw(st.booleans()):
        ring = change_basis(ring, draw(unimodular_degree_preserving(ring)))
    return ring


@st.composite
def rational_rings(draw, names: list[str] = RING_NAMES) -> RingStructure:
    """A drawn ring with each basis element other than the unit and the
    top class scaled by a drawn non-integral rational."""
    ring = draw(rings(names))
    fixed = (ring.basis.unit_index, ring.basis.top_index)
    scale = [Fraction(1) if i in fixed
             else draw(nonzero.filter(lambda v: v.denominator > 1))
             for i in range(ring.size)]
    return change_basis(ring, Matrix.sparse(
        [((i, v),) for i, v in enumerate(scale)], ring.size))


@st.composite
def pairs(draw, ring_strategy: st.SearchStrategy = rings()) -> ModulePair:
    """The cylinder or the closed-case pair of a ring drawn from
    ``ring_strategy``."""
    return draw(st.sampled_from((cylinder_pair, closed_as_pair)))(
        draw(ring_strategy))


@st.composite
def elements(draw, n: int) -> tuple[Fraction, ...]:
    """Length-``n`` coefficient tuple: zero, one nonzero, or any pattern."""
    kind = draw(st.sampled_from(("zero", "one", "any")))
    if kind == "zero":
        return (Fraction(0),) * n
    if kind == "one":
        at = draw(st.integers(min_value=0, max_value=n - 1))
        value = draw(nonzero)
        return tuple(value if i == at else Fraction(0) for i in range(n))
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def matrices(draw, rows: int, cols: int) -> Matrix:
    """``rows`` x ``cols`` coefficients, drawn like :func:`elements`."""
    flat = draw(elements(rows * cols))
    return Matrix([flat[i * cols:(i + 1) * cols] for i in range(rows)])


def non_associative_ring() -> RingStructure:
    """1, x, y (degree 2), z (4), t (6) with x.x = z, x.z = y.z = t.

    Graded, unital and commutative, but ``(x.x).y = t`` while
    ``x.(x.y) = 0``.  Its generators are x and y.
    """
    basis = GradedBasis(labels=("1", "x", "y", "z", "t"),
                        degrees=(0, 2, 2, 4, 6), formal_dimension=6,
                        unit_index=0, top_index=4)
    tensor = {(0, i, i): 1 for i in range(5)}
    tensor.update({(i, 0, i): 1 for i in range(1, 5)})
    tensor.update({(1, 1, 3): 1, (1, 3, 4): 1, (3, 1, 4): 1,
                   (2, 3, 4): 1, (3, 2, 4): 1})
    return RingStructure(basis, tensor)


def bad_action_pair() -> ModulePair:
    """1, x, z (degrees 0, 2, 4) with x.x = z, a valid ring generated by
    x, acting on e, f (degrees 0, 4) by z.e = f alone, with x acting as
    zero: ``(x.x).e = f`` but ``x.(x.e) = 0``."""
    ring = RingStructure(
        GradedBasis(labels=("1", "x", "z"), degrees=(0, 2, 4),
                    formal_dimension=4, unit_index=0, top_index=2),
        {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
         (2, 0, 2): 1, (1, 1, 2): 1})
    return ModulePair(ring, GradedBasis(
        labels=("e", "f"), degrees=(0, 4), formal_dimension=4,
        unit_index=None, top_index=1),
        {(0, 0, 0): 1, (0, 1, 1): 1, (2, 0, 1): 1})


def graded_slots(ring_basis: GradedBasis, left_basis: GradedBasis,
                 out_basis: GradedBasis) -> list[tuple[int, int, int]]:
    """``(i, j, k)`` with ``i`` not the ring unit, ``j`` not a unit, and
    degree ``|i| + |j| = |k|``: where a changed constant keeps the
    grading and the unit axioms."""
    ring_deg, left_deg, out_deg = (ring_basis.degrees, left_basis.degrees,
                                   out_basis.degrees)
    return [(i, j, k) for i in range(ring_basis.size)
            for j in range(left_basis.size)
            for k in range(out_basis.size)
            if i != ring_basis.unit_index and j != left_basis.unit_index
            and out_deg[k] == ring_deg[i] + left_deg[j]]


def changed(tensor, slot, amount):
    """A copy of ``tensor`` with ``amount`` added at ``slot``."""
    out = dict(tensor)
    out[slot] = out.get(slot, 0) + amount
    return out


@st.composite
def corrupted_rings(draw, names: list[str] = RING_NAMES) -> RingStructure:
    """A drawn ring with one constant off, or the non-associative ring."""
    ring = draw(rings(names))
    slots = graded_slots(ring.basis, ring.basis, ring.basis)
    if not slots or draw(st.integers(min_value=0, max_value=5)) == 0:
        return non_associative_ring()
    return RingStructure(ring.basis, changed(
        ring.tensor, draw(st.sampled_from(slots)), draw(nonzero)))


@st.composite
def corrupted_pairs(draw) -> ModulePair:
    """A pair with one action constant off, or the pair of a corrupted
    ring."""
    if draw(st.booleans()):
        return draw(st.sampled_from((cylinder_pair, closed_as_pair)))(
            draw(corrupted_rings()))
    mp = draw(pairs())
    slots = graded_slots(mp.ring.basis, mp.module_basis, mp.module_basis)
    if not slots:
        return mp
    return ModulePair(mp.ring, mp.module_basis, changed(
        mp.action, draw(st.sampled_from(slots)), draw(nonzero)))
