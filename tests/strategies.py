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

from fractions import Fraction

from hypothesis import strategies as st

from frobdiag.boundary import ModulePair, _relative_symmetry_system
from frobdiag.catalog import (catalog_names, closed_as_pair, cylinder_pair,
                              resolve)
from frobdiag.diagonal import (SignMode, TensorClass, _blocks,
                               _symmetry_system)
from frobdiag.linalg import Matrix
from frobdiag.ring import GradedBasis, RingStructure, change_basis


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


def system_of(payload, probes=None) -> tuple:
    """``(build, ring, module_basis, acting)`` for the symmetry system of a
    ring or a pair, as its solvers pass them to
    ``diagonal._reduce_blocks``: ``build(degree)`` is the block of that
    total degree, or the whole system for ``None``, and takes the shared
    product index as an optional second argument."""
    if isinstance(payload, ModulePair):
        return (lambda degree, index=None: _relative_symmetry_system(
                    payload, probes, degree, index),
                payload.ring, payload.module_basis, payload)
    return (lambda degree, index=None: _symmetry_system(
                payload, payload.basis, payload, probes, degree, index),
            payload, payload.basis, payload)


def block_rows(payload, probes=None) -> tuple[list[tuple], int]:
    """The rows of the symmetry system of a ring or a pair, built block by
    block as its solvers build them, each as its nonzero ``(column,
    value)`` pairs sorted by column; and the number of unknowns."""
    build, *args = system_of(payload, probes)
    rows, width = [], None
    for degree in _blocks(*args):
        block, width = build(degree)
        rows += [tuple(sorted(row.items())) for row in block]
    return rows, width


RING_NAMES = [name for name in catalog_names()
              if isinstance(resolve(name).payload, RingStructure)]
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
