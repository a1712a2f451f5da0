"""Hypothesis strategies shared by the product oracle and theorem tests.

Rings are catalog rings, as they are or moved to another basis by
``change_basis`` with an integer, unimodular, degree-preserving matrix,
so their structure constants are no longer mostly ones; pairs are the
``cylinder:`` and ``closed:`` pairs of such rings.  Elements and
coefficient matrices carry integer or rational entries in random zero
patterns; the all-zero and the one-nonzero cases are drawn on purpose.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from frobdiag.boundary import ModulePair
from frobdiag.catalog import (catalog_names, closed_as_pair, cylinder_pair,
                              resolve)
from frobdiag.diagonal import SignMode
from frobdiag.linalg import Matrix
from frobdiag.ring import RingStructure, change_basis

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
def pairs(draw) -> ModulePair:
    """The cylinder or the closed-case pair of a drawn ring."""
    return draw(st.sampled_from((cylinder_pair, closed_as_pair)))(
        draw(rings()))


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
