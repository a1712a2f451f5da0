"""How a ring or a module pair stores its structure constants.

The constants are stored once, as one map ``(i, j) -> {k: D * value}``
of ints over the lcm ``D`` of their denominators (:func:`sparse_tensor`,
:class:`_Constants`).  The arithmetic reads only that map, with the
ring's over their common denominator (:func:`common_maps`), and divides
by ``D`` once, where a result leaves the package; the one exact form is
the flat tensor that a ring shows as ``tensor`` and a pair as ``action``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import TYPE_CHECKING, Mapping

from .linalg import frac

if TYPE_CHECKING:
    from .boundary import ModulePair
    from .ring import RingStructure

# the exact constants: int where integral, Fraction otherwise
SparseTensor = Mapping[tuple[int, int, int], int | Fraction]
# the stored form: (i, j) -> {k: D * value}, ints over one denominator D
ProductMap = Mapping[tuple[int, int], Mapping[int, int]]


def sparse_tensor(raw: Mapping[tuple[int, int, int], int | str | Fraction],
                  sizes: tuple[int, int, int], what: str
                  ) -> tuple[ProductMap, int]:
    """Checked structure constants as one int map, with its denominator.

    Returns ``(ints, D)``.  ``D`` is the lcm of the values' denominators
    (1 for an integral tensor), and ``ints`` maps ``(i, j)`` to
    ``{k: D * value}`` over the nonzero values, in the order of ``raw``:
    the one form in which a ring or pair stores its constants
    (:class:`_Constants`).  ``what`` names the tensor in the out-of-range
    error.  An ``int`` is kept as it is and any other value goes through
    ``frac``; no value is ever divided (``1 / int`` is a float).
    """
    ni, nj, nk = sizes
    ints: dict[tuple[int, int], dict[int, int | Fraction]] = {}
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
        if not v:
            continue
        if (i, j) in ints:
            ints[i, j][k] = v
        else:
            ints[i, j] = {k: v}
    den = lcm(*denominators)
    if den > 1:
        for coeffs in ints.values():
            for k, v in coeffs.items():
                coeffs[k] = (v * den if type(v) is int
                             else v.numerator * (den // v.denominator))
    return ints, den


def _exact(v: int, den: int) -> int | Fraction:
    """``v / den`` as an int when it is one, and as a Fraction otherwise."""
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


def _lowest_terms(ints: dict[tuple[int, int], dict[int, int]],
                  den: int) -> tuple[ProductMap, int]:
    """Nonzero constants ``ints`` over a multiple ``den`` of their lcm,
    divided in place with ``den`` by their gcd ``G``: ``den / G`` is
    that lcm."""
    values = chain.from_iterable(map(dict.values, ints.values()))
    g = gcd(den, *values) if den > 1 else 1
    if g > 1:
        for coeffs in ints.values():
            for k in coeffs:
                coeffs[k] //= g
    return ints, den // g


class _Constants:
    """Structure constants stored once, as ints over one denominator.

    ``_ints`` maps ``(i, j)`` to ``{k: D * value}`` over the nonzero
    values, and ``_den`` is ``D``, the lcm of the values' denominators
    (:func:`sparse_tensor`); the arithmetic reads only these.  The one
    exact form is :meth:`_flat_view`, the ``(i, j, k) -> value`` map that
    a ring shows as ``tensor`` and a pair as ``action``, built on first
    use and kept.  ``_common`` keeps the copies that :func:`common_maps`
    builds when the ring's denominator differs from this one, and
    ``_pairing`` the pairing matrix (:func:`frobdiag.ring.pairing_matrix`).
    ``_valid`` is set by a clean :func:`frobdiag.ring.validate` of a ring
    or :func:`frobdiag.boundary.validate_module` of a pair, and never
    cleared, as the constants never change; the symmetry systems and the
    residual check then probe the ring's generators only
    (:func:`frobdiag.diagonal._symmetry_system`).
    """

    __slots__ = ("_ints", "_den", "_common", "_flat", "_pairing", "_valid")

    def _store(self, ints: ProductMap, den: int) -> None:
        self._ints, self._den = ints, den
        self._common = self._flat = self._pairing = None
        self._valid = False

    def _flat_view(self) -> SparseTensor:
        if self._flat is None:
            den = self._den
            self._flat = {(i, j, k): v if den == 1 else _exact(v, den)
                          for (i, j), coeffs in self._ints.items()
                          for k, v in coeffs.items()}
        return self._flat


def common_maps(acting: RingStructure | ModulePair
                ) -> tuple[ProductMap, ProductMap]:
    """The ring's product map and the action map of ``acting`` (a ring,
    acting on itself by its product, or a
    :class:`frobdiag.boundary.ModulePair`), both as ints over the lcm
    ``D`` of their denominators.

    Scaling by one common ``D`` keeps every linear identity between the
    maps, and scales an identity of degree ``d`` by ``D**d``, so zero
    patterns, kernels and reduced forms stay as they are.  When the
    two denominators agree (always for a ring) these are the stored maps
    themselves, not copies; otherwise the copies are built once and kept
    on ``acting``: the associativity certificate, the residual oracle and
    the symmetry system all ask for them.
    """
    ring = acting.ring
    if ring._den == acting._den:
        return ring._ints, acting._ints
    if acting._common is None:
        den = lcm(ring._den, acting._den)
        acting._common = tuple(
            m._ints if m._den == den
            else {key: {k: v * (den // m._den) for k, v in coeffs.items()}
                  for key, coeffs in m._ints.items()}
            for m in (ring, acting))
    return acting._common
