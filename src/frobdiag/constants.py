"""How a ring or a module pair stores its structure constants.

The constants are stored once, as one map ``(i, j) -> {k: D * value}``
of ints over the lcm ``D`` of their denominators (:func:`sparse_tensor`,
:class:`_Constants`).  The exact forms that callers read (the flat
tensor, the exact product map) are views built from it on first use,
and the hot loops read it, with the ring's, over their common
denominator (:func:`common_maps`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Mapping

from .linalg import frac

if TYPE_CHECKING:
    from .boundary import ModulePair
    from .ring import RingStructure

# structure constants: int where integral, Fraction otherwise
SparseTensor = Mapping[tuple[int, int, int], int | Fraction]
ProductMap = Mapping[tuple[int, int], Mapping[int, int | Fraction]]


def sparse_tensor(raw: Mapping[tuple[int, int, int], int | str | Fraction],
                  sizes: tuple[int, int, int], what: str
                  ) -> tuple[ProductMap, int, SparseTensor | None]:
    """Checked structure constants as one int map, with its denominator.

    Returns ``(ints, D, view)``.  ``D`` is the lcm of the values'
    denominators (1 for an integral tensor), and ``ints`` maps ``(i, j)``
    to ``{k: D * value}`` over the nonzero values, in the order of
    ``raw``: the one form in which a ring or pair stores its constants
    (:class:`_Constants`).  ``view`` is ``raw`` itself when it is a dict
    already in the exact views' form, every value nonzero and an ``int``
    or a non-integral ``Fraction``, and ``None`` otherwise.  ``what``
    names the tensor in the out-of-range error.  An ``int`` is kept as it
    is and any other value goes through ``frac``; no value is ever
    divided (``1 / int`` is a float).
    """
    ni, nj, nk = sizes
    ints: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    denominators = set()
    view = raw if type(raw) is dict else None
    for (i, j, k), v in raw.items():
        if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
            raise ValueError(f"{what} index {(i, j, k)} out of range")
        if type(v) is not int:
            v = frac(v)
            if v.denominator == 1:
                v = v.numerator
                view = None
            else:
                denominators.add(v.denominator)
        if not v:
            view = None
        elif (i, j) in ints:
            ints[i, j][k] = v
        else:
            ints[i, j] = {k: v}
    den = lcm(*denominators)
    if den > 1:
        for coeffs in ints.values():
            for k, v in coeffs.items():
                coeffs[k] = (v * den if type(v) is int
                             else v.numerator * (den // v.denominator))
    return ints, den, view


def _exact(v: int, den: int) -> int | Fraction:
    """``v / den`` as an int when it is one, and as a Fraction otherwise."""
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


class _Constants:
    """Structure constants stored once, as ints over one denominator.

    ``_ints`` maps ``(i, j)`` to ``{k: D * value}`` over the nonzero
    values, and ``_den`` is ``D``, the lcm of the values' denominators
    (:func:`sparse_tensor`).  Every other form is a view, built from
    ``_ints`` on first use and kept: :meth:`_exact_view`, the same map
    with the exact values (``_ints`` itself when ``D == 1``), and
    :meth:`_flat_view`, the ``(i, j, k) -> value`` map that a ring shows
    as ``tensor`` and a pair as ``action`` (the map given to the
    constructor, when it already had that form; it is kept, not copied).
    ``_common`` keeps the copies that :func:`common_maps` builds when the
    ring's denominator differs from this one.  ``_pairing`` keeps the
    pairing matrix, read off ``_ints`` on first use
    (:func:`frobdiag.ring._top_entries`).  ``_valid`` is set by a clean
    :func:`frobdiag.ring.validate` of a ring or
    :func:`frobdiag.boundary.validate_module` of a pair, and never
    cleared, as the constants never change; the symmetry systems and the
    residual check then probe the ring's generators only
    (:func:`frobdiag.diagonal._symmetry_system`).
    """

    __slots__ = ("_ints", "_den", "_common", "_exact", "_flat", "_pairing",
                 "_valid")

    def _store(self, ints: ProductMap, den: int,
               flat: SparseTensor | None) -> None:
        self._ints, self._den, self._flat = ints, den, flat
        self._exact = ints if den == 1 else None
        self._common = self._pairing = None
        self._valid = False

    def _exact_view(self) -> ProductMap:
        if self._exact is None:
            den = self._den
            self._exact = {key: {k: _exact(v, den) for k, v in coeffs.items()}
                           for key, coeffs in self._ints.items()}
        return self._exact

    def _flat_view(self) -> SparseTensor:
        if self._flat is None:
            self._flat = {(i, j, k): v
                          for (i, j), coeffs in self._exact_view().items()
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
