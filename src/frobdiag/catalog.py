"""Known-good rings and module pairs, generated on demand.

Every entry is produced by a small constructor rather than a hardcoded
tensor, so dimension parameters can be swept in tests.  A handful of
flagship entries carry stored expectations (pairing matrix, diagonal
coefficients, dimension of the symmetric solution space) that the test
suite recomputes and compares bit-exactly.

Entry names double as stable identifiers for the command line::

    point            sphere:2         cp:3
    torus:2          product:cp:1,cp:1
    disk:3           cylinder:sphere:2       closed:cp:2

An identifier whose basis would exceed :data:`MAX_BASIS` elements
(``torus:n`` for n > 10, ``cp:n`` for n > 1023, products over the limit,
and the ``cylinder:``/``closed:`` pairs of any of these) is a
:class:`CatalogError`, raised before that basis is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

from .boundary import ModulePair
from .diagonal import SignMode, kunneth_product
from .document import _ECHO_LIMIT, _cut
from .linalg import Matrix
from .ring import GradedBasis, RingStructure


class CatalogError(ValueError):
    """Unknown or malformed catalog identifier."""


MAX_BASIS = 1024  # basis elements of the largest entry the catalog builds


def point() -> RingStructure:
    basis = GradedBasis(labels=("1",), degrees=(0,), formal_dimension=0,
                        unit_index=0, top_index=0)
    return RingStructure(basis, {(0, 0, 0): 1})


def sphere(n: int) -> RingStructure:
    """Two-class ring: a unit and one generator in degree ``n`` squaring
    to zero."""
    if n < 1:
        raise CatalogError(f"sphere dimension must be >= 1, got {n}")
    basis = GradedBasis(labels=("1", "x"), degrees=(0, n),
                        formal_dimension=n, unit_index=0, top_index=1)
    return RingStructure(basis, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})


def complex_projective(n: int) -> RingStructure:
    """Truncated polynomial ring on a degree-2 generator, top power ``n``."""
    if n < 1:
        raise CatalogError(
            f"projective space dimension must be >= 1, got {n}")
    labels = tuple("1" if i == 0 else ("h" if i == 1 else f"h^{i}")
                   for i in range(n + 1))
    degrees = tuple(2 * i for i in range(n + 1))
    basis = GradedBasis(labels=labels, degrees=degrees,
                        formal_dimension=2 * n, unit_index=0, top_index=n)
    tensor = {(i, j, i + j): 1
              for i in range(n + 1) for j in range(n + 1) if i + j <= n}
    return RingStructure(basis, tensor)


def torus(n: int) -> RingStructure:
    """n-fold Koszul-signed power of the circle ring."""
    if n < 1:
        raise CatalogError(f"torus rank must be >= 1, got {n}")
    return reduce(lambda a, b: kunneth_product(a, b, SignMode.GRADED),
                  [sphere(1)] * n)


def disk_pair(n: int) -> ModulePair:
    """The ball and its boundary sphere: trivial ring, one relative class."""
    if n < 1:
        raise CatalogError(f"disk dimension must be >= 1, got {n}")
    ring_basis = GradedBasis(labels=("1",), degrees=(0,),
                             formal_dimension=n, unit_index=0,
                             top_index=None)
    ring = RingStructure(ring_basis, {(0, 0, 0): 1})
    module_basis = GradedBasis(labels=("x",), degrees=(n,),
                               formal_dimension=n, unit_index=None,
                               top_index=0)
    return ModulePair(ring, module_basis, {(0, 0, 0): 1})


def cylinder_pair(ring: RingStructure) -> ModulePair:
    """Cross a closed ring with an interval, relative to both ends.

    The relative group is the ring shifted by the degree-1 interval class;
    the action is the ring's own multiplication, so the relative pairing
    equals the ring's pairing matrix.
    """
    if ring.basis.top_index is None:
        raise CatalogError("cylinder construction needs a ring with a "
                           "top class")
    module_basis = GradedBasis(
        labels=tuple(f"{lbl}*t" for lbl in ring.basis.labels),
        degrees=tuple(d + 1 for d in ring.basis.degrees),
        formal_dimension=ring.basis.formal_dimension + 1,
        unit_index=None,
        top_index=ring.basis.top_index,
    )
    return ModulePair(ring, module_basis, dict(ring.tensor))


def closed_as_pair(ring: RingStructure) -> ModulePair:
    """Embed a closed ring as a pair: module = ring, action = product.

    The module copy of the basis drops the unit marker; modules have no
    unit of their own.
    """
    if ring.basis.top_index is None:
        raise CatalogError("closed-case embedding needs a top class")
    module_basis = replace(ring.basis, unit_index=None)
    return ModulePair(ring, module_basis, dict(ring.tensor))


# ---------------------------------------------------------------------------
# the registry

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    payload: RingStructure | ModulePair
    expected: dict | None = None


def _antidiagonal(n: int) -> Matrix:
    return Matrix([[Fraction(int(i + j == n - 1)) for j in range(n)]
                   for i in range(n)])


# Flagship expectations; every stored value is recomputed by the tests.
_EXPECTATIONS: dict[str, dict] = {
    "sphere:2": {
        "pairing": _antidiagonal(2),
        "mu": _antidiagonal(2),
        "solution_dimension": 2,
    },
    "cp:2": {
        "pairing": _antidiagonal(3),
        "mu": _antidiagonal(3),
        "solution_dimension": 3,
    },
    "torus:2": {
        "pairing": Matrix([[0, 0, 0, 1], [0, 0, -1, 0],
                           [0, 1, 0, 0], [1, 0, 0, 0]]),
        "mu": Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                      [0, -1, 0, 0], [1, 0, 0, 0]]),
        "solution_dimension": 4,
    },
    "disk:3": {
        "pairing": Matrix([[1]]),
        "mu": Matrix([[1]]),
        "solution_dimension": 1,
    },
    "cylinder:sphere:2": {
        "pairing": _antidiagonal(2),
        "mu": _antidiagonal(2),
        "solution_dimension": 2,
    },
}


# a pair wrapper's constructor, and its refusal of a pair inside it
_WRAPPERS = {"cylinder": (cylinder_pair, "cylinder wants a ring entry"),
             "closed": (closed_as_pair,
                        "closed-case embedding wants a ring entry")}


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CatalogError(f"{what} wants an integer parameter, got "
                           f"{_cut(text)!r}") from None


def check_size(name: str, size: int, shown: str | None = None) -> None:
    """Refuse ``name`` if its basis would have more than MAX_BASIS elements.

    ``shown`` is how the message writes the size, when not as a number;
    both are quoted through :func:`frobdiag.document._cut`, and a size
    too long for it to quote whole is written as a bound.
    """
    if size > MAX_BASIS:
        if shown is None:
            shown = str(size) if size < 10 ** _ECHO_LIMIT \
                else f"at least 10^{_ECHO_LIMIT}"
        raise CatalogError(
            f"{_cut(name)} would have {_cut(shown)} basis "
            f"elements, more than the catalog's limit of {MAX_BASIS}")


def resolve(name: str, mode: SignMode = SignMode.LITERAL) -> CatalogEntry:
    """Build the catalog entry for a stable identifier.

    ``mode`` only affects ``product:`` entries; ``torus:`` is always built
    with the Koszul sign, which is what makes it a torus.
    """
    name = name.strip()
    payload: RingStructure | ModulePair
    if name == "point":
        payload = point()
    elif name.startswith("sphere:"):
        payload = sphere(_parse_int(name[len("sphere:"):], "sphere"))
    elif name.startswith("cp:"):
        n = _parse_int(name[len("cp:"):], "cp")
        check_size(name, n + 1)
        payload = complex_projective(n)
    elif name.startswith("torus:"):
        n = _parse_int(name[len("torus:"):], "torus")
        # 2^n, without forming a huge power for a huge n
        check_size(name, 2 ** min(n, MAX_BASIS.bit_length()), f"2^{n}")
        payload = torus(n)
    elif name.startswith("disk:"):
        payload = disk_pair(_parse_int(name[len("disk:"):], "disk"))
    elif name.startswith(("cylinder:", "closed:")):
        # the wrappers are peeled, then applied innermost first, as one
        # recursion per wrapper would, with no stack to overflow
        wrappers, inner = [], name
        while inner.startswith(("cylinder:", "closed:")):
            head, inner = map(str.strip, inner.split(":", 1))
            wrappers.append(_WRAPPERS[head])
        payload = resolve(inner, mode).payload
        for build, refusal in reversed(wrappers):
            if not isinstance(payload, RingStructure):
                raise CatalogError(refusal)
            payload = build(payload)
    elif name.startswith("product:"):
        rest = name[len("product:"):]
        parts = rest.split(",")
        if len(parts) != 2:
            raise CatalogError(
                "product wants exactly two comma-separated entries")
        left = resolve(parts[0], mode)
        right = resolve(parts[1], mode)
        if any(isinstance(e.payload, ModulePair) for e in (left, right)):
            raise CatalogError("product factors must be rings")
        check_size(name, left.payload.size * right.payload.size)
        payload = kunneth_product(left.payload, right.payload, mode)
    else:
        raise CatalogError(f"unknown catalog entry {_cut(name)!r}")
    return CatalogEntry(name=name, payload=payload,
                        expected=_EXPECTATIONS.get(name))


def catalog_names() -> list[str]:
    """Curated identifiers, one per family, suitable for display."""
    return [
        "point",
        "sphere:1",
        "sphere:2",
        "sphere:4",
        "cp:1",
        "cp:2",
        "cp:3",
        "torus:2",
        "product:sphere:2,sphere:2",
        "product:cp:1,cp:1",
        "disk:1",
        "disk:3",
        "cylinder:sphere:2",
        "cylinder:cp:2",
        "closed:sphere:2",
        "closed:cp:2",
    ]
