"""Duality data for manifolds with boundary.

The relative cohomology of a pair carries no product of its own, but it is
a module over the absolute cohomology ring.  A :class:`ModulePair` holds
both: the ring with basis ``y_0..y_m`` (tensor ``nu``) and the module with
basis ``x_0..x_N`` acted on by ``y_i ^ x_j = sum_k action[(i,j,k)] x_k``.

The relative pairing sends ``(y_i, x_j)`` to the top coefficient of
``y_i ^ x_j``; when it is nondegenerate its inverse is again the unique
normalized symmetric class, now inside module (x) ring.  A closed ring
embeds as the pair with module = ring and action = multiplication, which
gives a regression path back to the absolute case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .diagonal import (SignMode, SingularPairingError, SymmetryReport,
                       TensorClass, _normalized_solve, _symmetric_space,
                       _symmetry_residuals, _symmetry_system, class_in_span)
# multiply, nullspace, rank and solve are imported only for the
# benchmark's traced run (perfbench/spans.py), which wraps them in this
# module by name
from .linalg import (Matrix, Vector, SingularMatrixError,  # noqa: F401
                     invert, nullspace, rank, solve)
from .ring import (GradedBasis, ProductMap, RingStructure,  # noqa: F401
                   ValidationReport, _defects_unless_certified, _top_entries,
                   _top_index, bilinear_product, multiply, sparse_tensor,
                   validate)

ModuleElement = Vector

# the one symmetry-system builder under the pair's name: the solvers here
# pass it, so the traced run counts their systems in this layer
_relative_symmetry_system = _symmetry_system


class ModulePair:
    """A ring acting on a graded module, with a relative top class.

    ``_den`` is the lcm of the action's denominators (see
    :func:`frobdiag.ring.sparse_tensor`); ``_scaled`` keeps the action
    map scaled to ints by each denominator asked for
    (:func:`frobdiag.ring.scaled_action`).
    """

    __slots__ = ("ring", "module_basis", "action", "_action_products",
                 "_den", "_scaled")

    def __init__(self, ring: RingStructure, module_basis: GradedBasis,
                 action: Mapping[tuple[int, int, int], int | str | Fraction]):
        nm = module_basis.size
        self.ring = ring
        self.module_basis = module_basis
        self.action, self._action_products, self._den = sparse_tensor(
            action, (ring.size, nm, nm), "action")
        self._scaled: dict[int, ProductMap] = {}

    @property
    def formal_dimension(self) -> int:
        return self.module_basis.formal_dimension

    def action_coefficients(self, i: int,
                            j: int) -> Mapping[int, int | Fraction]:
        """Sparse coefficients of ``y_i ^ x_j``."""
        return self._action_products.get((i, j), {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModulePair):
            return NotImplemented
        return (self.ring == other.ring
                and self.module_basis == other.module_basis
                and self.action == other.action)

    def __repr__(self) -> str:
        return (f"ModulePair(ring of {self.ring.size} over module of "
                f"{self.module_basis.size}, dim {self.formal_dimension})")


def act(mp: ModulePair, y: Sequence[Fraction],
        x: Sequence[Fraction]) -> ModuleElement:
    """Bilinear extension of the action tensor: ``y ^ x``."""
    if len(y) != mp.ring.size or len(x) != mp.module_basis.size:
        raise ValueError("element lengths do not match ring/module bases")
    return bilinear_product(mp._action_products, y, x, mp.module_basis.size)


def validate_module(mp: ModulePair,
                    allow_noncommutative: bool = False) -> ValidationReport:
    """Validate the ring axioms of ``nu`` plus the action axioms.

    Ring violations are reported with an ``nu-`` prefix; the action is
    checked for grading, the unit acting as identity, and associativity
    over the ring (``(y.y') ^ x = y ^ (y' ^ x)``); the unit's action is
    read at its terms and at ``x_j`` only, as in :func:`validate`.

    When every other axiom holds, action associativity is checked with
    the ring's generators as middle factors first, and every triple is
    scanned only if that finds a defect.  Let ``T = {a : (y.a)^x =
    y^(a^x) for all y, x}``: a subspace holding the unit.  For ``a``,
    ``b`` in ``T``, ``(y.ab)^x = ((y.a).b)^x = (y.a)^(b^x) =
    y^(a^(b^x)) = y^((a.b)^x)``; the first step is ring associativity,
    checked above, and the others have ``a`` or ``b`` as the middle
    factor.  So ``T`` is the whole ring once it holds a generating set,
    as for :func:`frobdiag.ring.validate`.

    As there, action grading and the unit action are settled by
    whole-map comparisons, and their ordered loops run only when one
    fails.  The grading loop reports the entries with ``|k| != |i| +
    |j|``, and one unsorted pass over the action's keys asks whether
    there is one.  The unit-action loop reports the ``k`` where the
    unit's action on ``x_j`` differs from the indicator of ``j``, over
    the map's terms and ``j``; the action map holds no zeros, so it is
    silent exactly when the map is ``{j: 1}``.
    """
    report = ValidationReport()
    for v in validate(mp.ring, allow_noncommutative=allow_noncommutative):
        report.add(f"nu-{v.axiom}", v.indices, v.detail)

    ring_deg = mp.ring.basis.degrees
    mod_deg = mp.module_basis.degrees
    if any(mod_deg[k] != ring_deg[i] + mod_deg[j] for i, j, k in mp.action):
        for (i, j, k), v in sorted(mp.action.items()):
            if mod_deg[k] != ring_deg[i] + mod_deg[j]:
                report.add("action-grading", (i, j, k),
                           f"entry {v} has degree {ring_deg[i]}+{mod_deg[j]} "
                           f"-> {mod_deg[k]}")

    unit = mp.ring.basis.unit_index
    if not all(mp._action_products.get((unit, j)) == {j: 1}
               for j in range(mp.module_basis.size)):
        for j in range(mp.module_basis.size):
            coeffs = mp.action_coefficients(unit, j)
            for k in sorted(coeffs.keys() | {j}):
                expected = int(k == j)
                actual = coeffs.get(k, 0)
                if actual != expected:
                    report.add("unit-action", (j, k),
                               f"unit acts with {actual}, expected {expected}")

    for indices, a, b in _defects_unless_certified(mp, report.ok):
        report.add("module-associativity", indices, f"{a} != {b}")
    return report


# ---------------------------------------------------------------------------
# the relative pairing and its inverse class

def relative_pairing_matrix(mp: ModulePair) -> Matrix:
    """Matrix ``(i, j) -> top coefficient of y_i ^ x_j``.

    Rows run over the ring basis, columns over the module basis.
    """
    return _top_entries(mp)


def relative_diagonal_class(mp: ModulePair,
                            mode: SignMode = SignMode.LITERAL,
                            probes: Sequence[int] | None = None
                            ) -> TensorClass:
    """The normalized symmetric class of the pair.

    ``mode`` picks the route (the condition is sign-free).  LITERAL inverts
    the relative pairing matrix.  GRADED solves the relative symmetry
    system subject to the normalization that the top row of ``mu`` is the
    unit indicator, demanding uniqueness.
    ``probes`` is passed to :func:`frobdiag.diagonal._symmetry_system`.
    """
    if mode is SignMode.LITERAL:
        p = relative_pairing_matrix(mp)
        try:
            return TensorClass(invert(p), mp.module_basis, mp.ring.basis)
        except SingularMatrixError as exc:
            raise SingularPairingError(
                "relative pairing is degenerate; no diagonal class") from exc
        except ValueError as exc:
            raise SingularPairingError(
                f"relative pairing matrix {p.shape} is not square") from exc

    top, unit = _top_index(mp), mp.ring.basis.unit_index
    pins = [((top, j), int(j == unit)) for j in range(mp.ring.size)]
    return _normalized_solve(_relative_symmetry_system, mp, probes, pins,
                             "relative symmetry system")


def check_relative_top_normalization(mp: ModulePair,
                                     w: TensorClass) -> bool:
    """True iff the top row of ``w.mu`` is the ring-unit indicator."""
    top, unit = _top_index(mp), mp.ring.basis.unit_index
    return all(w.mu[top, j] == Fraction(int(j == unit))
               for j in range(mp.ring.size))


# ---------------------------------------------------------------------------
# the relative symmetry condition

def check_relative_symmetry(mp: ModulePair, w: TensorClass,
                            probes: Sequence[int] | None = None
                            ) -> SymmetryReport:
    """Residuals of ``w.(1(x)y_k) - (y_k(x)1).w`` for every ring element.

    The residual oracle :func:`frobdiag.diagonal._symmetry_residuals`
    with the pair's module basis and action; for the pair whose module is
    the ring this is :func:`frobdiag.diagonal.check_symmetry`.
    ``probes`` is passed to the oracle.
    """
    if (w.left_basis != mp.module_basis
            or w.right_basis != mp.ring.basis):
        raise ValueError("class does not live over this module pair")
    return _symmetry_residuals(mp, w, probes)


def solve_relative_symmetric_space(mp: ModulePair,
                                   probes: Sequence[int] | None = None
                                   ) -> list[TensorClass]:
    """Echelon-normalized basis of all relatively symmetric classes.

    ``probes`` is passed to :func:`frobdiag.diagonal._symmetry_system`.
    """
    return _symmetric_space(_relative_symmetry_system, mp, probes)


# one span check serves both cases; the pair name is kept for callers
relative_class_in_span = class_in_span
