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
from .constants import ProductMap, _Constants, _exact, sparse_tensor
from .ring import (GradedBasis, RingStructure, ValidationReport,  # noqa: F401
                   _defects_unless_certified, _off_grade, _off_unit,
                   _top_entries, _top_index, bilinear_product, multiply,
                   validate)

ModuleElement = Vector

# the one symmetry-system builder under the pair's name: the solvers here
# pass it, so the traced run counts their systems in this layer
_relative_symmetry_system = _symmetry_system


class ModulePair(_Constants):
    """A ring acting on a graded module, with a relative top class.

    The action's constants are stored once, as ints over one denominator
    (:class:`frobdiag.constants._Constants`); ``action`` and
    ``action_coefficients`` are exact views of them.  A pair whose action
    is its ring's product, such as a cylinder or a closed ring embedded
    as a pair, shares the ring's stored map (:meth:`_from_ints`) and its
    views.
    """

    __slots__ = ("ring", "module_basis")

    def __init__(self, ring: RingStructure, module_basis: GradedBasis,
                 action: Mapping[tuple[int, int, int], int | str | Fraction]):
        nm = module_basis.size
        self.ring = ring
        self.module_basis = module_basis
        self._store(*sparse_tensor(action, (ring.size, nm, nm), "action"))

    @classmethod
    def _from_ints(cls, ring: RingStructure, module_basis: GradedBasis,
                   ints: ProductMap, den: int) -> ModulePair:
        """The pair whose action constants ``ints`` over ``den`` are
        already checked, as :func:`frobdiag.constants.sparse_tensor` returns
        them.  Passing the ring's own ``_ints`` (with a module basis of
        the ring's size) shares that map with the ring."""
        mp = cls.__new__(cls)
        mp.ring = ring
        mp.module_basis = module_basis
        mp._store(ints, den, None)
        return mp

    def _shares_product(self) -> bool:
        """Whether the action is the ring's product, stored once."""
        return self._ints is self.ring._ints

    @property
    def action(self) -> Mapping[tuple[int, int, int], int | Fraction]:
        """The nonzero constants ``(i, j, k) -> value``, each an int where
        integral and a Fraction otherwise."""
        return (self.ring.tensor if self._shares_product()
                else self._flat_view())

    @property
    def _action_products(self) -> ProductMap:
        return (self.ring._action_products if self._shares_product()
                else self._exact_view())

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
                and self._den == other._den and self._ints == other._ints)

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

    Action associativity is :func:`frobdiag.ring.associativity_defects`
    on the pair's maps.  When every other axiom holds, it runs with the
    ring's generators as middle factors first, and with every middle
    factor only if that finds a defect.  Let ``T = {a : (y.a)^x =
    y^(a^x) for all y, x}``: a subspace holding the unit.  For ``a``,
    ``b`` in ``T``, ``(y.ab)^x = ((y.a).b)^x = (y.a)^(b^x) =
    y^(a^(b^x)) = y^((a.b)^x)``; the first step is ring associativity,
    checked above, and the others have ``a`` or ``b`` as the middle
    factor.  So ``T`` is the whole ring once it holds a generating set,
    as for :func:`frobdiag.ring.validate`.

    When the action is the ring's product, stored once (as for a
    cylinder or a closed ring embedded as a pair), and the module has the
    ring's size, that routine is the one :func:`validate` has just run
    on the ring, on the same two maps with the same width, so it is not
    run again: the ring's ``associativity`` entries are reported as
    ``module-associativity``.  An empty report marks the pair valid
    (``_valid``), as :func:`validate` marks a ring.

    As there, action grading and the unit action are each one pass over
    the stored map, the constants times ``D``, that collects the failing
    keys, reported in index order with exact values: the entries with
    ``|k| != |i| + |j|`` (:func:`frobdiag.ring._off_grade`), then for
    each ``j`` the ``k`` where the unit's action on ``x_j`` differs from
    the indicator of ``j`` (:func:`frobdiag.ring._off_unit`).
    """
    report = ValidationReport()
    ring_report = validate(mp.ring, allow_noncommutative=allow_noncommutative)
    for v in ring_report:
        report.add(f"nu-{v.axiom}", v.indices, v.detail)

    ring_deg = mp.ring.basis.degrees
    mod_deg = mp.module_basis.degrees
    ints, den, nm = mp._ints, mp._den, mp.module_basis.size
    for i, j, k in _off_grade(ints, ring_deg, mod_deg):
        report.add("action-grading", (i, j, k),
                   f"entry {_exact(ints[i, j][k], den)} has degree "
                   f"{ring_deg[i]}+{mod_deg[j]} -> {mod_deg[k]}")

    unit = mp.ring.basis.unit_index
    acts = [ints.get((unit, j), {}) for j in range(nm)]
    for j, _, k in _off_unit((acts,), den):
        report.add("unit-action", (j, k),
                   f"unit acts with {_exact(acts[j].get(k, 0), den)}, "
                   f"expected {int(k == j)}")

    if mp._shares_product() and nm == mp.ring.size:
        for v in ring_report:
            if v.axiom == "associativity":
                report.add("module-associativity", v.indices, v.detail)
    else:
        for indices, a, b in _defects_unless_certified(mp, report.ok):
            report.add("module-associativity", indices, f"{a} != {b}")
    if report.ok:
        mp._valid = True
    return report


# ---------------------------------------------------------------------------
# the relative pairing and its inverse class

def relative_pairing_matrix(mp: ModulePair) -> Matrix:
    """Matrix ``(i, j) -> top coefficient of y_i ^ x_j``.

    Rows run over the ring basis, columns over the module basis.
    """
    return _top_entries(mp)


def relative_diagonal_class(mp: ModulePair,
                            mode: SignMode = SignMode.LITERAL
                            ) -> TensorClass:
    """The normalized symmetric class of the pair.

    ``mode`` picks the route (the condition is sign-free).  LITERAL inverts
    the relative pairing matrix.  GRADED solves the relative symmetry
    system subject to the normalization that the top row of ``mu`` is the
    unit indicator, demanding uniqueness.
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
    return _normalized_solve(_relative_symmetry_system, mp, pins,
                             "relative symmetry system")


def check_relative_top_normalization(mp: ModulePair,
                                     w: TensorClass) -> bool:
    """True iff the top row of ``w.mu`` is the ring-unit indicator.

    Raises ``ValueError`` if ``w`` does not live over this module pair.
    """
    top = _top_index(mp)
    _require_over_pair(mp, w)
    return w.mu._data[top] == {mp.ring.basis.unit_index: 1}


# ---------------------------------------------------------------------------
# the relative symmetry condition

def check_relative_symmetry(mp: ModulePair,
                            w: TensorClass) -> SymmetryReport:
    """Residuals of ``w.(1(x)y_k) - (y_k(x)1).w`` for every ring element.

    The residual oracle :func:`frobdiag.diagonal._symmetry_residuals`
    with the pair's module basis and action; for the pair whose module is
    the ring this is :func:`frobdiag.diagonal.check_symmetry`.
    """
    _require_over_pair(mp, w)
    return _symmetry_residuals(mp, w)


def _require_over_pair(mp: ModulePair, w: TensorClass) -> None:
    if w.left_basis != mp.module_basis or w.right_basis != mp.ring.basis:
        raise ValueError("class does not live over this module pair")


def solve_relative_symmetric_space(mp: ModulePair) -> list[TensorClass]:
    """Echelon-normalized basis of all relatively symmetric classes."""
    return _symmetric_space(_relative_symmetry_system, mp)


# one span check serves both cases; the pair name is kept for callers
relative_class_in_span = class_in_span
