"""Exact structure-constant toolkit for Poincare duality algebras.

Rings are given by a graded basis and rational structure constants; all
arithmetic is exact.  The package computes and verifies the normalized
symmetric (diagonal) class of the tensor square, characterizes the full
space of symmetric classes, and extends both to manifolds with boundary,
where the relative cohomology is a module over the absolute ring.
"""

from .linalg import (Matrix, SingularMatrixError, Vector, frac, invert,
                     nullspace, rank, rref, solve, vector)
from .ring import (GradedBasis, MissingTopClassError, RingElement,
                   RingStructure, ValidationReport, Violation, basis_element,
                   change_basis, check_poincare_duality, generators,
                   multiply, pairing_matrix, unit_element, validate)
from .diagonal import (NonUniqueSolutionError, NoSolutionError,
                       ResidualEntry, SignMode, SingularPairingError,
                       SymmetryReport, TensorClass, check_symmetry,
                       check_top_normalization, class_in_span,
                       diagonal_class, koszul_sign, kunneth_product,
                       left_factor, pairing_inverse, pure_tensor,
                       right_factor, solve_symmetric_space, symmetric_family,
                       tensor_class, tensor_multiply)
from .boundary import (ModulePair, act,
                       check_relative_duality, check_relative_symmetry,
                       check_relative_top_normalization,
                       module_basis_element, relative_class,
                       relative_class_in_span, relative_diagonal_class,
                       relative_pairing_matrix,
                       solve_relative_symmetric_space, validate_module)
from .catalog import (CatalogEntry, CatalogError, catalog_names,
                      closed_as_pair, complex_projective, cylinder_pair,
                      disk_pair, point, product, resolve, sphere, torus)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "SingularMatrixError", "Vector", "frac", "invert", "nullspace",
    "rank", "rref", "solve", "vector",
    "GradedBasis", "MissingTopClassError", "RingElement", "RingStructure",
    "ValidationReport", "Violation", "basis_element", "change_basis",
    "check_poincare_duality", "generators", "multiply", "pairing_matrix",
    "unit_element", "validate",
    "NonUniqueSolutionError", "NoSolutionError", "ResidualEntry", "SignMode",
    "SingularPairingError", "SymmetryReport", "TensorClass", "check_symmetry",
    "check_top_normalization", "class_in_span", "diagonal_class",
    "koszul_sign", "kunneth_product", "left_factor", "pairing_inverse",
    "pure_tensor", "right_factor", "solve_symmetric_space",
    "symmetric_family", "tensor_class", "tensor_multiply",
    "ModulePair", "act", "check_relative_duality",
    "check_relative_symmetry", "check_relative_top_normalization",
    "module_basis_element", "relative_class", "relative_class_in_span",
    "relative_diagonal_class", "relative_pairing_matrix",
    "solve_relative_symmetric_space", "validate_module",
    "CatalogEntry", "CatalogError", "catalog_names", "closed_as_pair",
    "complex_projective", "cylinder_pair", "disk_pair", "point", "product",
    "resolve", "sphere", "torus",
]
