#!/usr/bin/env python3
"""Walkthrough: diagonal classes of closed-manifold cohomology rings.

Builds the two-sphere and the complex projective plane from structure
constants, checks the ring axioms, and computes the normalized symmetric
class of the tensor square two independent ways: inverting the top
pairing, and solving the full symmetry system.
"""

from frobdiag import (SignMode, basis_element, check_poincare_duality,
                      check_symmetry, class_in_span, diagonal_class,
                      pairing_matrix, right_factor, solve_symmetric_space,
                      sphere, complex_projective, tensor_multiply, validate)


def show_matrix(m, indent="    "):
    for i in range(m.rows):
        print(indent + "  ".join(str(m[i, j]) for j in range(m.cols)))


def class_string(ring, w):
    labels = ring.basis.labels
    parts = []
    for i in range(ring.size):
        for j in range(ring.size):
            v = w.mu[i, j]
            if v:
                coeff = "" if v == 1 else f"({v})"
                parts.append(f"{coeff}{labels[i]}(x){labels[j]}")
    return " + ".join(parts) or "0"


def walkthrough(name, ring):
    print(f"== {name} ==")
    report = validate(ring)
    print(f"axioms: {'all pass' if report.ok else report.violations}")
    print(f"nondegenerate pairing: {check_poincare_duality(ring)}")
    print("pairing matrix (top coefficient of each product):")
    show_matrix(pairing_matrix(ring))

    w = diagonal_class(ring, SignMode.LITERAL)
    print(f"diagonal class: {class_string(ring, w)}")
    residual = check_symmetry(ring, w)
    print(f"symmetry residual: {'empty' if residual.ok else residual.entries}")

    space = solve_symmetric_space(ring)
    print(f"all symmetric classes form a space of dimension {len(space)}")
    print(f"closed form lies in that space: {class_in_span(space, w)}")

    # every symmetric class is the diagonal times a ring element on one leg
    family = []
    for k in range(ring.size):
        y = basis_element(ring, k)
        family.append(tensor_multiply(ring, ring, SignMode.LITERAL, w,
                                      right_factor(ring, ring, y)))
    hits = sum(class_in_span(space, f) for f in family)
    print(f"family members w.(1(x)y) inside the space: {hits}/{len(family)}")
    print()


if __name__ == "__main__":
    walkthrough("two-sphere", sphere(2))
    walkthrough("complex projective plane", complex_projective(2))
