#!/usr/bin/env python3
"""Walkthrough: the boundary version of the inverse-pairing theorem.

For a manifold with boundary the fundamental class lives in relative
cohomology, which is only a module over the absolute ring.  The pairing
sends a ring element and a relative class to the top coefficient of the
action; its inverse is again the unique normalized symmetric class.
"""

from frobdiag import (Matrix, SignMode, check_relative_symmetry,
                      check_relative_top_normalization, closed_as_pair,
                      complex_projective, cylinder_pair, diagonal_class,
                      disk_pair, relative_diagonal_class,
                      relative_pairing_matrix, solve_relative_symmetric_space,
                      sphere, validate_module)


def show(name, mp):
    print(f"== {name} ==")
    print(f"ring rank {mp.ring.size}, module rank {mp.module_basis.size}, "
          f"formal dimension {mp.formal_dimension}")
    print(f"axioms: {'all pass' if validate_module(mp).ok else 'violated'}")
    p = relative_pairing_matrix(mp)
    print("relative pairing (ring rows, module columns):")
    for i in range(p.rows):
        print("    " + "  ".join(str(p[i, j]) for j in range(p.cols)))

    w = relative_diagonal_class(mp, SignMode.LITERAL)
    residual = check_relative_symmetry(mp, w)
    print(f"symmetry residual: {'empty' if residual.ok else 'nonzero'}")
    print(f"top row of mu = unit indicator: "
          f"{check_relative_top_normalization(mp, w)}")
    # the defining identity, restated without the matrix inverter
    print(f"pairing @ mu = identity: "
          f"{p @ w.mu == Matrix.identity(p.rows)}")
    dim = len(solve_relative_symmetric_space(mp))
    print(f"symmetric solution space dimension: {dim}")
    print()


if __name__ == "__main__":
    show("3-ball relative to its boundary sphere", disk_pair(3))
    show("sphere x interval relative to both ends",
         cylinder_pair(sphere(2)))

    # a closed ring embeds as module = ring; the relative machinery must
    # reproduce the absolute answer exactly
    ring = complex_projective(2)
    embedded = closed_as_pair(ring)
    show("projective plane, embedded as a pair", embedded)
    same = relative_diagonal_class(embedded).mu == diagonal_class(ring).mu
    print(f"closed-case embedding reproduces the absolute class: {same}")
