#!/usr/bin/env python3
"""Walkthrough: odd degrees, Koszul signs, and what survives them.

The torus ring anticommutes in degree one, so the tensor square can be
multiplied two ways: literally (no sign) or with the Koszul sign.  The
symmetry condition only ever moves factors past a unit, so its solution
space is the same under both conventions, and the inverse pairing stays
symmetric even here.  What does break with odd degrees is the family
closure: multiplying a symmetric class by an odd element can leave the
symmetric space.
"""

from frobdiag import (SignMode, basis_element, class_in_span, diagonal_class,
                      kunneth_product, left_factor, pairing_inverse,
                      pure_tensor, right_factor, solve_symmetric_space,
                      sphere, tensor_multiply, torus, validate)


def main():
    circle = sphere(1)
    a = basis_element(circle, 1)

    print("Koszul sign in the tensor square of the circle:")
    al = left_factor(circle, circle, a)
    ar = right_factor(circle, circle, a)
    aa = pure_tensor(circle, circle, a, a)
    for mode in SignMode:
        fwd = tensor_multiply(circle, circle, mode, al, ar)
        bwd = tensor_multiply(circle, circle, mode, ar, al)
        print(f"  {mode.value:8} (a(x)1).(1(x)a) = "
              f"{'+' if fwd.mu == aa.mu else '-'}a(x)a,  "
              f"(1(x)a).(a(x)1) = "
              f"{'+' if bwd.mu == aa.mu else '-'}a(x)a")

    print("\nliteral product of two circles is NOT graded commutative:")
    literal = kunneth_product(circle, circle, SignMode.LITERAL)
    print(f"  violations: {len(validate(literal).violations)} "
          "(all graded-commutativity)")
    print("the Koszul-signed product is the torus:")
    t2 = torus(2)
    print(f"  violations: {len(validate(t2).violations)}")

    print("\ninverse pairing of the torus is symmetric in both modes:")
    w = diagonal_class(t2, SignMode.LITERAL)
    xs = [basis_element(t2, k) for k in range(t2.size)]
    for mode in SignMode:
        # w.(1(x)x_k) against (x_k(x)1).w, each multiplied in this mode
        ok = all(tensor_multiply(t2, t2, mode, w, right_factor(t2, t2, x)).mu
                 == tensor_multiply(t2, t2, mode, left_factor(t2, t2, x),
                                    w).mu for x in xs)
        print(f"  {mode.value:8} residual empty: {ok}")

    print("\nnormalized solution found by pure linear solving:")
    solved = diagonal_class(t2, SignMode.GRADED)
    print(f"  equals the inverse pairing entrywise: "
          f"{solved.mu == pairing_inverse(t2)}")

    print("\nfamily closure fails in the presence of odd degrees:")
    space = solve_symmetric_space(t2)
    print(f"  symmetric space dimension: {len(space)}")
    for k in range(t2.size):
        y = basis_element(t2, k)
        prod = tensor_multiply(t2, t2, SignMode.LITERAL, w,
                               right_factor(t2, t2, y))
        inside = class_in_span(space, prod)
        print(f"  w.(1(x){t2.basis.labels[k]}) stays symmetric: {inside}")


if __name__ == "__main__":
    main()
