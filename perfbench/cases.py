"""Seeded inputs and the case list of each workload.

Every input is a catalog ring moved by a degree-preserving basis change
``x'_a = sum_i p[i, a] x_i`` that fixes the unit and top columns.  Inside
each degree block (unit and top excluded) ``p`` is upper bidiagonal:

* ``integer``: diagonal entries +-1, so ``p`` is unimodular, its inverse
  is integral and every structure constant stays an integer;
* ``rational``: diagonal entries are a signed shuffle of fixed
  non-integral rationals, and a draw whose constants all come out
  integral is redrawn.

The superdiagonal entries are a signed shuffle of the first small primes.
The seed thus picks signs and an order, never magnitudes, so every seed
poses a problem of the same size.  A draw is also kept only if its
structure constants have the support of a generic change, so no seed
loses entries to an accidental cancellation.

The generated rings are written as documents; the program under test
only ever reads those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

RATIONAL_DIAGONAL = (Fraction(2, 3), Fraction(3, 4), Fraction(2, 5),
                     Fraction(3, 2), Fraction(4, 3), Fraction(5, 2))
SUPERDIAGONAL = (2, 3, 5, 7, 11, 13, 17, 19)
GENERIC_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)
MAX_DRAWS = 200
VERBS = ("validate", "diag_literal", "diag_graded", "solve", "kunneth",
         "pair_literal", "pair_graded")


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its output is checked against."""

    verb: str                 # metric key: validate, diag_graded, ...
    argv: tuple[str, ...]
    input_key: str            # which generated input it reads
    writes: str | None = None  # input key its stdout is saved as


@dataclass
class Input:
    """A generated document and the facts the gate checks outputs against."""

    key: str
    path: Path
    kind: str                 # "ring" or "pair"
    basis_size: int
    reference_mu: list[list[Fraction]] | None = None
    all_integer: bool = False
    max_bits: int = 0


@dataclass
class Workload:
    name: str
    rings: tuple[tuple[str, str, str], ...]   # (key, catalog id, change)
    cylinders: tuple[str, ...] = ()           # ring keys to cross with I
    cases: tuple[Case, ...] = field(default_factory=tuple)


def _json(*argv: str) -> tuple[str, ...]:
    return argv + ("--output", "json")


def _closed_system() -> Workload:
    keys = ("cp6", "torus3", "s2t2", "s2cp4")
    ids = ("cp:6", "torus:3", "product:sphere:2,torus:2",
           "product:sphere:2,cp:4")
    cases = []
    for key in keys:
        cases.append(Case("diag_graded",
                          _json("diag", key, "--mode", "graded"), key))
        cases.append(Case("solve", _json("solve", key), key))
    return Workload("closed_system",
                    tuple((k, i, "integer") for k, i in zip(keys, ids)),
                    cases=tuple(cases))


def _closed_formula() -> Workload:
    rings = (("cp8", "cp:8", "rational"),
             ("torus3", "torus:3", "rational"),
             ("s2cp4", "product:sphere:2,cp:4", "rational"),
             ("cp2", "cp:2", "rational"),
             ("torus2", "torus:2", "rational"))
    cases = []
    for key in ("cp8", "torus3", "s2cp4"):
        cases.append(Case("validate", _json("validate", key), key))
        cases.append(Case("diag_literal", _json("diag", key), key))
    cases.append(Case("kunneth", ("kunneth", "cp2", "torus2", "--mode",
                                  "graded"), "cp2", writes="product"))
    cases.append(Case("validate", _json("validate", "product"), "product"))
    return Workload("closed_formula", rings, cases=tuple(cases))


def _boundary_pairs() -> Workload:
    keys = ("cp6", "torus3", "s2t2")
    ids = ("cp:6", "torus:3", "product:sphere:2,torus:2")
    cases = []
    for key in keys:
        cyl = f"cyl_{key}"
        cases.append(Case("pair_literal", _json("pair", key), key))
        cases.append(Case("pair_literal", _json("pair", cyl), cyl))
        cases.append(Case("pair_graded",
                          _json("pair", cyl, "--mode", "graded"), cyl))
        cases.append(Case("solve", _json("solve", cyl), cyl))
    return Workload("boundary_pairs",
                    tuple((k, i, "rational") for k, i in zip(keys, ids)),
                    cylinders=keys, cases=tuple(cases))


WORKLOADS = {w.name: w for w in (_closed_system(), _closed_formula(),
                                 _boundary_pairs())}


# ---------------------------------------------------------------------------
# the generator

def _slots(ring) -> tuple[list[int], list[tuple[int, int]]]:
    """Diagonal and superdiagonal positions of the bidiagonal blocks."""
    unit, top = ring.basis.unit_index, ring.basis.top_index
    blocks: dict[int, list[int]] = {}
    for i, d in enumerate(ring.basis.degrees):
        if i not in (unit, top):
            blocks.setdefault(d, []).append(i)
    diagonal, superdiagonal = [], []
    for degree in sorted(blocks):
        idx = blocks[degree]
        diagonal += idx
        superdiagonal += list(zip(idx, idx[1:]))
    return diagonal, superdiagonal


def basis_change(fd, ring, diagonal, superdiagonal):
    """Degree-preserving basis-change matrix fixing unit and top."""
    n = ring.size
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag_at, super_at = _slots(ring)
    for i, value in zip(diag_at, diagonal, strict=True):
        p[i][i] = Fraction(value)
    for (i, j), value in zip(super_at, superdiagonal, strict=True):
        p[i][j] = Fraction(value)
    return fd.linalg.Matrix(p)


def _signed_shuffle(rng: random.Random, magnitudes) -> list:
    values = list(magnitudes)
    rng.shuffle(values)
    return [rng.choice((1, -1)) * v for v in values]


def constants_of(payload) -> list[Fraction]:
    values = list(payload.tensor.values()) if hasattr(payload, "tensor") \
        else list(payload.ring.tensor.values())
    if hasattr(payload, "action"):
        values += list(payload.action.values())
    return values


def moved_ring(fd, catalog_id: str, rng: random.Random, change: str):
    """The catalog ring under a seeded basis change of the given kind.

    The generic support is that of the change with unit diagonal and
    large distinct primes on the superdiagonal.
    """
    ring = fd.catalog.resolve(catalog_id).payload
    diag_at, super_at = _slots(ring)
    generic = fd.ring.change_basis(ring, basis_change(
        fd, ring, [1] * len(diag_at), GENERIC_PRIMES[:len(super_at)]))
    for _ in range(MAX_DRAWS):
        if change == "integer":
            diagonal = [rng.choice((1, -1)) for _ in diag_at]
        else:
            diagonal = _signed_shuffle(rng, (
                RATIONAL_DIAGONAL[i % len(RATIONAL_DIAGONAL)]
                for i in range(len(diag_at))))
        superdiagonal = _signed_shuffle(rng, SUPERDIAGONAL[:len(super_at)])
        moved = fd.ring.change_basis(ring, basis_change(fd, ring, diagonal,
                                                        superdiagonal))
        integral = all(v.denominator == 1 for v in constants_of(moved))
        if (moved.tensor.keys() == generic.tensor.keys()
                and integral == (change == "integer")):
            return moved
    raise RuntimeError(f"no {change} basis change of {catalog_id} with "
                       f"generic support in {MAX_DRAWS} draws")


def bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def pairing_of(payload) -> list[list[Fraction]]:
    """Top-degree pairing read straight off the structure constants."""
    if hasattr(payload, "action"):
        top = payload.module_basis.top_index
        rows, cols = payload.ring.size, payload.module_basis.size
        table = payload.action
    else:
        top = payload.basis.top_index
        rows = cols = payload.size
        table = payload.tensor
    return [[Fraction(table.get((i, j, top), 0)) for j in range(cols)]
            for i in range(rows)]


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse, kept apart from the package's own linalg."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("pairing is not square")
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        r = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[r] = a[r], a[c]
        pivot = a[c][c]
        a[c] = [v / pivot for v in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def closed_form(payload) -> list[list[Fraction]]:
    """The pairing inverse, checked to satisfy ``P . mu = I`` exactly."""
    p = pairing_of(payload)
    mu = inverse(p)
    n = len(p)
    if matmul(p, mu) != [[Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)]:
        raise RuntimeError("reference inverse fails P . mu = I")
    return mu


def make_inputs(fd, workload: Workload, seed: int,
                directory: Path) -> dict[str, Input]:
    """Generate, write and describe every input document of a workload."""
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, Input] = {}
    payloads = {}

    def add(key: str, name: str, payload) -> None:
        path = directory / f"{key}.json"
        path.write_text(fd.document.emit_document(name, payload),
                        encoding="utf-8")
        values = constants_of(payload)
        pair = hasattr(payload, "action")
        inputs[key] = Input(
            key=key, path=path, kind="pair" if pair else "ring",
            basis_size=payload.module_basis.size if pair else payload.size,
            reference_mu=closed_form(payload),
            all_integer=all(v.denominator == 1 for v in values),
            max_bits=bits(values))
        payloads[key] = payload

    for key, catalog_id, change in workload.rings:
        add(key, f"{catalog_id}~{change}", moved_ring(fd, catalog_id, rng,
                                                      change))
    for key in workload.cylinders:
        add(f"cyl_{key}", f"cylinder:{key}",
            fd.catalog.cylinder_pair(payloads[key]))
    for case in workload.cases:
        if case.writes is not None:
            inputs[case.writes] = Input(key=case.writes,
                                        path=directory / f"{case.writes}.json",
                                        kind="ring", basis_size=0)
    return inputs


def argv_for(case: Case, inputs: dict[str, Input]) -> list[str]:
    """Replace input keys in a case's argv by the document paths."""
    return [str(inputs[a].path) if a in inputs else a for a in case.argv]
