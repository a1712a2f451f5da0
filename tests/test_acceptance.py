"""Acceptance suite: one test per contract criterion, exact arithmetic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is exact equality; the only numeric
bounds are wall-clock budgets.
"""

import functools
import json
import random
import time
from pathlib import Path

from frobdiag.boundary import (ModulePair, check_relative_symmetry,
                               check_relative_top_normalization,
                               relative_class_in_span,
                               relative_diagonal_class,
                               solve_relative_symmetric_space)
from frobdiag.catalog import catalog_names, resolve
from frobdiag.diagonal import (SignMode, check_symmetry, class_in_span,
                               diagonal_class, pairing_inverse, right_factor,
                               solve_symmetric_space, tensor_multiply)
from frobdiag.document import emit_document, parse_document
from frobdiag.linalg import Matrix, rank
from frobdiag.ring import (basis_element, change_basis,
                           check_poincare_duality, validate)
from strategies import check_frobenius_chain

GOLDEN = Path(__file__).parent / "golden"

EVEN_RING_NAMES = ["sphere:2", "sphere:4", "cp:2", "cp:3",
                   "product:sphere:2,sphere:2", "product:cp:1,cp:1"]
PAIR_NAMES = (["disk:%d" % n for n in range(1, 6)]
              + ["cylinder:sphere:2", "cylinder:cp:2",
                 "closed:sphere:2", "closed:cp:2", "closed:torus:2"])


def criterion(number: int, title: str):
    """Print one PASS/FAIL line per criterion, then let pytest judge."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE criterion {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE criterion {number} ({title}): PASS")
        return run
    return wrap


@criterion(1, "inversion theorem on evenly graded rings")
def test_criterion_1_inversion_theorem():
    for name in EVEN_RING_NAMES:
        ring = resolve(name).payload
        started = time.monotonic()
        mu = pairing_inverse(ring)
        w = diagonal_class(ring, SignMode.LITERAL)
        assert w.mu == mu
        report = check_symmetry(ring, w)
        elapsed = time.monotonic() - started
        assert report.ok, f"{name}: nonzero residual {report.entries[:3]}"
        assert elapsed < 1.0, f"{name}: took {elapsed:.3f}s"


@criterion(2, "boundary theorem on catalog pairs")
def test_criterion_2_boundary_theorem():
    for name in PAIR_NAMES:
        mp = resolve(name).payload
        assert isinstance(mp, ModulePair)
        started = time.monotonic()
        w = relative_diagonal_class(mp, SignMode.LITERAL)
        report = check_relative_symmetry(mp, w)
        normalized = check_relative_top_normalization(mp, w)
        elapsed = time.monotonic() - started
        assert report.ok, f"{name}: nonzero residual"
        assert normalized, f"{name}: top row is not the unit indicator"
        assert elapsed < 1.0, f"{name}: took {elapsed:.3f}s"


def _normalized_solution_unique(space, top: int, both_sides: bool) -> bool:
    """Unique normalized solution iff pinning the top slots is injective
    on the solution space (computed from the oracle basis alone)."""
    if not space:
        return False
    constraint_rows = []
    for s in space:
        coords = list(s.mu.row(top))
        if both_sides:
            coords += [s.mu[i, top] for i in range(s.mu.rows)]
        constraint_rows.append(tuple(coords))
    return rank(Matrix.from_rows(constraint_rows)) == len(space)


@criterion(3, "oracle equivalence and normalized uniqueness")
def test_criterion_3_oracle_equivalence():
    for name in catalog_names():
        payload = resolve(name).payload
        for mode in SignMode:
            if isinstance(payload, ModulePair):
                space = solve_relative_symmetric_space(payload)
                w = relative_diagonal_class(payload, mode)
                assert relative_class_in_span(space, w), (name, mode)
                unique = _normalized_solution_unique(
                    space, payload.module_basis.top_index, both_sides=False)
            else:
                space = solve_symmetric_space(payload)
                w = diagonal_class(payload, mode)
                assert class_in_span(space, w), (name, mode)
                unique = _normalized_solution_unique(
                    space, payload.basis.top_index, both_sides=True)
            assert unique, f"{name} ({mode}): normalized solution not unique"


@criterion(4, "associativity chain on catalog rings and basis changes")
def test_criterion_4_chain_with_basis_changes():
    from test_ring import random_degree_preserving_change

    ring_names = [n for n in catalog_names()
                  if not isinstance(resolve(n).payload, ModulePair)]
    started = time.monotonic()
    for name in ring_names:
        ring = resolve(name).payload
        assert validate(ring).ok, name
        assert check_frobenius_chain(ring), name

    rng = random.Random(20260810)
    conjugation_targets = ["sphere:2", "cp:2", "torus:2",
                           "product:sphere:2,sphere:2", "product:cp:1,cp:1"]
    count = 0
    while count < 100:
        name = conjugation_targets[count % len(conjugation_targets)]
        ring = resolve(name).payload
        p = random_degree_preserving_change(ring, rng)
        moved = change_basis(ring, p)
        assert validate(moved).ok, f"{name} after change {count}"
        assert check_poincare_duality(moved)
        assert check_frobenius_chain(moved), f"{name} after change {count}"
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"chain sweep took {elapsed:.3f}s"


@criterion(5, "family closure on evenly graded rings")
def test_criterion_5_family_closure():
    # the closure identity needs ring elements to commute, which holds
    # exactly when all degrees are even; odd-degree catalog entries are
    # covered by the pinned counterexample below
    for name in EVEN_RING_NAMES + ["point"]:
        ring = resolve(name).payload
        space = solve_symmetric_space(ring)
        for s in space:
            for k in range(ring.size):
                y = basis_element(ring, k)
                prod = tensor_multiply(ring, ring, SignMode.LITERAL, s,
                                       right_factor(ring, ring, y))
                assert class_in_span(space, prod), (name, k)


def test_criterion_5_footnote_torus_closure_fails():
    # recorded fact, not an acceptance gate: with odd degrees the family
    # construction can leave the symmetric space
    ring = resolve("torus:2").payload
    space = solve_symmetric_space(ring)
    w = diagonal_class(ring)
    prod = tensor_multiply(ring, ring, SignMode.LITERAL, w,
                           right_factor(ring, ring, basis_element(ring, 1)))
    assert not class_in_span(space, prod)


@criterion(6, "sign-mode fixtures on the torus")
def test_criterion_6_sign_mode_separation():
    ring = resolve("torus:2").payload
    inverse = pairing_inverse(ring)

    literal_residual = check_symmetry(
        ring, diagonal_class(ring, SignMode.LITERAL))
    graded_class = diagonal_class(ring, SignMode.GRADED)  # exists + unique
    graded_residual = check_symmetry(ring, graded_class)

    golden_literal = json.loads(
        (GOLDEN / "diag_torus2_literal.json").read_text())
    golden_graded = json.loads(
        (GOLDEN / "diag_torus2_graded.json").read_text())
    assert [(e.probe, e.left, e.right, str(e.value))
            for e in literal_residual] == \
        [(e["probe"], e["left"], e["right"], e["value"])
         for e in golden_literal["residual"]]
    assert [(e.probe, e.left, e.right, str(e.value))
            for e in graded_residual] == \
        [(e["probe"], e["left"], e["right"], e["value"])
         for e in golden_graded["residual"]]

    # entrywise sign agreement with the inverse pairing; the frozen
    # fixture pins every sign to +1
    n = ring.size
    for i in range(n):
        for j in range(n):
            a, b = graded_class.mu[i, j], inverse[i, j]
            assert a == b or a == -b, (i, j)
            assert (a == 0) == (b == 0), (i, j)
    assert [[str(v) for v in graded_class.mu.row(i)] for i in range(n)] == \
        golden_graded["mu"]


@criterion(7, "command-line contract")
def test_criterion_7_cli_contract(invoke, tmp_path):
    from test_cli import GOLDEN_CASES

    # golden-file equality for the flagship fixtures
    for fixture, argv in GOLDEN_CASES:
        code, out, err = invoke(*argv)
        assert code == 0, (fixture, err)
        assert out == (GOLDEN / fixture).read_text(), fixture

    # byte-exact round-trip of emitted documents
    for name in catalog_names():
        entry = resolve(name)
        text = emit_document(entry.name, entry.payload)
        reparsed_name, payload = parse_document(text)
        assert emit_document(reparsed_name, payload) == text, name

    # exit-code table on a crafted failure corpus
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({
        "name": "degenerate", "dimension": 4,
        "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 2},
                  {"label": "t", "degree": 4}],
        "unit": 0, "top": 2,
        "lambda": [{"i": 0, "j": 0, "k": 0, "value": "1"},
                   {"i": 0, "j": 1, "k": 1, "value": "1"},
                   {"i": 1, "j": 0, "k": 1, "value": "1"},
                   {"i": 0, "j": 2, "k": 2, "value": "1"},
                   {"i": 2, "j": 0, "k": 2, "value": "1"}],
    }))
    broken = json.loads(emit_document("broken", resolve("cp:3").payload))
    for item in broken["lambda"]:
        if (item["i"], item["j"], item["k"]) == (1, 2, 3):
            item["value"] = "2"
    assoc = tmp_path / "assoc.json"
    assoc.write_text(json.dumps(broken))
    junk = tmp_path / "junk.json"
    junk.write_text("{")

    assert invoke("diag", "sphere:2")[0] == 0
    assert invoke("validate", str(assoc))[0] == 1
    assert invoke("diag", str(assoc))[0] == 1
    assert invoke("diag", str(junk))[0] == 2
    assert invoke("diag", "no-such-entry")[0] == 2
    assert invoke("diag", str(singular))[0] == 3
