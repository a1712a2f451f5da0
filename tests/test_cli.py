import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobdiag import cli
from frobdiag.boundary import ModulePair, relative_pairing_matrix
from frobdiag.catalog import resolve
from frobdiag.document import emit_document
from frobdiag.linalg import Matrix, invert
from frobdiag.ring import change_basis, pairing_matrix

GOLDEN = Path(__file__).parent / "golden"
NINES = "9" * 4300  # the most digits int() converts to or from a string

# (fixture, argv) of runs that exit 0 with the fixture on stdout
GOLDEN_CASES = [
    ("diag_sphere2_literal.json", ["diag", "sphere:2", "--output", "json"]),
    ("diag_cp2_literal.json", ["diag", "cp:2", "--output", "json"]),
    ("diag_disk3_literal.json", ["diag", "disk:3", "--output", "json"]),
    ("diag_cylinder_sphere2_literal.json",
     ["diag", "cylinder:sphere:2", "--output", "json"]),
    ("diag_torus2_literal.json",
     ["diag", "torus:2", "--mode", "literal", "--output", "json"]),
    ("diag_torus2_graded.json",
     ["diag", "torus:2", "--mode", "graded", "--output", "json"]),
    ("diag_cp2.txt", ["diag", "cp:2"]),
    ("pair_cp2.txt", ["pair", "cp:2"]),
    ("pair_cylinder_sphere2_graded.txt",
     ["pair", "cylinder:sphere:2", "--mode", "graded"]),
    ("solve_cylinder_sphere2.txt", ["solve", "cylinder:sphere:2"]),
]

# (fixture, argv, exit code) of runs with the fixture on stderr and nothing
# on stdout; an argument "{key}" names a document of the failure corpus
GOLDEN_STDERR_CASES = [
    ("diag_singular.stderr", ["diag", "{singular}"], 3),
]

ALL_GOLDEN = [(f, a, 0) for f, a in GOLDEN_CASES] + GOLDEN_STDERR_CASES


class TestGolden:
    @pytest.mark.parametrize("fixture,argv,expected_code", ALL_GOLDEN,
                             ids=[c[0] for c in ALL_GOLDEN])
    def test_diag_output_matches_golden_file(self, invoke, corpus, fixture,
                                             argv, expected_code):
        code, out, err = invoke(*[a.format(**corpus) for a in argv])
        assert code == expected_code, err
        golden = (GOLDEN / fixture).read_text()
        if fixture.endswith(".stderr"):
            assert (out, err) == ("", golden)
        else:
            assert (out, err) == (golden, "")

    def test_torus_fixture_records_mode_agreement(self):
        lit = json.loads((GOLDEN / "diag_torus2_literal.json").read_text())
        grd = json.loads((GOLDEN / "diag_torus2_graded.json").read_text())
        # frozen outcome: the inverse pairing is symmetric in both modes,
        # and the normalized graded solution matches it sign for sign
        assert lit["residual"] == [] and grd["residual"] == []
        assert lit["mu"] == grd["mu"]

    def test_json_matrices_round_trip_exactly(self, invoke):
        from frobdiag.diagonal import diagonal_class
        from frobdiag.linalg import Matrix
        from frobdiag.ring import pairing_matrix
        data = json.loads(invoke("diag", "cp:2", "--output", "json")[1])
        ring = resolve("cp:2").payload
        assert Matrix(data["mu"]) == diagonal_class(ring).mu
        assert Matrix(data["pairing"]) == pairing_matrix(ring)


class TestValidateVerb:
    def test_catalog_ok(self, invoke):
        code, out, _ = invoke("validate", "cp:2")
        assert code == 0
        assert "valid" in out

    def test_pair_ok(self, invoke):
        code, out, _ = invoke("validate", "disk:3")
        assert code == 0

    def test_json_report(self, invoke):
        code, out, _ = invoke("validate", "sphere:2", "--output", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_unknown_input_is_parse_error(self, invoke):
        code, _, err = invoke("validate", "no-such-thing")
        assert code == 2
        assert "unknown catalog entry" in err

    def test_existing_file_wins_over_catalog_id(self, invoke, tmp_path,
                                                monkeypatch):
        (tmp_path / "sphere:2").write_text(
            emit_document("cp:2", resolve("cp:2").payload))
        monkeypatch.chdir(tmp_path)
        assert invoke("validate", "sphere:2") == \
            (0, "cp:2: valid ring\n", "")
        code, out, _ = invoke("diag", "sphere:2", "--output", "json")
        assert code == 0
        assert json.loads(out)["name"] == "cp:2"
        assert len(json.loads(out)["mu"]) == 3


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def corpus(tmp_path):
    """Crafted failure corpus covering every nonzero exit code."""
    docs = {}

    # valid ring but with a singular pairing: 1, a, t and a.a = a.t = 0
    docs["singular"] = write(tmp_path, "singular.json", json.dumps({
        "name": "degenerate",
        "dimension": 4,
        "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 2},
                  {"label": "t", "degree": 4}],
        "unit": 0,
        "top": 2,
        "lambda": [
            {"i": 0, "j": 0, "k": 0, "value": "1"},
            {"i": 0, "j": 1, "k": 1, "value": "1"},
            {"i": 1, "j": 0, "k": 1, "value": "1"},
            {"i": 0, "j": 2, "k": 2, "value": "1"},
            {"i": 2, "j": 0, "k": 2, "value": "1"},
        ],
    }, indent=2))

    # associativity broken: h.h^2 = 2h^3 but h^2.h = h^3
    cp3 = resolve("cp:3").payload
    broken = json.loads(emit_document("broken", cp3))
    for item in broken["lambda"]:
        if (item["i"], item["j"], item["k"]) == (1, 2, 3):
            item["value"] = "2"
    docs["assoc"] = write(tmp_path, "assoc.json", json.dumps(broken, indent=2))

    # grading broken: x.x lands in degree 2 instead of 4
    docs["grading"] = write(tmp_path, "grading.json", json.dumps({
        "name": "bad-grading",
        "dimension": 2,
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}],
        "unit": 0,
        "top": 1,
        "lambda": [
            {"i": 0, "j": 0, "k": 0, "value": "1"},
            {"i": 0, "j": 1, "k": 1, "value": "1"},
            {"i": 1, "j": 0, "k": 1, "value": "1"},
            {"i": 1, "j": 1, "k": 1, "value": "1"},
        ],
    }, indent=2))

    # duplicate structure-constant key
    dup = json.loads(emit_document("dup", resolve("sphere:2").payload))
    dup["lambda"].append(dict(dup["lambda"][0]))
    docs["duplicate"] = write(tmp_path, "dup.json", json.dumps(dup, indent=2))

    docs["junk"] = write(tmp_path, "junk.json", "{this is not json")
    return docs


class TestExitCodes:
    def test_success_is_zero(self, invoke):
        assert invoke("diag", "sphere:2")[0] == 0

    def test_singular_pairing_is_three(self, invoke, corpus):
        code, _, err = invoke("diag", corpus["singular"])
        assert code == 3
        assert "pairing" in err.lower()
        # the offending pairing matrix is echoed
        assert "0 1 0" in err or "0" in err

    def test_broken_associativity_is_one(self, invoke, corpus):
        for verb in ("validate", "diag", "solve"):
            code, _, _ = invoke(verb, corpus["assoc"])
            assert code == 1, verb

    def test_grading_violation_is_one_and_located(self, invoke, corpus):
        code, out, _ = invoke("validate", corpus["grading"])
        assert code == 1
        assert "grading" in out
        assert "(1, 1, 1)" in out

    def test_duplicate_key_is_parse_error(self, invoke, corpus):
        code, _, err = invoke("validate", corpus["duplicate"])
        assert code == 2
        assert "duplicate" in err

    def test_malformed_json_is_parse_error(self, invoke, corpus):
        code, _, err = invoke("diag", corpus["junk"])
        assert code == 2

    def test_value_over_digit_limit_is_parse_error(self, invoke, tmp_path):
        doc = json.loads(emit_document("huge", resolve("sphere:2").payload))
        doc["lambda"][0]["value"] = "1" * 5001
        path = write(tmp_path, "huge.json", json.dumps(doc))
        code, out, err = invoke("validate", path)
        assert code == 2
        assert out == ""
        assert "lambda[0].value" in err and "too long" in err

    def test_non_utf8_file_is_parse_error(self, invoke, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b'\xff\xfe{"name": 1}')
        code, out, err = invoke("validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"{path}: not UTF-8 text: invalid start byte at byte 0\n"

    def test_deeply_nested_json_is_parse_error(self, invoke, tmp_path):
        path = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
        code, out, err = invoke("validate", path)
        assert code == 2
        assert out == ""
        assert err == f"{path}: JSON nested too deeply to parse\n"

    def test_unknown_catalog_id_is_parse_error(self, invoke):
        assert invoke("diag", "mobius:1")[0] == 2

    @pytest.mark.parametrize("name, message", [
        ("cylinder:" * 3000 + "cp:1", "cylinder wants a ring entry"),
        ("closed: " * 3000 + "cp:1",
         "closed-case embedding wants a ring entry"),
        ("product:" + "cylinder:" * 3000 + "cp:1,cp:1",
         "cylinder wants a ring entry"),
    ], ids=["cylinder", "closed", "product-factor"])
    def test_deeply_nested_catalog_id_is_parse_error(self, invoke, name,
                                                     message):
        # each wrapper is one level of nesting, with no recursion
        assert invoke("validate", name) == (2, "", message + "\n")

    @pytest.mark.parametrize("name, message", [
        ("x" * 3000, "unknown catalog entry '" + "x" * 40 + "...'"),
        # more digits than int() converts: too large, not "not an integer"
        ("cp:" + "9" * 5000,
         "cp parameter '" + "9" * 40 + "...' is too large"),
        ("cp:" + "9" * 60 + "x",
         "cp wants an integer parameter, got '" + "9" * 40 + "...'"),
        ("torus:" + "9" * 4300,
         "torus:" + "9" * 34 + "... would have 2^" + "9" * 38 + "... "
         "basis elements, more than the catalog's limit of 1024"),
        # the size has 4301 digits, more than an int is written with
        ("cp:" + "9" * 4300,
         "cp:" + "9" * 37 + "... would have at least 10^40 basis "
         "elements, more than the catalog's limit of 1024"),
        # 40 characters are quoted whole
        ("y" * 40, "unknown catalog entry '" + "y" * 40 + "'"),
        ("cp:" + "9" * 37,
         "cp:" + "9" * 37 + " would have 1" + "0" * 37 + " basis "
         "elements, more than the catalog's limit of 1024"),
    ], ids=["unknown", "parameter", "not-an-integer", "torus-size",
            "cp-size", "unknown-of-40", "cp-size-of-40"])
    def test_long_catalog_id_is_cut_in_its_message(self, invoke, name,
                                                   message):
        assert invoke("validate", name) == (2, "", message + "\n")

    @pytest.mark.parametrize("argv, product", [
        # the cylinder adds 1 to a dimension of 4300 nines
        (["validate", "cylinder:sphere:" + NINES],
         "cylinder:sphere:" + NINES),
        (["validate", f"product:sphere:{NINES},sphere:{NINES}"],
         f"product:sphere:{NINES},sphere:{NINES}"),
        # 4299 nines and an 8, twice, is a number of 4301 digits
        (["kunneth", f"sphere:{NINES[1:]}8", f"sphere:{NINES[1:]}8",
          "--mode", "graded"],
         f"product:sphere:{NINES[1:]}8,sphere:{NINES[1:]}8"),
    ], ids=["cylinder", "product", "kunneth"])
    def test_degree_too_long_to_print_is_parse_error(self, invoke, argv,
                                                     product):
        assert invoke(*argv) == (2, "", (
            f"{product[:40]}... would have a degree of more than 4300 "
            "digits, too long to print\n"))

    def test_longest_printable_dimension_is_reported(self, invoke):
        code, out, err = invoke("diag", "sphere:" + NINES)
        assert (code, err) == (0, "")
        assert f"formal dimension {NINES})" in out

    def test_invalid_ring_name_is_cut(self, invoke):
        # sphere:1 is odd, so the literal product is not
        # graded-commutative
        name = f"product:sphere:{NINES[:3000]},sphere:1"
        code, out, err = invoke("diag", name)
        assert (code, out) == (1, "")
        assert err.startswith(f"{name[:40]}...: invalid (1 violation(s)); "
                              "first: graded-commutativity")
        assert len(err) < 200

    def test_singular_pairing_json_report(self, invoke, corpus):
        code, out, _ = invoke("diag", corpus["singular"], "--output", "json")
        assert code == 3
        data = json.loads(out)
        assert data["error"] == "singular-pairing"
        assert data["pairing"][1] == ["0", "0", "0"]


class TestSolveVerb:
    def test_point_dimension_one(self, invoke):
        code, out, _ = invoke("solve", "point", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 1
        assert data["inverse_class_member"] is True

    def test_sphere_dimension_two(self, invoke):
        data = json.loads(invoke("solve", "sphere:2",
                                 "--output", "json")[1])
        assert data["dimension"] == 2
        assert data["inverse_class_member"] is True

    def test_cp2_dimension_three(self, invoke):
        data = json.loads(invoke("solve", "cp:2", "--output", "json")[1])
        assert data["dimension"] == 3

    def test_pair_solve(self, invoke):
        data = json.loads(invoke("solve", "disk:3", "--output", "json")[1])
        assert data["dimension"] == 1
        assert data["basis"] == [[["1"]]]

    def test_singular_input_reports_null_membership(self, invoke, corpus):
        code, out, _ = invoke("solve", corpus["singular"],
                              "--output", "json")
        assert code == 0
        assert json.loads(out)["inverse_class_member"] is None


def _mu_is_pairing_inverse(data):
    payload = resolve(data["name"]).payload
    inverse = invert(relative_pairing_matrix(payload)
                     if isinstance(payload, ModulePair)
                     else pairing_matrix(payload))
    assert data["mu"] == [[str(v) for v in inverse.row(i)]
                          for i in range(inverse.rows)]


def _inverse_member_of_dimension(n):
    def check(data):
        assert data["dimension"] == n
        assert data["inverse_class_member"] is True
    return check


def _valid(data):
    assert data["ok"] is True


SIXTEEN_ELEMENT_CASES = [
    (["diag", "torus:4", "--mode", "graded"], _mu_is_pairing_inverse),
    (["solve", "product:cp:3,cp:3"], _inverse_member_of_dimension(16)),
    (["validate", "torus:4"], _valid),
]

THIRTY_TWO_ELEMENT_CASES = [
    (["diag", "torus:5", "--mode", "graded"], _mu_is_pairing_inverse),
    (["solve", "torus:5"], _inverse_member_of_dimension(32)),
]


@pytest.mark.parametrize("argv,check", SIXTEEN_ELEMENT_CASES,
                         ids=[" ".join(c[0]) for c in SIXTEEN_ELEMENT_CASES])
def test_sixteen_element_rings(invoke, argv, check):
    code, out, err = invoke(*argv, "--output", "json")
    assert code == 0, err
    check(json.loads(out))


@pytest.mark.parametrize("argv,check", THIRTY_TWO_ELEMENT_CASES,
                         ids=[" ".join(c[0])
                              for c in THIRTY_TWO_ELEMENT_CASES])
def test_thirty_two_element_rings(invoke, argv, check):
    code, out, err = invoke(*argv, "--output", "json")
    assert code == 0, err
    check(json.loads(out))


SIXTY_FOUR_ELEMENT_CASES = [
    (["diag", "torus:6", "--mode", "graded"], _mu_is_pairing_inverse),
    (["pair", "cylinder:torus:6", "--mode", "graded"],
     _mu_is_pairing_inverse),
]


@pytest.mark.parametrize("argv,check", SIXTY_FOUR_ELEMENT_CASES,
                         ids=[" ".join(c[0])
                              for c in SIXTY_FOUR_ELEMENT_CASES])
def test_sixty_four_element_rings(invoke, argv, check):
    """The graded solve at n = 64.  The CLI validates the ring or pair
    first, which leaves its symmetry systems 6 generator probes.

    In-process on a shared 2-vCPU Xeon VM with CPython 3.11.7, the diag
    case took 0.17-0.23 s and the pair case 0.17-0.23 s over six and
    four runs.
    With a Fraction elimination kernel and dense residual checks they
    took 1.3-1.8 s and 1.6-2.1 s over six runs, and with every probe as
    well 2.2-2.3 s and 2.8-3.1 s over two runs.
    """
    code, out, err = invoke(*argv, "--output", "json")
    assert code == 0, err
    check(json.loads(out))


LADDER_CASES = [
    (["diag", "cp:120"], _mu_is_pairing_inverse),
    (["validate", "cp:120"], _valid),
    (["validate", "cp:200"], _valid),
    (["diag", "cp:400"], _mu_is_pairing_inverse),
    (["diag", "cp:200", "--mode", "graded"], _mu_is_pairing_inverse),
    (["validate", "torus:10"], _valid),
    (["validate", "product:cp:20,cp:20"], _valid),
]
LADDER_SECONDS = 10


@pytest.mark.parametrize("argv,check", LADDER_CASES,
                         ids=[" ".join(c[0]) for c in LADDER_CASES])
def test_ladder_rings(invoke, argv, check):
    """cp:n, whose full associativity scan visits about n^3/6 triples,
    and two validations at 441 and 1024 basis elements.

    Each call must finish within ``LADDER_SECONDS``.  In-process on a
    shared 2-vCPU Xeon VM with CPython 3.11.7, scanning every triple,
    the cp:120 cases took 1.4-1.8 s (diag) and 1.35-1.6 s (validate),
    ``validate cp:200`` about 8 s, and ``diag cp:400`` more than 69 s.
    With generator certificates, which scan only the triples whose
    middle factor is the generator ``h``, they took 0.1 s, 0.1 s, 0.3 s
    and 1.5 s.  The graded ``diag cp:200`` solves chains
    ``w[i, j+1] - w[i+1, j]``: 2.9-3.8 s when the kernel cleared each new
    pivot from the earlier rows of its chain (1,373,900 eliminations),
    0.3-0.6 s with rows inserted by decreasing lead (40,600).
    ``validate torus:10`` (1024 basis elements, ten generators) and
    ``validate product:cp:20,cp:20`` (441, two generators) took 1.4-1.7 s
    and 0.5-1.0 s when the certificate listed and sorted every triple
    with a generator middle, and 0.5-0.9 s and 0.3 s with one operator
    identity per left factor and generator, checked as a whole map.
    """
    start = time.perf_counter()
    code, out, err = invoke(*argv, "--output", "json")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < LADDER_SECONDS, f"{' '.join(argv)}: {elapsed:.1f} s"
    check(json.loads(out))


RATIONAL_K = 60


@pytest.fixture(scope="module")
def rational_cp(tmp_path_factory):
    """cp:k moved by ``change_basis`` to ``x'_i = (i+1)/(i+2) h^i`` (unit
    and top class fixed), written as a document; the ring and its path.

    Its structure constants ``t'[a, b] = s_a s_b / s_(a+b)`` are
    rational, with a 174-bit common denominator at k = 60.
    """
    k = RATIONAL_K
    scale = [Fraction(1) if i in (0, k) else Fraction(i + 1, i + 2)
             for i in range(k + 1)]
    ring = change_basis(resolve(f"cp:{k}").payload, Matrix.sparse(
        [((i, v),) for i, v in enumerate(scale)], k + 1))
    path = tmp_path_factory.mktemp("rational") / "moved_cp.json"
    path.write_text(emit_document(f"moved-cp:{k}", ring))
    return ring, str(path)


@pytest.mark.parametrize("argv", [["validate"], ["diag", "--mode", "graded"],
                                  ["pair", "--mode", "graded"]],
                         ids=" ".join)
def test_ladder_rational_ring(invoke, rational_cp, argv):
    """The rational path at scale: the document's constants have
    denominators, so the hot loops run on constants scaled to ints.

    In-process on a shared 2-vCPU Xeon VM with CPython 3.11.7 each call
    took under 0.3 s; building the document with ``change_basis`` takes
    longer than the three calls together.
    """
    ring, path = rational_cp
    assert ring._den > 1
    start = time.perf_counter()
    code, out, err = invoke(argv[0], path, *argv[1:], "--output", "json")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < LADDER_SECONDS, f"{' '.join(argv)}: {elapsed:.1f} s"
    data = json.loads(out)
    if argv == ["validate"]:
        _valid(data)
        return
    inverse = invert(pairing_matrix(ring))
    assert data["mu"] == [[str(v) for v in inverse.row(i)]
                          for i in range(inverse.rows)]


# sha256 of the stdout of large outputs, written before the JSON writer,
# the matrix formatter and the tensor parser were rewritten for speed; the
# torus:6 and product pins (odd degrees, graded route) were written before
# the symmetry systems were split by total degree
LARGE_OUTPUTS = [
    ("solve cp:60 --output json",
     "8d26bb7357f4f52eb546769dfc6fc10e4f69be2523d034803aae77239d778639"),
    ("solve cp:60",
     "7ff99e7547c5c46156ec8d3fc1917f72dd0d544a770087540fcca9a426aa29c8"),
    ("diag cp:200 --output json",
     "0a8c2ad79ba00c33102aeedc67d0f707d61edaab51bbc5c79bcb3bb17c4356c2"),
    ("kunneth cp:20 torus:3",
     "aaf534a1721ccd3284d518a6f2a11876efcbaa6d071a08e3ebc903935fce2459"),
    ("diag cp:200 --mode graded --output json",
     "944bb197c124583902185efb2d79693895f0096003878ab03fef0ee9ad175c03"),
    ("solve cp:120 --output json",
     "5a1811135b3045c6d320aff7a04f88b660b8b13ad77a54d24296d84fee332c41"),
    ("diag torus:6 --mode graded --output json",
     "3d343e1f2c4f623538e64237e6aa7f29042c588faf26582b3662f64e7e129a53"),
    ("solve torus:6 --output json",
     "dea3803d9b538b026eec02a4c8464a1a7ac9baa8112e465720024286d67813f1"),
    ("pair cylinder:torus:6 --mode graded --output json",
     "ea9e2006ca16b97541e5913a1ff4e39226f3bcb9eb5a1a2370efcfa5f01fdc1b"),
    ("diag product:cp:6,torus:3 --mode graded --output json",
     "0b617b3962e201f850c4fe42c44f6bb06810e695bae050f77cdb5556edbe0849"),
]


@pytest.mark.parametrize("args,digest", LARGE_OUTPUTS,
                         ids=[c[0] for c in LARGE_OUTPUTS])
def test_large_outputs_are_unchanged(invoke, args, digest):
    """Outputs of 0.08-23 MB, byte for byte.

    In-process on a shared 2-vCPU Xeon VM with CPython 3.11.7, each call
    took 0.07-0.6 s.
    """
    code, out, err = invoke(*args.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPairVerb:
    def test_disk(self, invoke):
        code, out, _ = invoke("pair", "disk:3", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "pair"
        assert data["mu"] == [["1"]]

    def test_ring_is_embedded(self, invoke):
        ring_diag = json.loads(invoke("diag", "cp:2",
                                      "--output", "json")[1])
        pair_diag = json.loads(invoke("pair", "cp:2",
                                      "--output", "json")[1])
        assert pair_diag["kind"] == "pair"
        assert pair_diag["mu"] == ring_diag["mu"]
        assert pair_diag["pairing"] == ring_diag["pairing"]


class TestKunnethVerb:
    def test_emitted_document_revalidates(self, invoke, tmp_path):
        code, out, _ = invoke("kunneth", "sphere:2", "sphere:2")
        assert code == 0
        path = tmp_path / "s2s2.json"
        path.write_text(out)
        assert invoke("validate", str(path))[0] == 0

    def test_emitted_document_roundtrips(self, invoke, tmp_path):
        code, out, _ = invoke("kunneth", "cp:1", "cp:1")
        assert code == 0
        from frobdiag.document import parse_document
        name, payload = parse_document(out)
        assert emit_document(name, payload) == out

    def test_point_factor_relabels_only(self, invoke):
        code, out, _ = invoke("kunneth", "point", "cp:2")
        assert code == 0
        doc = json.loads(out)
        ours = json.loads(emit_document("x", resolve("cp:2").payload))
        assert doc["lambda"] == ours["lambda"]
        assert [b["degree"] for b in doc["basis"]] == \
            [b["degree"] for b in ours["basis"]]

    def test_graded_circle_product_is_torus(self, invoke):
        code, out, _ = invoke("kunneth", "sphere:1", "sphere:1",
                              "--mode", "graded")
        assert code == 0
        doc = json.loads(out)
        torus_doc = json.loads(emit_document("x", resolve("torus:2").payload))
        assert doc["lambda"] == torus_doc["lambda"]

    def test_literal_circle_product_fails_commutativity(self, invoke):
        code, _, err = invoke("kunneth", "sphere:1", "sphere:1")
        assert code == 1
        assert "graded" in err

    def test_allow_noncommutative_emits_anyway(self, invoke):
        code, out, _ = invoke("kunneth", "sphere:1", "sphere:1",
                              "--allow-noncommutative")
        assert code == 0
        assert json.loads(out)["dimension"] == 2

    def test_pair_factor_rejected(self, invoke):
        assert invoke("kunneth", "disk:3", "sphere:2")[0] == 2

    def test_oversized_product_refused_before_building(self, invoke,
                                                      monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("kunneth_product was called")

        monkeypatch.setattr(cli, "kunneth_product", fail)
        start = time.perf_counter()
        code, out, err = invoke("kunneth", "torus:6", "torus:6")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == ("product:torus:6,torus:6 would have 4096 basis "
                       "elements, more than the catalog's limit of 1024\n")

    def test_failing_product_names_are_cut(self, invoke):
        # 4299 nines and a 7: odd, so the literal product with a circle
        # is not graded-commutative, and one more is still printable
        code, out, err = invoke("kunneth", f"sphere:{NINES[1:]}7",
                                "sphere:1")
        assert (code, out) == (1, "")
        assert err.startswith(f"product of sphere:{NINES[:33]}... and "
                              "sphere:1 fails validation (1 violation(s))")
        assert len(err) < 300

    def test_pair_factor_name_is_cut(self, invoke):
        name = f"disk:{NINES[:4000]}"
        assert invoke("kunneth", name, "sphere:2") == (
            2, "", f"{name[:40]}...: kunneth factors must be rings\n")

    def test_product_at_the_limit_is_built(self, invoke, monkeypatch):
        monkeypatch.setattr("frobdiag.catalog.MAX_BASIS", 4)
        assert invoke("kunneth", "sphere:2", "sphere:2")[0] == 0
        assert invoke("kunneth", "cp:2", "sphere:2")[0] == 2


class TestInternalError:
    def test_unexpected_exception_is_one_line_and_exit_70(self, invoke,
                                                          monkeypatch):
        def fail(args):
            raise RuntimeError("lost a pivot\nsecond line " + "x" * 500)

        monkeypatch.setattr(cli, "cmd_validate", fail)
        code, out, err = invoke("validate", "cp:2")
        assert (code, out) == (70, "")
        assert "Traceback" not in err
        assert err == ("frobdiag: internal error (RuntimeError): lost a "
                       "pivot second line " + "x" * 175 + "...\n")

    def test_keyboard_interrupt_is_not_caught(self, invoke, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_diag", interrupt)
        with pytest.raises(KeyboardInterrupt):
            invoke("diag", "cp:2")



class TestNothingWrittenBeforeTheChecks:
    """A JSON report goes out a piece at a time, but only once every
    check behind it has run: a check that fails leaves stdout empty."""

    @pytest.mark.parametrize("check,argv", [
        ("class_in_span", ["solve", "cp:3"]),
        ("relative_class_in_span", ["solve", "cylinder:cp:2"]),
        ("check_symmetry", ["diag", "cp:3"]),
        ("check_symmetry", ["diag", "torus:2", "--mode", "graded"]),
        ("check_relative_symmetry", ["pair", "cp:3"]),
        ("check_relative_symmetry", ["pair", "cylinder:cp:2"]),
    ])
    def test_a_failing_check_writes_nothing(self, invoke, monkeypatch,
                                            check, argv):
        def fail(*args):
            raise RuntimeError("check failed")

        monkeypatch.setattr(cli, check, fail)
        code, out, err = invoke(*argv, "--output", "json")
        assert (code, out) == (70, "")
        assert err == ("frobdiag: internal error (RuntimeError): check "
                       "failed\n")

    def test_an_invalid_document_prints_only_its_violations(
            self, invoke, tmp_path):
        doc = json.loads(emit_document("cp:2", resolve("cp:2").payload))
        for entry in doc["lambda"]:
            if (entry["i"], entry["j"], entry["k"]) == (0, 1, 1):
                entry["value"] = "2"    # the unit doubles h
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for verb in ("diag", "solve", "pair"):
            code, out, err = invoke(verb, str(path), "--output", "json")
            assert (code, err) == (1, "")
            report = json.loads(out)
            assert list(report) == ["name", "ok", "violations"]
            assert report["ok"] is False and report["violations"]


class TestClosedStdout:
    @pytest.mark.parametrize("argv, lines", [
        # about 400 KB of JSON, far past a pipe's buffer: the writes fail
        # once the reader has read one line and closed its end
        (["solve", "cp:30", "--output", "json"], 1),
        # a short report, held in stdout's buffer, for a reader gone
        # before it starts: the flush fails
        (["validate", "cp:2"], 0)])
    def test_reader_closing_stdout_exits_141_with_nothing_on_stderr(
            self, argv, lines):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "frobdiag.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
        assert err == b""


class TestUsageErrors:
    """A command line argparse refuses returns 2; it does not raise."""

    @pytest.mark.parametrize("argv", [
        ("diag",),
        ("frobnicate",),
        ("kunneth", "sphere:1", "sphere:1", "--output", "json"),
        ("catalog", "--allow-noncommutative"),
    ], ids=["missing-input", "unknown-verb", "kunneth-output",
            "catalog-allow-noncommutative"])
    def test_exit_2_with_usage_on_stderr(self, invoke, argv):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: frobdiag")


# the argv shapes of the benchmark's cases (perfbench/cases.py)
BENCHMARK_ARGV = [
    ["validate", "doc.json", "--output", "json"],
    ["diag", "doc.json", "--output", "json"],
    ["diag", "doc.json", "--mode", "graded", "--output", "json"],
    ["solve", "doc.json", "--output", "json"],
    ["kunneth", "a.json", "b.json", "--mode", "graded"],
    ["pair", "doc.json", "--output", "json"],
    ["pair", "doc.json", "--mode", "graded", "--output", "json"],
]

# tokens argparse reads specially or refuses, and plain ones
ARGV_TOKENS = st.sampled_from([
    "validate", "diag", "solve", "pair", "kunneth", "catalog", "frobnicate",
    "--mode", "--output", "--name", "--allow-noncommutative", "literal",
    "graded", "text", "json", "cp:2", "doc.json", "", " ", "-", "--", "-h",
    "--help", "--out", "--mode=graded", "--allow", "-x", "-1", "@args"])


@st.composite
def plain_argvs(draw) -> list[str]:
    """A verb, its positional inputs and a drawn subset of its options
    with valid values, in a drawn order."""
    verb, _, inputs, options, _ = draw(st.sampled_from(cli._verbs()))
    words = st.text(max_size=6).filter(lambda t: not t.startswith("-"))
    groups = [[draw(words)] for _ in inputs]
    for option in draw(st.lists(st.sampled_from(options), unique=True)):
        spec = cli._OPTIONS[option]
        if spec.get("action") == "store_true":
            groups.append([option])
        else:
            groups.append([option, draw(st.sampled_from(spec["choices"]))
                           if "choices" in spec else draw(words)])
    order = draw(st.permutations(range(len(groups))))
    return [verb] + [t for index in order for t in groups[index]]


class TestPlainArgv:
    """``main`` reads a plain argv off the verb table, and leaves any
    other to argparse; a table read gives argparse's namespace."""

    @pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
    def test_benchmark_argv_is_read_off_the_table(self, argv):
        args = cli._plain_args(argv)
        assert args is not None
        assert args == cli.build_parser().parse_args(argv)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(plain_argvs(), st.lists(ARGV_TOKENS, max_size=7)))
    def test_table_read_equals_argparse(self, argv):
        args = cli._plain_args(argv)
        if args is not None:
            assert args == cli._parser().parse_args(argv)

    @settings(max_examples=100, deadline=None)
    @given(plain_argvs())
    def test_plain_argv_is_read_off_the_table(self, argv):
        assert cli._plain_args(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["validate", "--out", "json", "x"],
        ["validate", "--output=json", "x"],
        ["validate", "x", "--mode", "graded", "--mode", "literal"],
        ["validate", "x", "--mode", "signed"],
        ["validate", "--", "x"],
        ["validate", "-h"],
        ["validate", "x", "y"],
        ["kunneth", "x"],
        ["catalog", "--mode", "graded"],
        ["validate", "x", "--output"],
    ], ids=" ".join)
    def test_other_argv_is_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None


def test_each_verb_has_its_options():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    options = {verb: {s for a in sub._actions for s in a.option_strings
                      if s not in ("-h", "--help")}
               for verb, sub in subs.choices.items()}
    report = {"--mode", "--output", "--allow-noncommutative"}
    assert options == {
        "validate": report, "diag": report, "solve": report, "pair": report,
        "kunneth": {"--mode", "--allow-noncommutative", "--name"},
        "catalog": {"--output"},
    }


def test_matrix_text_pads_each_column_to_its_widest_entry():
    m = Matrix([[1, "-1/2", 0], [10, 3, "7/12"]])
    assert cli._matrix_text(m) == ("   1 -1/2    0\n"
                                   "  10    3 7/12")
    assert cli._matrix_text(Matrix([])) == "  (empty)"


def test_class_text_writes_labels_verbatim(invoke, tmp_path):
    # the sign goes into the joiner; a label holding "+ -" is not rewritten
    doc = json.loads(emit_document("sphere:2", resolve("sphere:2").payload))
    doc["basis"][1]["label"] = "p+ -q"
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke("diag", str(path))
    assert code == 0
    assert "class: 1(x)p+ -q + p+ -q(x)1\n" in out
    mu = Matrix([["-1/2", -1], [-3, 1]])
    assert cli._class_text(mu, ["a", "-b"], ["c", "d"]) == \
        "-1/2*a(x)c - a(x)d - 3*-b(x)c + -b(x)d"


class TestCatalogVerb:
    def test_lists_names(self, invoke):
        code, out, _ = invoke("catalog")
        assert code == 0
        assert "sphere:2" in out.splitlines()

    def test_json(self, invoke):
        code, out, _ = invoke("catalog", "--output", "json")
        assert "cp:2" in json.loads(out)["entries"]
