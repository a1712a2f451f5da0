"""What ``parse_document`` makes of damaged tensor entries, pinned.

Each case is a catalog document with one tensor entry changed by a seeded
``random.Random``: a key dropped or added, an index made a bool, a float
or a string, the entry replaced by a non-object or repeated, its value
replaced by another rational or by a string at the edge of the rational
grammar, or two of these faults at once.  Its outcome is
the re-emitted document when the text parses, or the exact
``DocumentError`` message when it does not.

``golden/document_outcomes.sha256`` holds one line per case: the SHA-256
of the outcome, two spaces, and the case's name.  To rewrite the file
after an intended change of output, run this module as a script from the
root of the repository with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from frobdiag.catalog import catalog_names, resolve
from frobdiag.document import DocumentError, emit_document, parse_document

OUTCOMES = Path(__file__).parent / "golden" / "document_outcomes.sha256"

# values at the edge of the grammar ``-?digits(/digits)?``: a sign, a
# space, an underscore and a non-ASCII digit that Fraction(str) or int()
# would take, a zero denominator, a negative zero, an unreduced fraction,
# and numerals just past and just within int()'s 4300-digit limit
EDGE_VALUES = {
    "plus": "+3",
    "space": " 3",
    "underscore": "3_0",
    "arabic-indic": "٣",
    "arabic-indic-ratio": "1/٢",
    "zero-denominator": "1/0",
    "negative-zero": "-0",
    "unreduced": "4/2",
    "unreduced-negative": "-6/4",
    "newline": "3\n",
    "long-numerator": "1" + "0" * 4300,
    "long-denominator": "1/" + "7" * 4301,
    "longest-negative": "-" + "9" * 4300,
}
SEEDS = (1, 2, 3)


def _tensor(doc: dict, rng: random.Random) -> list:
    """The ring tensor, or a pair's action tensor, picked by ``rng``."""
    if "module" in doc and rng.random() < 0.5:
        return doc["module"]["action"]
    return doc["lambda"]


def _mutate(entries: list, at: int, kind: str, rng: random.Random) -> None:
    entry = entries[at]
    index = rng.choice(("i", "j", "k"))
    if kind == "two-faults":
        # two faults in one entry pin the order of the checks
        for fault in rng.sample(ENTRY_FAULTS, 2):
            _mutate(entries, at, fault, rng)
    elif kind == "drop-key":
        del entry[rng.choice(("i", "j", "k", "value"))]
    elif kind == "unknown-key":
        entry[rng.choice(("w", "I", "values", "zz"))] = rng.randrange(3)
    elif kind == "bool-index":
        entry[index] = bool(entry[index])
    elif kind == "float-index":
        entry[index] = float(entry[index])
    elif kind == "str-index":
        entry[index] = str(entry[index])
    elif kind == "non-object":
        entries[at] = rng.choice(([entry["i"], entry["j"]], 7, "entry",
                                  None, True))
    elif kind == "duplicate":
        entries.insert(rng.randrange(len(entries) + 1),
                       dict(entry, value=str(rng.randrange(-3, 4))))
    elif kind == "rational":
        entry["value"] = f"{rng.randrange(-40, 41)}/{rng.randrange(1, 12)}"
    else:
        entry["value"] = EDGE_VALUES[kind]


# the faults that leave the entry an object in its place
ENTRY_FAULTS = ("drop-key", "unknown-key", "bool-index", "float-index",
                "str-index", "plus", "zero-denominator", "long-numerator")
KINDS = ("drop-key", "unknown-key", "bool-index", "float-index", "str-index",
         "non-object", "duplicate", "rational", *EDGE_VALUES, "two-faults")


def cases() -> list[tuple[str, str]]:
    """``(case name, document text)`` for every catalog entry, mutation
    kind and seed."""
    out = []
    for name in catalog_names():
        base = emit_document(name, resolve(name).payload)
        for kind in KINDS:
            for seed in SEEDS:
                rng = random.Random(f"{name} {kind} {seed}")
                doc = json.loads(base)
                entries = _tensor(doc, rng)
                _mutate(entries, rng.randrange(len(entries)), kind, rng)
                out.append((f"{name} {kind} {seed}", json.dumps(doc)))
    return out


def outcome(text: str) -> str:
    try:
        name, payload = parse_document(text)
    except DocumentError as exc:
        return f"DocumentError: {exc}"
    return emit_document(name, payload)


def outcome_lines() -> list[str]:
    return [f"{hashlib.sha256(outcome(text).encode()).hexdigest()}  {case}"
            for case, text in cases()]


def test_document_outcomes_are_unchanged():
    expected = OUTCOMES.read_text().splitlines()
    actual = outcome_lines()
    assert [line.split("  ")[1] for line in expected] == \
        [line.split("  ")[1] for line in actual]
    changed = [b.split("  ")[1] for a, b in zip(expected, actual) if a != b]
    assert not changed, changed


def test_outcomes_are_the_expected_kind():
    """A fresh rational and the longest admitted numeral parse; an
    over-long numeral and a repeated entry do not."""
    results = {}
    for case, text in cases():
        kind = case.split(" ")[1]
        results.setdefault(kind, set()).add(outcome(text).startswith(
            "DocumentError: "))
    assert results["rational"] == {False}
    assert results["long-numerator"] == {True}
    assert results["longest-negative"] == {False}
    assert results["duplicate"] == {True}


if __name__ == "__main__":
    OUTCOMES.write_text("\n".join(outcome_lines()) + "\n")
