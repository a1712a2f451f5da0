"""Correctness gate: decides whether one CLI output is right.

A case fails on a nonzero exit code, an exception, or stdout that is not
the JSON the verb promises.  Beyond that each verb's output is held to
the facts the generator recorded for its input: reports must be
symmetric and top-normalized, ``mu`` must equal the closed-form pairing
inverse (checked at set-up to satisfy ``P . mu = I``), ``solve`` must find
the inverse class in its span and, on a closed ring, a space whose
dimension is the basis size.
"""

from __future__ import annotations

import json
from fractions import Fraction

from cases import Case, Input


def _mu(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def check(case: Case, inputs: dict[str, Input], code: int | None,
          stdout: str, error: str | None = None) -> str | None:
    """Return why the output is wrong, or None when it is right."""
    if error is not None:
        return f"exception: {error}"
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unparsable JSON: {exc}"
    if not isinstance(out, dict):
        return "output is not a JSON object"
    source = inputs[case.input_key]
    verb = case.verb
    if verb == "validate":
        if out.get("ok") is not True or out.get("violations") != []:
            return "validate reports violations"
        if out.get("kind") != source.kind:
            return f"validate kind {out.get('kind')!r} != {source.kind!r}"
    elif verb.startswith(("diag_", "pair_")):
        if out.get("symmetric") is not True:
            return "class is not symmetric"
        if out.get("top_normalization") is not True:
            return "class is not top-normalized"
        if out.get("mode") != verb.split("_")[1]:
            return f"mode {out.get('mode')!r} does not match {verb}"
        try:
            mu = _mu(out.get("mu"))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            return f"mu is not a rational matrix: {exc}"
        if mu != source.reference_mu:
            return "mu differs from the closed-form pairing inverse"
    elif verb == "solve":
        if out.get("inverse_class_member") is not True:
            return "inverse class is not in the solved span"
        if source.kind == "ring" and out.get("dimension") != source.basis_size:
            return (f"solve dimension {out.get('dimension')} != basis size "
                    f"{source.basis_size}")
        if len(out.get("basis", ())) != out.get("dimension"):
            return "solve basis length differs from its dimension"
    elif verb == "kunneth":
        factors = [inputs[a] for a in case.argv if a in inputs]
        expected = 1
        for factor in factors:
            expected *= factor.basis_size
        if len(out.get("basis", ())) != expected:
            return (f"product basis has {len(out.get('basis', ()))} "
                    f"elements, expected {expected}")
        if not out.get("lambda"):
            return "product document has no structure constants"
    else:
        return f"no check for verb {verb!r}"
    return None


def self_test(samples: list[tuple[Case, str]],
              inputs: dict[str, Input]) -> list[str]:
    """Corrupt known-good outputs and confirm the gate rejects each one.

    ``samples`` holds (case, stdout) pairs that passed the gate.  Returns
    the corruptions the gate failed to catch; an empty list is a pass.
    """
    missed = []

    def expect_failure(label: str, case: Case, code, stdout, error=None):
        if check(case, inputs, code, stdout, error) is None:
            missed.append(f"{case.verb}: {label}")

    for case, stdout in samples:
        expect_failure("exit code 1", case, 1, stdout)
        expect_failure("exception", case, None, "", "RuntimeError()")
        expect_failure("truncated JSON", case, 0, stdout[: len(stdout) // 2])
        out = json.loads(stdout)
        mutations = {
            "validate": [("ok", False)],
            "solve": [("inverse_class_member", False),
                      ("inverse_class_member", None)],
            "kunneth": [("basis", out.get("basis", [])[:-1])],
        }.get(case.verb, [("symmetric", False), ("top_normalization", False)])
        for key, value in mutations:
            expect_failure(f"{key}={value!r}", case, 0,
                           json.dumps({**out, key: value}))
        if "mu" in out:
            bad = [list(row) for row in out["mu"]]
            bad[0][0] = str(Fraction(bad[0][0]) + 1)
            expect_failure("mu entry moved", case, 0,
                           json.dumps({**out, "mu": bad}))
        if case.verb == "solve" and inputs[case.input_key].kind == "ring":
            grown = {**out, "dimension": out["dimension"] + 1,
                     "basis": out["basis"] + out["basis"][:1]}
            expect_failure("dimension off by one", case, 0,
                           json.dumps(grown))
    return missed
