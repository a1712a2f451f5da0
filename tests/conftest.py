from __future__ import annotations

import contextlib
import io

import pytest

from frobdiag.cli import main
from frobdiag.linalg import Matrix


@pytest.fixture
def invoke():
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.fixture
def residual_system():
    """A symmetry system read off the residuals of the unit classes.

    ``residual(mu)`` lists the residual entries of the class with
    coefficient matrix ``mu``.  Column ``a*n_right + b`` of the system is
    the residual of the unit class ``E_ab`` and row ``(probe, left,
    right)`` its coefficient there.  Rows come in that order, each as its
    nonzero ``(column, value)`` pairs sorted by column; zero rows are
    left out.  A row of one term says only that its unknown ``c`` is 0,
    which is all the system builder hands over for it, so it is given
    as ``((c, 1),)``.
    """

    def build(n_left: int, n_right: int, residual) -> list[tuple]:
        rows: dict[tuple[int, int, int], dict] = {}
        for a in range(n_left):
            for b in range(n_right):
                mu = Matrix([[int((i, j) == (a, b)) for j in range(n_right)]
                             for i in range(n_left)])
                for e in residual(mu):
                    key = (e.probe, e.left, e.right)
                    rows.setdefault(key, {})[a * n_right + b] = e.value
        return [tuple(sorted(rows[key].items())) if len(rows[key]) > 1
                else ((*rows[key], 1),) for key in sorted(rows)]

    return build
