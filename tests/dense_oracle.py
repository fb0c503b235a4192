"""Independent dense-matrix model used as an oracle in the tests.

Operators are modelled as plain dicts (row, col) -> Scalar built directly
from their defining formulas, never through the line calculus.  Compositions
are classical triple loops.  Comparisons happen on windows well inside the
modelled index range so truncation cannot leak in.
"""

from __future__ import annotations

from typing import Iterable

from tateops import LaurentPoly, Scalar, TateOp
from tateops.fields import Field

Dense = dict


def dense_mul(f: LaurentPoly, width: int) -> Dense:
    out = {}
    for j in range(-width, width + 1):
        for e, c in f.items():
            out[(j + e, j)] = c
    return out


def dense_shift(field: Field, k: int, width: int) -> Dense:
    return {(j + k, j): field.one() for j in range(-width, width + 1)}


def dense_proj_plus(field: Field, m: int, width: int) -> Dense:
    return {(j, j): field.one() for j in range(-width, width + 1) if j >= m}


def dense_proj_minus(field: Field, m: int, width: int) -> Dense:
    return {(j, j): field.one() for j in range(-width, width + 1) if j < m}


def dense_flip(field: Field, width: int) -> Dense:
    return {(-1 - j, j): field.one() for j in range(-width, 0)}


def dense_finite(cells) -> Dense:
    return dict(cells)


def dense_add(a: Dense, b: Dense, field: Field) -> Dense:
    out = dict(a)
    for cell, v in b.items():
        out[cell] = out[cell] + v if cell in out else v
    return {c: v for c, v in out.items() if not v.is_zero()}


def dense_compose(a: Dense, b: Dense, field: Field) -> Dense:
    by_row = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), va in a.items():
        for j, vb in by_row.get(k, ()):
            cell = (i, j)
            prod = va * vb
            out[cell] = out[cell] + prod if cell in out else prod
    return {c: v for c, v in out.items() if not v.is_zero()}


def dense_trace(a: Dense, field: Field) -> Scalar:
    total = field.zero()
    for (i, j), v in a.items():
        if i == j:
            total = total + v
    return total


def assert_matches(op: TateOp, dense: Dense, width: int, margin: int = 0) -> None:
    """Compare the operator against the dense model on [-width+margin, width-margin]^2."""
    w = width - margin
    for i in range(-w, w + 1):
        for j in range(-w, w + 1):
            got = op.entry(i, j)
            want = dense.get((i, j), op.field.zero())
            assert got == want, f"entry ({i},{j}): engine {got}, oracle {want}"


def laurent_from_pairs(field: Field, pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
    """Build a polynomial from (exponent, integer coefficient) pairs."""
    out = LaurentPoly.zero(field)
    for exp, c in pairs:
        out = out + LaurentPoly.monomial(field, exp, field.from_int(c))
    return out
