"""Independent dense-matrix model used as an oracle in the tests.

Operators are modelled as plain dicts (row, col) -> Scalar built directly
from their defining formulas, never through the line calculus.  Compositions
are classical triple loops.  Comparisons happen on windows well inside the
modelled index range so truncation cannot leak in.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from tateops import InsufficientWindowError, LaurentPoly, Scalar, TateOp, trace
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


def dense_restrict(a: Dense, row_lo, row_hi, col_lo, col_hi) -> Dense:
    """The cells inside [row_lo, row_hi) x [col_lo, col_hi); bounds may be infinite."""
    return {(i, j): v for (i, j), v in a.items()
            if row_lo <= i < row_hi and col_lo <= j < col_hi}


def box_pair_sum(x: TateOp, y: TateOp, box, width: int) -> Scalar:
    """The sum of x(i, k) y(k, i) over the places (i, k) of box = (row_lo,
    row_hi, col_lo, col_hi), bounds possibly infinite, with |i|, |k| <= width:
    tr(x_box y_box) at level 1 when the window covers every nonzero term.
    Each entry is read by ``nested_entry`` from the presentation; column k
    of x is zero off the rows where one of its lines or cells sits, so only
    those rows are read."""
    i_lo, i_hi, k_lo, k_hi = box
    total = x.field.zero()
    for k in range(max(-width, k_lo), min(width + 1, k_hi)):
        rows = {k + off if orient == "diag" else off - k for (orient, off) in x.lines}
        rows.update(i for (i, j) in x.corr if j == k)
        for i in rows:
            if i_lo <= i < i_hi and abs(i) <= width:
                total = total + nested_entry(x, [(i, k)]) * nested_entry(y, [(k, i)])
    return total


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


def _line_value(seq, j: int):
    """The value of a stored line at column j, read off its limits and window."""
    if j < seq.window_start:
        return seq.left
    if j < seq.window_start + len(seq.window):
        return seq.window[j - seq.window_start]
    return seq.right


def assert_canonical(a, level: int | None = None, field: Field | None = None) -> None:
    """Assert that a is a TateOp stored in the one form the TateOp docstring
    states, reading only the stored lines and cells, never the constructor:

    * a is a TateOp of the given level and field (when given), and every
      stored value is a Scalar of that field at level 1 and, above it, a
      TateOp one level down that passes this same check;
    * line keys are (diag|anti, int) and cell keys (int, int);
    * every kept line has a nonzero limit, and no anti line a nonzero right
      limit;
    * every line is stored as minimal steps: ``starts`` is a tuple of
      strictly increasing ints, ``values`` a tuple as long, no value equals
      the value before it (the first not the left limit), and the right
      limit is the last value, or the left limit when there are no steps;
    * no cell is zero or lies on a kept line;
    * where a kept diagonal and a kept anti line cross, the anti line reads 0.
    """
    assert type(a) is TateOp, type(a)
    assert level is None or a.level == level, (a.level, level)
    assert field is None or a.field is field, (a.field, field)
    for (orient, off), seq in a.lines.items():
        assert orient in ("diag", "anti") and type(off) is int, (orient, off)
        starts, values = seq.starts, seq.values
        assert type(starts) is tuple and type(values) is tuple, (orient, off)
        assert len(starts) == len(values), ("steps", orient, off)
        assert all(type(p) is int for p in starts), ("starts", orient, off)
        assert all(p < q for p, q in zip(starts, starts[1:])), ("starts", orient, off)
        for v in (seq.left, *values):
            _assert_canonical_entry(v, a.level, a.field)
        before = (seq.left, *values)
        assert all(v != u for u, v in zip(before, values)), ("repeated value", orient, off)
        assert seq.right == before[-1], ("right limit", orient, off)
        assert not (seq.left.is_zero() and seq.right.is_zero()), ("zero limits", orient, off)
        assert orient == "diag" or seq.right.is_zero(), ("anti right tail", off)
    for (i, j), v in a.corr.items():
        assert type(i) is int and type(j) is int, (i, j)
        _assert_canonical_entry(v, a.level, a.field)
        assert not v.is_zero(), ("zero cell", i, j)
        assert ("diag", i - j) not in a.lines and ("anti", i + j) not in a.lines, \
            ("cell on a line", i, j)
    for orient, d in a.lines:
        for other, c in a.lines:
            if orient == "diag" and other == "anti" and (c - d) % 2 == 0:
                j = (c - d) // 2
                assert _line_value(a.lines[(other, c)], j).is_zero(), ("crossing", d, c)


def _assert_canonical_entry(v, level: int, field: Field) -> None:
    if level == 1:
        assert type(v) is Scalar and v.field is field, v
    else:
        assert_canonical(v, level - 1, field)


def nested_entry(op: TateOp, index) -> Scalar:
    """The scalar entry of a level-n operator at the multi-index
    ((i_n, j_n), ..., (i_1, j_1)), outermost variable first.

    Read straight from the presentation, one level at a time: a diagonal line
    on d holds (j + d, j), an anti line on c holds (c - j, j), and the entry
    at (i, j) sums the lines through it and the correction cell there, each
    evaluated at the rest of the multi-index.
    """
    assert len(index) == op.level
    (i, j), rest = index[0], index[1:]
    total = op.field.zero()
    for part in _parts(op, i, j):
        total = total + (nested_entry(part, rest) if rest else part)
    return total


def _parts(op: TateOp, i: int, j: int) -> list:
    """The values at (i, j) of the stored lines through it and of its cell."""
    parts = [_line_value(seq, j) for (orient, off), seq in op.lines.items()
             if i == (j + off if orient == "diag" else off - j)]
    if (i, j) in op.corr:
        parts.append(op.corr[(i, j)])
    return parts


def window_agrees(op: TateOp, matrix, row_lo: int, row_hi: int, col_lo: int,
                  col_hi: int) -> bool:
    """Whether matrix is op's dense window on [row_lo, row_hi) x [col_lo, col_hi),
    read from the presentation alone: one row per i and one entry per j,
    each equal to the sum of the stored pieces through (i, j) that
    nested_entry reads.  An entry is compared with that sum as nested_equal
    compares, so no operator is added and no window is built by the engine."""
    rows, cols = range(row_lo, row_hi), range(col_lo, col_hi)
    if len(matrix) != len(rows) or any(len(row) != len(cols) for row in matrix):
        return False
    return all(_sums_equal([v], _parts(op, i, j), op.level - 1, op.field)
               for i, row in zip(rows, matrix) for j, v in zip(cols, row))


def column_support(op: TateOp, j: int) -> list[int]:
    """Rows of the nonzero entries in column j of a level-1 operator, read
    from the presentation: the row where each line crosses column j and each
    correction cell in it, kept when the entry there is nonzero."""
    rows = {j + off if orient == "diag" else off - j for (orient, off) in op.lines}
    rows.update(i for (i, jj) in op.corr if jj == j)
    return sorted(i for i in rows if not nested_entry(op, ((i, j),)).is_zero())


def nested_equal(a: TateOp, b: TateOp) -> bool:
    """Whether two level-n operators have the same entry function, read from
    the presentations alone, as nested_entry reads them: no operator is
    added, subtracted, normalized or compared with the engine's ``==``.

    Per line key the left and right limits must agree (they are the entries
    far out along the line), and so must the entries on a box that covers
    every window with one column to spare on each side, every cell and every
    crossing of a diagonal with an anti line.  Off that box a position lies
    on at most one line key, beyond every window on it, so these two checks
    decide equality.  Entries are compared the same way one level down.
    """
    assert a.level == b.level and a.field is b.field
    return _sums_equal([a], [b], a.level, a.field)


def _sums_equal(xs: list, ys: list, level: int, field: Field) -> bool:
    """Whether the sum of the level-``level`` entries xs equals that of ys,
    scalars at level 0; nothing is summed above level 0."""
    if level == 0:
        return _scalar_sum(xs, field) == _scalar_sum(ys, field)
    keys = {key for op in xs + ys for key in op.lines}
    for key in keys:
        for side in ("left", "right"):
            lx = [getattr(op.lines[key], side) for op in xs if key in op.lines]
            ly = [getattr(op.lines[key], side) for op in ys if key in op.lines]
            if not _sums_equal(lx, ly, level - 1, field):
                return False
    cells = {cell for op in xs + ys for cell in op.corr}
    for op in xs + ys:
        for (orient, off), seq in op.lines.items():
            for j in range(seq.window_start - 1, seq.window_start + len(seq.window) + 1):
                cells.add((j + off if orient == "diag" else off - j, j))
    for orient, d in keys:
        for other, c in keys:
            if orient == "diag" and other == "anti" and (c - d) % 2 == 0:
                cells.add(((c + d) // 2, (c - d) // 2))
    if not cells:
        return True
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    for i in range(min(rows), max(rows) + 1):
        for j in range(min(cols), max(cols) + 1):
            px = [p for op in xs for p in _parts(op, i, j)]
            py = [p for op in ys for p in _parts(op, i, j)]
            if (px or py) and not _sums_equal(px, py, level - 1, field):
                return False
    return True


def _scalar_sum(values: list, field: Field) -> Scalar:
    total = field.zero()
    for v in values:
        total = total + v
    return total


def _box_entries(op: TateOp) -> dict:
    """The entries ``op.entry(i, j)`` at every place on a line or cell in the
    columns of a box that covers every window (one column to spare on each
    side), every cell and every crossing of a diagonal with an anti line.
    Off that box a place lies on at most one line, beyond its window, so its
    entry is that line's limit, or zero; the split of a crossing between the
    stored lines does not show."""
    cols = [j for (_, j) in op.corr]
    for (orient, off), seq in op.lines.items():
        cols += [seq.window_start - 1, seq.window_start + len(seq.window)]
    cols += [(c - d) // 2 for orient, d in op.lines for other, c in op.lines
             if orient == "diag" and other == "anti" and (c - d) % 2 == 0]
    out = {}
    for j in range(min(cols, default=0), max(cols, default=-1) + 1):
        rows = {j + off if orient == "diag" else off - j for (orient, off) in op.lines}
        rows.update(i for (i, jj) in op.corr if jj == j)
        out.update(((i, j), op.entry(i, j)) for i in rows)
    return out


def entry_flags(op: TateOp, i: int) -> tuple[bool, bool]:
    """(in I_i^+, in I_i^-) for one variable index i, read from the entries:
    when i is the outer variable, bounded (no line tail runs to rows -> -oo)
    and discrete (no nonzero right tail) from the line limits, and otherwise
    the AND over every entry, the box entries and the line limits, of the
    same test for i one level down."""
    if i == op.level:
        bounded = all((seq.left if orient == "diag" else seq.right).is_zero()
                      for (orient, _), seq in op.lines.items())
        return bounded, all(seq.right.is_zero() for seq in op.lines.values())
    entries = list(_box_entries(op).values())
    entries += [v for seq in op.lines.values() for v in (seq.left, seq.right)]
    flags = [entry_flags(e, i) for e in entries]
    return all(p for p, _ in flags), all(m for _, m in flags)


def entry_indices(op: TateOp) -> tuple:
    """(least row, one past the greatest column) over the nonzero box
    entries, None for both when there are none: ``ideal_membership``'s
    bounding_row when op is bounded, and its kill_column when it is
    discrete, read from the entries.  Outside the box the nonzero line tails
    of a bounded operator run to rows -> +oo, and those of a discrete one to
    columns -> -oo, so the box decides both."""
    places = [place for place, v in _box_entries(op).items() if not v.is_zero()]
    if not places:
        return None, None
    return min(i for i, _ in places), max(j for _, j in places) + 1


def nested_trace_oracle(op: TateOp, half_width: int) -> Scalar:
    """The iterated trace of a level-n operator as the sum of nested_entry over
    the diagonal multi-indices ((i_n, i_n), ..., (i_1, i_1)) with every
    |i_k| <= half_width, read from the presentation alone.

    Like ``trace_oracle``, it first checks from the presentation that the
    window covers every diagonal multi-index where a nonzero entry can sit,
    and raises InsufficientWindowError when it does not.
    """
    reach = _diagonal_reach(op)
    if reach > half_width:
        raise InsufficientWindowError(
            f"diagonal support reaches |i| = {reach}, outside half-width {half_width}")
    total = op.field.zero()
    for idx in itertools.product(range(-half_width, half_width + 1), repeat=op.level):
        total = total + nested_entry(op, [(i, i) for i in idx])
    return total


def window_trace(op: TateOp, n_m: int, n_prime_m: int) -> Scalar:
    """The trace of the map op induces on t^n_m O / t^n_prime_m O in the outer
    variable: the sum of its diagonal entries (i, i) for n_m <= i < n_prime_m,
    each traced one level down by ``trace`` above level 1.  For every pair
    that ``certificate`` accepts this is trace(op)."""
    total = op.field.zero()
    for i in range(n_m, n_prime_m):
        e = op.entry(i, i)
        total = total + (e if op.level == 1 else trace(e))
    return total


def _diagonal_reach(op: TateOp) -> int:
    """The largest |i_k| over the diagonal multi-indices where a nonzero
    stored piece sits at every level, or -1 when there is none.  A diagonal
    line with a nonzero limit meets the main diagonal infinitely often, so
    no window covers it."""
    parts = [(i, v) for (i, j), v in op.corr.items() if i == j]
    for (orient, off), seq in op.lines.items():
        if orient == "anti" and off % 2 == 0:
            parts.append((off // 2, _line_value(seq, off // 2)))
        elif orient == "diag" and off == 0:
            if not (seq.left.is_zero() and seq.right.is_zero()):
                raise InsufficientWindowError("a diagonal line has a nonzero limit")
            parts += [(seq.window_start + k, v) for k, v in enumerate(seq.window)]
    reach = -1
    for i, v in parts:
        inner = 0 if op.level == 1 else _diagonal_reach(v)
        if not v.is_zero() and inner >= 0:
            reach = max(reach, abs(i), inner)
    return reach


def nested_product_entry(a: TateOp, b: TateOp, index) -> Scalar:
    """The scalar entry of the composite a b at a multi-index, without
    composing: (a b)(i, j) is the sum over k of a(i, k) b(k, j).  Row i of a
    presentation meets each line in one column and its own cells, so the sum
    is finite; each product of parts is expanded one level down in turn."""
    assert len(index) == a.level == b.level
    (i, j), rest = index[0], index[1:]
    columns = {i - off if orient == "diag" else off - i for (orient, off) in a.lines}
    columns.update(k for (r, k) in a.corr if r == i)
    total = a.field.zero()
    for k in columns:
        for pa in _parts(a, i, k):
            for pb in _parts(b, k, j):
                total = total + (nested_product_entry(pa, pb, rest) if rest else pa * pb)
    return total


def laurent_from_pairs(field: Field, pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
    """Build a polynomial from (exponent, integer coefficient) pairs."""
    out = LaurentPoly.zero(field)
    for exp, c in pairs:
        out = out + LaurentPoly.monomial(field, exp, field.from_int(c))
    return out
