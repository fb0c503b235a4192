"""The exact trace on trace-class operators, via lattice factorization.

A trace-class operator maps some standard lattice N into itself and kills a
sublattice N'; the trace is the matrix trace of the induced map on N/N' and
is independent of the chosen pair.  Only diagonal cells can contribute, and
the line geometry says which ones can be nonzero: a trace-class operator
keeps no diagonal line (both limits vanish, so normalization folds it into
the correction), and every anti line meets the main diagonal in at most one
cell.  The trace sums exactly those crossings and the diagonal correction
cells, so its cost follows the stored data, not the size of N/N'.  A
certificate, like a ``LatticeFactorization``, keeps the operator: the dense
window of the induced map is laid out from ``TateOp.restrict`` only when its
``window_matrix`` is read.  At level n the same routine traces each
diagonal entry one level down.  An independent window oracle sums the
diagonal entries over a whole window instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from .fields import Scalar
from .operators import (_is_trace_class, _paired, ANTI, DIAG, NEG_INF, POS_INF,
                        StandardLattice, TateOp)


class NotTraceClassError(ValueError):
    """The trace was requested for an operator outside the trace-class ideal."""


class InsufficientWindowError(ValueError):
    """The requested oracle window does not cover all diagonal support."""


@dataclass(frozen=True)
class TraceCertificate:
    """Witness for a trace value: N maps into itself, N' is killed."""

    N: StandardLattice
    N_prime: StandardLattice
    op: TateOp = field(hash=False)

    def window_size(self) -> int:
        return self.N_prime.m - self.N.m

    @cached_property
    def window_matrix(self) -> tuple:
        """The dense matrix of the induced map on N/N', built on first access."""
        return self.op.window_matrix(self.N.m, self.N_prime.m, self.N.m, self.N_prime.m)


def _diagonal_cells(a: TateOp) -> list[int]:
    """Sorted indices i whose entry (i, i) the line geometry allows to be nonzero.

    Complete when the outer line limits are trace-class.  A diagonal line
    then has both limits zero, and normalization has folded it into the
    correction, so only the crossing of each even-offset anti line and the
    diagonal correction cells remain.
    """
    cells = {i for (i, j) in a.corr if i == j}
    for (orient, off), seq in a.lines.items():
        if orient == ANTI and off % 2 == 0 and not seq.value(off // 2).is_zero():
            cells.add(off // 2)
    return sorted(cells)


def _diagonal_sum(a: TateOp) -> Scalar:
    """The iterated trace of an operator the caller has found trace-class:
    the sum of its diagonal entries, each traced one level down below level 1.
    Every listed entry is nonzero: a stored cell is, a trace-class operator
    keeps no diagonal line, and an anti value is listed only when nonzero."""
    total = a.field.zero()
    for i in _diagonal_cells(a):
        e = a.entry(i, i)
        total = total + (e if a.level == 1 else _diagonal_sum(e))
    return total


def _require_trace_class(a: TateOp) -> None:
    if not _is_trace_class(a):
        raise NotTraceClassError("operator is not trace-class")


def certificate(a: TateOp, n_m: int | None = None,
                n_prime_m: int | None = None) -> TraceCertificate:
    """Build a (N, N') certificate for the outer variable; optional overrides
    must still certify.  Rejects exactly what ``trace`` rejects, at every
    level, and is the one routine that takes or checks a lattice pair.

    Default: N = t^min(bounding_row, kill_column, 0) * O and
    N' = t^kill_column * O, read off the line geometry; a trace-class
    operator is bounded and discrete, so both exist unless it is zero.
    """
    _require_trace_class(a)
    row, kill = a.maps_lattice_into(NEG_INF), a.kill_column()
    if n_m is None:
        n_m = min(row if row is not None else 0, kill if kill is not None else 0, 0)
    if n_prime_m is None:
        n_prime_m = kill if kill is not None else 0
    n, n_prime = StandardLattice(n_m), StandardLattice(n_prime_m)
    if n.m > n_prime.m:
        raise ValueError("N must contain N'")
    if row is not None and n.m > row:
        raise ValueError(f"{n} does not contain the image")
    if kill is not None and n_prime.m < kill:
        raise ValueError(f"{n_prime} is not killed")
    return TraceCertificate(n, n_prime, a)


def trace(a: TateOp) -> Scalar:
    """The trace at every level.

    At level 1 it is the matrix trace of the induced map on N/N', the same
    for every pair that ``certificate`` accepts.  At level n it is the
    level-1 trace of the outer presentation, applied again to each diagonal
    entry one level down.  Membership in the cubical trace-class ideal is
    decided once, here: every entry of a trace-class operator is trace-class
    one level down, so the recursion does not re-check it.  The value is the
    sum over the diagonal cells the geometry allows, so no lattice pair is
    chosen and no certificate is built.
    """
    _require_trace_class(a)
    return _diagonal_sum(a)


def _product_sum(x: TateOp, y: TateOp, i_lo=NEG_INF, i_hi=POS_INF,
                 k_lo=NEG_INF, k_hi=POS_INF) -> Scalar:
    """The sum of tr(x(i, k) y(k, i)) over i_lo <= i < i_hi and
    k_lo <= k < k_hi, each term traced one level down below level 1, without
    forming x y; the bounds may be infinite, and they default to the whole
    plane, where the sum is the iterated trace of x y for x or y
    trace-class.  With the box of x's pm corner it is tr(x_pm y_mp), with no
    corner cut.

    The sum runs over the places where a piece of x meets the transpose of
    a piece of y inside the box.  A correction cell of x pairs with the
    whole entry of y at its transpose, and a correction cell of y with the
    line entry of x at its transpose (in canonical form no line crosses a
    correction cell, so no pair is counted twice); off its cells a
    line-free factor is zero, so against one the cells pair by transposed
    key alone.  A diagonal and an anti line meet in at most one cell.  Two
    lines that are each other's transpose, (DIAG, d) of x with (DIAG, -d)
    of y or (ANTI, c) with (ANTI, c), meet all along y's columns i whose
    rows k the box allows; that product sequence is ``_paired`` of the two
    lines, built once per step, and its ``sum`` over the allowed columns
    takes each run as one product times its length, so its cost follows
    the steps, not the length of the stretch, and a nonzero tail product
    over an infinite stretch raises ValueError.  On the whole plane
    no such stretch has a nonzero tail: a trace-class factor keeps no
    diagonal line, and the anti lines' right tails vanish.  Pairs with a
    zero factor add nothing, and a zero x or y gives the field's shared
    zero at once.
    """
    if x.is_zero() or y.is_zero():
        return x.field.zero()
    pairs = []
    if x.corr:
        if y.lines:
            pairs = [(v, y.entry(k, i)) for (i, k), v in x.corr.items()
                     if i_lo <= i < i_hi and k_lo <= k < k_hi]
        else:
            pairs = [(v, y.corr[k, i]) for (i, k), v in x.corr.items()
                     if (k, i) in y.corr and i_lo <= i < i_hi and k_lo <= k < k_hi]
    if y.corr and x.lines:
        pairs += [(x.entry(i, k), w) for (k, i), w in y.corr.items()
                  if (i, k) not in x.corr and i_lo <= i < i_hi and k_lo <= k < k_hi]
    total = zero = x.field.zero()
    term = operator.mul if x.level == 1 else _product_sum
    crossing = {DIAG: [], ANTI: []}  # y's lines, listed under the orientation they cross
    for (oy, cy), sy in y.lines.items():
        crossing[ANTI if oy == DIAG else DIAG].append((cy, sy))
    for (ox, cx), sx in x.lines.items():
        # y's transposed line, if any: its column i meets x's column i + c
        # (DIAG) or c - i (ANTI), in the row k the box must allow
        c = -cx if ox == DIAG else cx
        sy = y.lines.get((ox, c))
        if sy is not None:
            lo, hi = (k_lo - c, k_hi - c) if ox == DIAG else (c - k_hi + 1, c - k_lo + 1)
            total = total + _paired(sx, sy, term, ox, c).sum(max(lo, i_lo), min(hi, i_hi), zero)
        for cy, sy in crossing[ox]:
            diff = cy - cx if ox == DIAG else cx - cy
            if diff % 2 == 0:
                # the meeting cell (i, k): x's column k, y's column i
                i, k = (diff // 2 + cx, diff // 2) if ox == DIAG else (diff // 2, diff // 2 + cy)
                if i_lo <= i < i_hi and k_lo <= k < k_hi:
                    pairs.append((sx.value(k), sy.value(i)))
    for v, w in pairs:
        if not v.is_zero() and not w.is_zero():
            total = total + term(v, w)
    return total


def trace_product(x: TateOp, y: TateOp) -> Scalar:
    """trace(x * y), with the same value and the same rejections.

    When x or y is trace-class so is x y, and the sum runs over the cells
    where the pieces of x and y meet, never building x y; its entries are
    trace-class one level down, so the recursion does not re-check them.
    When neither is, x y may still be trace-class, and it is traced whole.
    """
    x._check(y)
    if _is_trace_class(x) or _is_trace_class(y):
        return _product_sum(x, y)
    return trace(x * y)


def trace_oracle(a: TateOp, half_width: int) -> Scalar:
    """Independent check: sum of entry(i, i) over |i| <= half_width.

    Validates from the line geometry that the window covers every diagonal
    crossing; reports rather than silently truncating.
    """
    if a.level != 1:
        raise NotTraceClassError("the window oracle is a level-1 check")
    _require_trace_class(a)
    cells = _diagonal_cells(a)
    if cells and (cells[0] < -half_width or cells[-1] > half_width):
        raise InsufficientWindowError(
            f"diagonal support spans [{cells[0]}, {cells[-1]}], "
            f"outside half-width {half_width}")
    total = a.field.zero()
    for i in range(-half_width, half_width + 1):
        total = total + a.entry(i, i)
    return total


@dataclass(frozen=True)
class RestrictQuotient:
    """Outcome of cutting along t^m * O: does the operator respect the lattice,
    and the two induced operators when it does."""

    sub_ok: bool
    restriction: TateOp | None
    quotient: TateOp | None


def restrict_and_quotient(a: TateOp, m: int) -> RestrictQuotient:
    """Split along t^m * O when a(t^m O) lies in t^m O.

    The restriction is reindexed to live on O (conjugated by t^-m); the
    quotient operator acts on the complement coordinates, masked in place.
    For trace-class a, trace(a) = trace(restriction) + trace(quotient).
    """
    if a.level != 1:
        raise NotTraceClassError("restriction along a standard lattice is level-1")
    img = a.maps_lattice_into(m)
    sub_ok = img is None or img >= m
    if not sub_ok:
        return RestrictQuotient(False, None, None)
    conj = TateOp.shift(-m, 1, a.field) * a * TateOp.shift(m, 1, a.field)
    return RestrictQuotient(True, conj.restrict(col_lo=0),
                            a.restrict(row_hi=m, col_hi=m))
