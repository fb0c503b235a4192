"""The exact trace on trace-class operators, via lattice factorization.

A trace-class operator maps some standard lattice N into itself and kills a
sublattice N'; the trace is the matrix trace of the induced map on N/N' and
is independent of the chosen pair.  Only diagonal cells can contribute, and
the line geometry says which ones can be nonzero: a trace-class operator
keeps no diagonal line (both limits vanish, so normalization folds it into
the correction), and every anti line meets the main diagonal in at most one
cell.  The trace sums exactly those crossings and the diagonal correction
cells, so its cost follows the stored data, not the size of N/N'; the dense
window of the induced map is built only when a certificate's
``window_matrix`` is read.  At level n the same routine traces each
diagonal entry one level down.  An independent window oracle sums the
diagonal entries over a whole window instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .fields import Scalar
from .operators import ANTI, DIAG, StandardLattice, TateOp, ideal_membership


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
    the sum of its diagonal entries, each traced one level down below level 1."""
    total = a.field.zero()
    for i in _diagonal_cells(a):
        e = a.entry(i, i)
        if a.level > 1:
            if e.is_zero():
                continue
            e = _diagonal_sum(e)
        total = total + e
    return total


def certificate(a: TateOp, n_m: int | None = None,
                n_prime_m: int | None = None) -> TraceCertificate:
    """Build a (N, N') certificate; optional overrides must still certify.

    Default: N = t^min(bounding_row, kill_column, 0) * O and
    N' = t^kill_column * O, both computed from the line geometry.
    """
    mem = ideal_membership(a)
    if not mem.trace_class:
        raise NotTraceClassError("operator is not trace-class")
    bounding_row = mem.bounding_row if mem.bounding_row is not None else 0
    kill_column = mem.kill_column if mem.kill_column is not None else 0
    if n_m is None:
        n_m = min(bounding_row, kill_column, 0)
    if n_prime_m is None:
        n_prime_m = kill_column
    if n_m > n_prime_m:
        raise ValueError("N must contain N'")
    if mem.bounding_row is not None and n_m > mem.bounding_row:
        raise ValueError(f"t^{n_m}*O does not contain the image")
    if mem.kill_column is not None and n_prime_m < mem.kill_column:
        raise ValueError(f"t^{n_prime_m}*O is not killed")
    return TraceCertificate(StandardLattice(n_m), StandardLattice(n_prime_m), a)


def trace(a: TateOp, n_m: int | None = None, n_prime_m: int | None = None) -> Scalar:
    """The trace at every level; lattice choice never matters.

    At level 1 it is the matrix trace of the induced map on N/N'.  At level n
    it is the level-1 trace of the outer presentation, applied again to each
    diagonal entry one level down.  Membership in the cubical trace-class
    ideal is decided once, here: every entry of a trace-class operator is
    trace-class one level down, so the recursion does not re-check it.
    Overrides of the outer N and N' are validated by ``certificate``; the
    value is the sum over the diagonal cells the geometry allows, whatever
    pair certifies, so without overrides no certificate is built.
    """
    from .cubical import cubical_membership
    if not cubical_membership(a).trace_class:
        raise NotTraceClassError("operator is not trace-class")
    if n_m is not None or n_prime_m is not None:
        certificate(a, n_m, n_prime_m)
    return _diagonal_sum(a)


def trace_oracle(a: TateOp, half_width: int) -> Scalar:
    """Independent check: sum of entry(i, i) over |i| <= half_width.

    Validates from the line geometry that the window covers every diagonal
    crossing; reports rather than silently truncating.
    """
    if a.level != 1:
        raise NotTraceClassError("the window oracle is a level-1 check")
    mem = ideal_membership(a)
    if not mem.trace_class:
        raise NotTraceClassError("operator is not trace-class")
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
    sub_ok = True
    for (orient, off), seq in a.lines.items():
        if orient == DIAG:
            if off < 0 and not seq.is_zero_on(m, m - off):
                sub_ok = False
        else:
            smax = seq.support_max_at_least(max(m, off - m + 1))
            if smax is not None:
                sub_ok = False
    for (i, j) in a.corr:
        if j >= m and i < m:
            sub_ok = False
    if not sub_ok:
        return RestrictQuotient(False, None, None)
    p_plus = TateOp.proj_plus(0, 1, a.field)
    p_minus = TateOp.proj_minus(m, 1, a.field)
    conj = TateOp.shift(-m, 1, a.field) * a * TateOp.shift(m, 1, a.field)
    restriction = conj * p_plus
    quotient = p_minus * a * p_minus
    return RestrictQuotient(True, restriction, quotient)
