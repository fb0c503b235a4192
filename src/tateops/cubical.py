"""Level-n operators: the cubical ideal family, good idempotents, the
P_i^+/P_i^- split, and word factorization.  The iterated trace is
``trace.trace``, which works at every level.

A level-n operator acts on k((t_1))...((t_n)), t_n outermost; its entries
are level-(n-1) operators.  For each variable index i (1 = innermost t_1,
n = outermost t_n) there is an ideal pair I_i^+/I_i^-:

* i = n: the line-limit test on the outer presentation, exactly as level 1;
* i < n: every entry reachable in the presentation (both limits of every
  line, every window value, every correction entry) lies in I_i^+/I_i^- of
  the level-(n-1) algebra, recursively.

This is equivalent to quantifying over induced maps on all standard-lattice
sandwiches, because every induced map is a finite matrix of entry operators
and every cell occurs in some valid sandwich.  Some references index the
family outermost-first; CubicalReport.outer_first() gives that view.

The good idempotents P_i^+ (``good_idempotents``) cut off the nonnegative
exponents of variable i, and P_i^- = I - P_i^+.  ``split_i`` applies them
without building them: P_i^+ a keeps the entries whose variable-i row is
>= 0, a restriction of the outer rows when i = n and the same cut applied to
every entry (``TateOp.map``) when i < n.

Word factorization: a product of >= 2 trace-class operators in this class
always normalizes to a finite correction at every level (each factor's lines
lose the tail that could sustain an infinite line in the product, and entry
products pair level-(n-1) trace-class operators, recursively finite).  The
2^n bound is therefore witnessed here by one-letter words - e.g. the flip,
or an outer anti-diagonal of flips at level 2 - which are trace-class with
infinite support.  No two-letter trace-class product can fail the
finiteness check; see stored_two_letter_pair for the strictest candidate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .fields import Field
from .operators import _ideal_masks, ANTI, DIAG, EvSeq, TateOp
from .trace import _is_trace_class, NotTraceClassError, trace


@dataclass(frozen=True)
class CubicalReport:
    """Ideal flags per variable index (entry k = variable k+1, innermost first)."""

    in_plus: tuple[bool, ...]
    in_minus: tuple[bool, ...]
    trace_class: bool

    @property
    def n(self) -> int:
        return len(self.in_plus)

    def outer_first(self) -> "CubicalReport":
        """The same flags indexed outermost-first."""
        return CubicalReport(tuple(reversed(self.in_plus)),
                             tuple(reversed(self.in_minus)), self.trace_class)


def cubical_membership(a: TateOp) -> CubicalReport:
    """Decide membership in every I_i^+/I_i^-; trace-class iff all 2n hold."""
    plus, minus = _ideal_masks(a)
    in_plus = tuple(bool(plus >> k & 1) for k in range(a.level))
    in_minus = tuple(bool(minus >> k & 1) for k in range(a.level))
    return CubicalReport(in_plus, in_minus, all(in_plus) and all(in_minus))


def good_idempotents(n: int, field: Field) -> list[TateOp]:
    """The standard commuting idempotents P_i^+ cutting off nonnegative
    exponents of variable i (innermost first)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [TateOp.proj_plus(0, 1, field)]
    inner = good_idempotents(n - 1, field)
    lifted = [TateOp(n, field, {(DIAG, 0): EvSeq.constant(p)}) for p in inner]
    lifted.append(TateOp.proj_plus(0, n, field))
    return lifted


def _half(a: TateOp, i: int, plus: bool) -> TateOp:
    """P_i^+ a (plus) or P_i^- a: at the outer variable the rows >= 0 or < 0
    of a, below it the same half of every entry."""
    if i == a.level:
        return a.restrict(row_lo=0) if plus else a.restrict(row_hi=0)
    return a.map(lambda e: _half(e, i, plus))


def split_i(a: TateOp, i: int) -> tuple[TateOp, TateOp]:
    """(P_i^+ a, P_i^- a): the I_i^+ and I_i^- parts, summing to a.

    P_i^+ a keeps the entries whose variable-i row is >= 0 and P_i^- a the
    rest.  Both are read off by restriction; they equal P_i^+ * a and
    (I - P_i^+) * a for P_i^+ = ``good_idempotents(n, field)[i - 1]``, but
    neither idempotent nor product is built.  i is read with
    ``operator.index``, so a float raises TypeError."""
    i = operator.index(i)
    if not 1 <= i <= a.level:
        raise IndexError(f"variable index {i} out of range 1..{a.level}")
    return _half(a, i, True), _half(a, i, False)


# Not public; kept only because perfbench/workloads.py (level3) calls it.
trace_n = trace


def is_fully_finite(a: TateOp) -> bool:
    """True iff the canonical form is a finite correction at every level:
    the computable meaning of factoring through a finite-dimensional space."""
    if a.lines:
        return False
    if a.level == 1:
        return True
    return all(is_fully_finite(v) for v in a.corr.values())


@dataclass(frozen=True)
class WordFactorization:
    product: TateOp
    finite_at_all_levels: bool


def word_factorization(ops: list[TateOp]) -> WordFactorization:
    """Compose trace-class operators and report whether the product
    normalizes to a finite correction at every level."""
    if not ops:
        raise ValueError("empty word")
    level, field = ops[0].level, ops[0].field
    for op in ops:
        if op.level != level or op.field != field:
            raise ValueError("word letters must share level and field")
        if not _is_trace_class(op):
            raise NotTraceClassError("word letters must be trace-class")
    product = ops[0]
    for op in ops[1:]:
        product = product * op
    return WordFactorization(product, is_fully_finite(product))


def level2_flip(field: Field) -> TateOp:
    """Outer anti-diagonal of level-1 flips: trace-class at level 2 with
    infinite support at both levels.  A one-letter word that does not factor
    through a finite-dimensional space (1 < 2^2)."""
    flip = TateOp.ind_to_pro_flip(field)
    seq = EvSeq.step(flip, TateOp.zero(1, field), 0)
    return TateOp(2, field, {(ANTI, -1): seq})


def stored_two_letter_pair(field: Field) -> tuple[TateOp, TateOp]:
    """The strictest two-letter candidate witness: outer anti-diagonal
    trace-class lines whose entries are level-1 infinite-support flips,
    with offsets arranged so the product is nonzero.

    The product is necessarily finite at all levels: the outer composition
    window is finite because each factor's anti line has a vanishing right
    tail, and the entries pair two level-1 trace-class operators.
    """
    f1 = TateOp(1, field, {(ANTI, 5): EvSeq.step(field.one(), field.zero(), 6)})
    f2 = TateOp.ind_to_pro_flip(field)
    z = TateOp.zero(1, field)
    w1 = TateOp(2, field, {(ANTI, -1): EvSeq.step(f1, z, 6)})
    w2 = TateOp(2, field, {(ANTI, 0): EvSeq.step(f2, z, 1)})
    return w1, w2
