"""Computable operators on formal Laurent-series spaces.

An operator is presented by finitely many *lines* plus a finite correction
matrix.  A line lives on a diagonal (row = col + d) or an anti-diagonal
(row + col = c) and carries an eventually-constant sequence of entries
indexed by the column.  Entries are field scalars at level 1; at level n
they are level-(n-1) operators, so the same calculus models operators on
k((t_1))...((t_n)) by recursion.

The class is closed under addition, composition and scalar multiplication
(compositions of lines are again lines, with single-term entry products),
every member maps finite-support vectors to finite-support vectors, and
membership in the bounded / discrete / trace-class ideals is decidable by
inspecting line limits.  This is a proper subalgebra of all continuous
endomorphisms; operators whose columns hit infinitely many rows (vertical
line behaviour) are intentionally outside it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .fields import _accumulate, _subtract, Field, FieldMismatchError, QQ, Scalar
from .laurent import LaurentPoly

NEG_INF = float("-inf")
POS_INF = float("inf")

DIAG = "diag"
ANTI = "anti"


class InvalidOperatorError(ValueError):
    """The data does not define an operator on Laurent series.

    An anti-diagonal line with a nonzero right tail would send elements with
    infinite positive tails to things with infinitely many negative
    exponents, so it is rejected.
    """


class LevelMismatchError(ValueError):
    """Arithmetic between operators of different levels."""


Entry = Union[Scalar, "TateOp"]


def _ezero(level: int, field: Field) -> Entry:
    return field.zero() if level <= 1 else TateOp.zero(level - 1, field)


def _eone(level: int, field: Field) -> Entry:
    return field.one() if level <= 1 else TateOp.identity(level - 1, field)


class EvSeq:
    """Doubly-infinite, eventually-constant sequence of entries.

    value(j) is ``left`` for j < window_start, an explicit window entry for
    window_start <= j < window_start + len(window), and ``right`` beyond.
    Canonical form: the window neither begins with ``left`` nor ends with
    ``right``; a windowless constant sequence has window_start = 0.
    """

    __slots__ = ("left", "right", "window_start", "window")

    def __init__(self, left: Entry, right: Entry, window_start: int = 0,
                 window: Iterable[Entry] = ()):
        """window_start is read with ``operator.index``; the rest is stored
        in canonical form: entries equal to the adjacent limit are stripped
        from both ends of the window."""
        window = tuple(window)
        window_start = operator.index(window_start)
        lo, hi = 0, len(window)
        while lo < hi and window[lo] == left:
            lo += 1
        while hi > lo and window[hi - 1] == right:
            hi -= 1
        window_start += lo
        if lo == hi and window_start != 0 and left == right:
            window_start = 0
        self.left = left
        self.right = right
        self.window_start = window_start
        self.window = window[lo:hi]

    @classmethod
    def of(cls, left: Entry, right: Entry, window_start: int = 0,
           window: Iterable[Entry] = ()) -> "EvSeq":
        """The constructor under another name."""
        return cls(left, right, window_start, window)

    @classmethod
    def constant(cls, value: Entry) -> "EvSeq":
        return cls(value, value)

    @classmethod
    def step(cls, left: Entry, right: Entry, at: int) -> "EvSeq":
        """left for j < at, right for j >= at."""
        return cls.of(left, right, at, ())

    def value(self, j: int) -> Entry:
        if j < self.window_start:
            return self.left
        k = j - self.window_start
        if k < len(self.window):
            return self.window[k]
        return self.right

    def window_end(self) -> int:
        return self.window_start + len(self.window)

    def support_min(self, lo=NEG_INF):
        """Least j >= lo with value(j) != 0: lo itself inside a nonzero left
        tail (NEG_INF for the whole tail), None when there is none."""
        start = self.window_start
        if lo < start and not self.left.is_zero():
            return lo
        for k in range(max(lo - start, 0), len(self.window)):
            if not self.window[k].is_zero():
                return start + k
        if not self.right.is_zero():
            return max(lo, self.window_end())
        return None

    def support_max(self, lo=NEG_INF):
        """Greatest j >= lo with value(j) != 0: POS_INF for a nonzero right
        tail, None when there is none."""
        if not self.right.is_zero():
            return POS_INF
        start = self.window_start
        for k in range(len(self.window) - 1, max(lo - start, 0) - 1, -1):
            if not self.window[k].is_zero():
                return start + k
        if lo < start and not self.left.is_zero():
            return start - 1
        return None

    def shift_arg(self, k: int) -> "EvSeq":
        """The sequence j -> value(j + k)."""
        if k == 0:
            return self
        return EvSeq.of(self.left, self.right, self.window_start - k, self.window)

    def reflect_arg(self, c: int) -> "EvSeq":
        """The sequence j -> value(c - j); swaps the two limits."""
        new_start = c - self.window_end() + 1
        return EvSeq.of(self.right, self.left, new_start, tuple(reversed(self.window)))

    def restrict(self, lo, hi, zero: Entry) -> "EvSeq":
        """The sequence j -> value(j) for lo <= j < hi and zero elsewhere;
        either bound may be infinite.  Entries are kept or dropped, never
        multiplied."""
        if lo == NEG_INF and hi == POS_INF:
            return self
        start, end = self.window_start, self.window_end()
        a = lo if lo != NEG_INF else min(start, hi)
        b = max(a, hi if hi != POS_INF else max(end, lo))
        window = ((self.left,) * max(0, min(start, b) - a)
                  + self.window[max(a - start, 0):max(b - start, 0)]
                  + (self.right,) * max(0, b - max(end, a)))
        return EvSeq(self.left if lo == NEG_INF else zero,
                     self.right if hi == POS_INF else zero, a, window)

    def map(self, fn) -> "EvSeq":
        return EvSeq.of(fn(self.left), fn(self.right), self.window_start,
                        tuple(fn(v) for v in self.window))

    def pointwise(self, other: "EvSeq", fn) -> "EvSeq":
        lo = min(self.window_start, other.window_start)
        hi = max(self.window_end(), other.window_end())
        window = tuple(fn(self.value(j), other.value(j)) for j in range(lo, hi))
        return EvSeq.of(fn(self.left, other.left), fn(self.right, other.right), lo, window)

    def with_added(self, j: int, v: Entry) -> "EvSeq":
        """Add v to the value at position j."""
        lo = min(self.window_start, j)
        hi = max(self.window_end(), j + 1)
        window = [self.value(i) for i in range(lo, hi)]
        window[j - lo] = window[j - lo] + v
        return EvSeq.of(self.left, self.right, lo, tuple(window))

    def __add__(self, other: "EvSeq") -> "EvSeq":
        return self.pointwise(other, operator.add)

    def __sub__(self, other: "EvSeq") -> "EvSeq":
        return self.pointwise(other, operator.sub)

    def __neg__(self) -> "EvSeq":
        return self.map(operator.neg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvSeq):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.window_start == other.window_start
                and self.window == other.window)

    def __repr__(self):
        return (f"EvSeq(left={self.left}, right={self.right}, "
                f"start={self.window_start}, window={list(self.window)})")


def _line_row(orient: str, off: int, j: int) -> int:
    """Row of column j on a diagonal (row = col + off) or anti-diagonal
    (row + col = off) line."""
    return j + off if orient == DIAG else off - j


def _raise_wrong_type(level: int, lines, corr) -> None:
    """Raise TypeError naming the first line that is not an EvSeq or entry
    that is not a Scalar (level 1) or TateOp (level n).  Called only once
    normalization has raised AttributeError: valid input pays nothing."""
    values = []
    for seq in (lines or {}).values():
        if not isinstance(seq, EvSeq):
            raise TypeError(f"expected EvSeq, got {type(seq).__name__}") from None
        values += [seq.left, seq.right, *seq.window]
    kind = Scalar if level == 1 else TateOp
    for v in values + list((corr or {}).values()):
        if not isinstance(v, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(v).__name__}") from None


@dataclass(frozen=True, order=True)
class StandardLattice:
    """The lattice t^m * O inside k((t)); smaller m means a larger lattice.
    m is read with ``operator.index``."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", operator.index(self.m))

    def __str__(self):
        return f"t^{self.m}*O"


@dataclass(frozen=True)
class IdealMembership:
    bounded: bool
    discrete: bool
    trace_class: bool
    bounding_row: Optional[int]
    kill_column: Optional[int]


class TateOp:
    """A level-n operator: finitely many lines plus a finite correction.

    Instances are immutable and kept in a canonical form: line sequences are
    minimal, lines whose both limits vanish are folded into the correction,
    and correction cells lying on a kept line are folded into its window.
    ``lines`` and ``corr`` are unordered dicts: normalization is one pass in
    the order the input gives, and dict order is not part of the canonical
    form (``op_to_json`` sorts lines and cells).  ``-`` is one pass, like
    ``+``: no negated copy of the right operand is built.

    Equality is semantic (equal entry functions) and read from the two
    stored forms: ``==`` subtracts nothing.  The canonical form fixes

    * the line keys, because a kept line has a nonzero limit and, far out
      along it, no other line or cell contributes;
    * the limits of each line, read far out along it for the same reason;
    * the cells, because a stored cell is nonzero and lies off every kept
      line, so it is the entry there;
    * the value of a line at every column where no line of the other
      orientation crosses it, because that value is the entry there.

    Only where a diagonal (DIAG, d) and an anti line (ANTI, c) cross, at
    column j with c = 2j + d, is the split of the entry between the two
    lines free.  So ``==`` compares all of the above as stored, each line
    column by column over both windows, except that two line values which
    differ at a crossing pass when their sums with the partner line's
    value agree.  Those sums are the only values ``==`` builds.
    """

    __slots__ = ("level", "field", "lines", "corr")

    def __init__(self, level: int, field: Field,
                 lines: Mapping[tuple[str, int], EvSeq] | None = None,
                 corr: Mapping[tuple[int, int], Entry] | None = None):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.level = level
        self.field = field
        try:
            cells: dict[tuple[int, int], Entry] = {}
            for (i, j), v in (corr or {}).items():
                _accumulate(cells, (operator.index(i), operator.index(j)), v)
            self.lines = {}
            for (orient, off), seq in (lines or {}).items():
                if orient not in (DIAG, ANTI):
                    raise ValueError(f"unknown orientation {orient!r}")
                off = operator.index(off)
                if seq.left.is_zero() and seq.right.is_zero():
                    for j, v in enumerate(seq.window, seq.window_start):
                        if not v.is_zero():
                            _accumulate(cells, (_line_row(orient, off, j), j), v)
                elif orient == ANTI and not seq.right.is_zero():
                    raise InvalidOperatorError(
                        "anti-diagonal line with nonzero right tail is not an operator "
                        "on Laurent series")
                else:
                    self.lines[(orient, off)] = seq
            self.corr = {}
            for (i, j), v in cells.items():
                if v.is_zero():
                    continue
                key = (DIAG, i - j)
                if key not in self.lines:
                    key = (ANTI, i + j)
                if key in self.lines:
                    self.lines[key] = self.lines[key].with_added(j, v)
                else:
                    self.corr[(i, j)] = v
        except AttributeError:
            _raise_wrong_type(level, lines, corr)
            raise

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, level: int = 1, field: Field = QQ) -> "TateOp":
        return cls(level, field)

    @classmethod
    def identity(cls, level: int = 1, field: Field = QQ) -> "TateOp":
        return cls.shift(0, level, field)

    @classmethod
    def shift(cls, k: int, level: int = 1, field: Field = QQ) -> "TateOp":
        """t^k multiplication in the outermost variable: the Diagonal(k) line of identities."""
        one = _eone(level, field)
        return cls(level, field, {(DIAG, k): EvSeq.constant(one)})

    @classmethod
    def proj_plus(cls, m: int = 0, level: int = 1, field: Field = QQ) -> "TateOp":
        """Projection onto exponents >= m of the outermost variable."""
        return cls(level, field, {(DIAG, 0): EvSeq.step(_ezero(level, field),
                                                        _eone(level, field), m)})

    @classmethod
    def proj_minus(cls, m: int = 0, level: int = 1, field: Field = QQ) -> "TateOp":
        """Projection onto exponents < m of the outermost variable."""
        return cls(level, field, {(DIAG, 0): EvSeq.step(_eone(level, field),
                                                        _ezero(level, field), m)})

    @classmethod
    def mul(cls, f: LaurentPoly) -> "TateOp":
        """Multiplication by a Laurent polynomial, as a sum of constant diagonals."""
        lines = {(DIAG, e): EvSeq.constant(c) for e, c in f.items()}
        return cls(1, f.field, lines)

    @classmethod
    def ind_to_pro_flip(cls, field: Field = QQ) -> "TateOp":
        """Sends t^j to t^(-1-j) for j <= -1 and kills the rest.

        Bounded and discrete with infinite support: the canonical witness that
        trace-class operators need not have finite rank.
        """
        seq = EvSeq.step(field.one(), field.zero(), 0)
        return cls(1, field, {(ANTI, -1): seq})

    # ------------------------------------------------------------------ algebra

    def entry_zero(self) -> Entry:
        return _ezero(self.level, self.field)

    def _check(self, other: "TateOp") -> None:
        if not isinstance(other, TateOp):
            raise TypeError(f"expected TateOp, got {type(other).__name__}")
        if other.level != self.level:
            raise LevelMismatchError(f"level {self.level} vs {other.level}")
        if other.field is not self.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")

    def _combine(self, other: "TateOp", fold) -> "TateOp":
        """Fold other's lines and cells into copies of self's, key by key,
        and normalize once."""
        self._check(other)
        lines: dict[tuple[str, int], EvSeq] = dict(self.lines)
        for key, seq in other.lines.items():
            fold(lines, key, seq)
        corr = dict(self.corr)
        for cell, v in other.corr.items():
            fold(corr, cell, v)
        return TateOp(self.level, self.field, lines, corr)

    def __add__(self, other: "TateOp") -> "TateOp":
        return self._combine(other, _accumulate)

    def map(self, fn) -> "TateOp":
        """Apply fn to every stored entry (line limits, window entries and
        correction values) and normalize the result with the constructor.

        fn must send zero to zero, because the entries a presentation does
        not store are zero.  When fn is also additive, as negation, scaling
        and the cuts of ``cubical.split_i`` are, the result's entry at (i, j)
        is fn(self.entry(i, j)), also where a diagonal and an anti line cross."""
        lines = {k: seq.map(fn) for k, seq in self.lines.items()}
        corr = {c: fn(v) for c, v in self.corr.items()}
        return TateOp(self.level, self.field, lines, corr)

    def __neg__(self) -> "TateOp":
        return self.map(operator.neg)

    def __sub__(self, other: "TateOp") -> "TateOp":
        """One pass: a line or cell both operands store is subtracted entry
        by entry, one level down through this same routine, and only what
        self does not store is negated.  No negated copy of other is built."""
        return self._combine(other, _subtract)

    def scale(self, s: Scalar) -> "TateOp":
        if not isinstance(s, Scalar):
            raise TypeError(f"expected Scalar, got {type(s).__name__}")
        if s.field != self.field:
            raise FieldMismatchError("scalar field differs from operator field")
        return self.map(lambda e: e.scale(s) if isinstance(e, TateOp) else e * s)

    def __mul__(self, other: "TateOp") -> "TateOp":
        """Operator composition, self after other."""
        self._check(other)
        lines: dict[tuple[str, int], EvSeq] = {}
        corr: dict[tuple[int, int], Entry] = {}
        for (oa, da), sa in self.lines.items():
            for (ob, db), sb in other.lines.items():
                # column j of b's line meets a's at column j + db (DIAG) or
                # db - j (ANTI); each reflection flips the orientation
                key = (DIAG if oa == ob else ANTI, da + db if oa == DIAG else da - db)
                arg = sa.shift_arg(db) if ob == DIAG else sa.reflect_arg(db)
                _accumulate(lines, key, arg.pointwise(sb, operator.mul))
        for (oa, da), sa in self.lines.items():
            for (k, j), v in other.corr.items():
                _accumulate(corr, (_line_row(oa, da, k), j), sa.value(k) * v)
        for (i, k), v in self.corr.items():
            for (ob, db), sb in other.lines.items():
                col = k - db if ob == DIAG else db - k
                prod = v * sb.value(col)
                _accumulate(corr, (i, col), prod)
        if self.corr and other.corr:
            other_rows: dict[int, list[tuple[int, Entry]]] = {}
            for (k, j), v in other.corr.items():
                other_rows.setdefault(k, []).append((j, v))
            for (i, k), v1 in self.corr.items():
                for j, v2 in other_rows.get(k, ()):
                    _accumulate(corr, (i, j), v1 * v2)
        return TateOp(self.level, self.field, lines, corr)

    def is_zero(self) -> bool:
        return not self.lines and not self.corr

    def __eq__(self, other) -> bool:
        """One read-only comparison of the stored forms (class docstring)."""
        if not isinstance(other, TateOp):
            return NotImplemented
        if (self.level != other.level or self.field is not other.field
                or self.lines.keys() != other.lines.keys() or self.corr != other.corr):
            return False
        for (orient, off), seq in self.lines.items():
            theirs = other.lines[(orient, off)]
            if seq.left != theirs.left or seq.right != theirs.right:
                return False
            for j in range(min(seq.window_start, theirs.window_start),
                           max(seq.window_end(), theirs.window_end())):
                mine, yours = seq.value(j), theirs.value(j)
                if mine == yours:
                    continue
                partner = (ANTI, 2 * j + off) if orient == DIAG else (DIAG, off - 2 * j)
                if partner not in self.lines or (mine + self.lines[partner].value(j)
                                                 != yours + other.lines[partner].value(j)):
                    return False
        return True

    def __repr__(self):
        return (f"TateOp(level={self.level}, lines={len(self.lines)}, "
                f"corr={len(self.corr)})")

    # ------------------------------------------------------------- entry access

    def entry(self, i: int, j: int) -> Entry:
        out = self.entry_zero()
        seq = self.lines.get((DIAG, i - j))
        if seq is not None:
            out = out + seq.value(j)
        seq = self.lines.get((ANTI, i + j))
        if seq is not None:
            out = out + seq.value(j)
        cell = self.corr.get((i, j))
        if cell is not None:
            out = out + cell
        return out

    def window_matrix(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int):
        """Dense matrix of entries on [row_lo, row_hi) x [col_lo, col_hi)."""
        return tuple(tuple(self.entry(i, j) for j in range(col_lo, col_hi))
                     for i in range(row_lo, row_hi))

    def restrict(self, row_lo=NEG_INF, row_hi=POS_INF, col_lo=NEG_INF,
                 col_hi=POS_INF) -> "TateOp":
        """The entries (i, j) with row_lo <= i < row_hi and col_lo <= j < col_hi,
        zero elsewhere; bounds may be infinite.  Each line is cut to the column
        interval where its rows fall inside the box, so P+ a P- is
        ``a.restrict(row_lo=0, col_hi=0)`` without composing."""
        zero = self.entry_zero()
        lines = {}
        for (orient, off), seq in self.lines.items():
            if orient == DIAG:
                lo, hi = row_lo - off, row_hi - off
            else:
                lo, hi = off - row_hi + 1, off - row_lo + 1
            lines[(orient, off)] = seq.restrict(max(lo, col_lo), min(hi, col_hi), zero)
        corr = {(i, j): v for (i, j), v in self.corr.items()
                if row_lo <= i < row_hi and col_lo <= j < col_hi}
        return TateOp(self.level, self.field, lines, corr)

    def apply(self, v: LaurentPoly) -> LaurentPoly:
        """Apply a level-1 operator to a finite-support vector."""
        if self.level != 1:
            raise LevelMismatchError("apply takes level-1 operators; higher levels act "
                                     "through their entries")
        if v.field != self.field:
            raise FieldMismatchError("vector field differs from operator field")
        out: dict[int, Scalar] = {}
        for j, coeff in v.items():
            for (orient, off), seq in self.lines.items():
                val = seq.value(j)
                if not val.is_zero():
                    _accumulate(out, _line_row(orient, off, j), val * coeff)
            for (i, jj), val in self.corr.items():
                if jj == j:
                    _accumulate(out, i, val * coeff)
        return LaurentPoly(self.field, out)

    # ------------------------------------------------------------ ideal theory

    def outer_flags(self) -> tuple[bool, bool]:
        """(bounded, discrete) for the outermost variable, from line limits."""
        bounded = True
        discrete = True
        for (orient, _), seq in self.lines.items():
            if orient == DIAG and not seq.left.is_zero():
                bounded = False
            if not seq.right.is_zero():
                discrete = False
                if orient == ANTI:
                    bounded = False
        return bounded, discrete

    def kill_column(self) -> Optional[int]:
        """Least J with all columns >= J zero, when one exists."""
        cols = []
        for _, seq in self.lines.items():
            smax = seq.support_max()
            if smax is None:
                continue
            if smax == POS_INF:
                return None
            cols.append(smax)
        cols.extend(j for (_, j) in self.corr)
        return max(cols) + 1 if cols else None

    def maps_lattice_into(self, m_source) -> Optional[int]:
        """Greatest m with op(t^m_source * O) inside t^m * O; None when the image is 0.

        m_source = NEG_INF asks for the image of the whole space: the least row
        carrying a possibly nonzero entry, NEG_INF when it is unbounded below.
        """
        rows = []
        for (orient, off), seq in self.lines.items():
            if orient == DIAG:
                smin = seq.support_min(m_source)
                if smin is not None:
                    rows.append(off + smin)
            else:
                smax = seq.support_max(m_source)
                if smax is not None:
                    rows.append(off - smax)
        rows.extend(i for (i, j) in self.corr if j >= m_source)
        return min(rows) if rows else None


def commutator(a: TateOp, b: TateOp) -> TateOp:
    return a * b - b * a


def _ideal_masks(a: TateOp) -> tuple[int, int]:
    """Masks (plus, minus) whose bit i - 1 says that a lies in I_i^+ (I_i^-),
    for i = 1..a.level, from one walk: ``outer_flags`` for i = a.level, and
    below it the AND over every stored entry (both limits of every line,
    every window value, every correction entry).  The walk stops once every
    inner bit is clear.  a is trace-class iff both masks are full."""
    top = 1 << (a.level - 1)
    plus = minus = top - 1
    if a.level > 1:
        entries = [v for seq in a.lines.values() for v in (seq.left, seq.right, *seq.window)]
        for entry in entries + list(a.corr.values()):
            ep, em = _ideal_masks(entry)
            plus, minus = plus & ep, minus & em
            if not plus | minus:
                break
    bounded, discrete = a.outer_flags()
    return plus | (top if bounded else 0), minus | (top if discrete else 0)


def ideal_membership(a: TateOp) -> IdealMembership:
    """Bounded / discrete / trace-class flags with certifying indices.

    bounded: the image of the whole space lies in t^bounding_row * O.
    discrete: the operator kills t^kill_column * O.
    The zero operator has both flags with absent indices.
    """
    bounded, discrete = a.outer_flags()
    return IdealMembership(
        bounded=bounded,
        discrete=discrete,
        trace_class=bounded and discrete,
        bounding_row=a.maps_lattice_into(NEG_INF) if bounded else None,
        kill_column=a.kill_column() if discrete else None,
    )


@dataclass(frozen=True)
class LatticeFactorization:
    """a(L1) inside L2', a(L1') inside L2, with the induced finite matrix."""

    L1: StandardLattice
    L2: StandardLattice
    L1_prime: StandardLattice
    L2_prime: StandardLattice
    rows: tuple[int, int]
    cols: tuple[int, int]
    matrix: tuple


def double_lattice_factorization(a: TateOp, L1: StandardLattice,
                                 L2: StandardLattice) -> LatticeFactorization:
    """Sandwich lattices L1' <= L1, L2' >= L2 for a, plus the induced map.

    L2' is the largest standard lattice containing a(L1).  L1' shrinks L1 far
    enough that every line and correction cell in columns >= L1'.m lands in
    rows >= L2.m; diagonal lines contribute their geometric bound L2.m - d.
    The induced map L1/L1' -> L2'/L2 is returned as a dense window matrix.
    """
    m1, m2 = L1.m, L2.m
    img = a.maps_lattice_into(m1)
    m2p = m2 if img is None else min(m2, img)
    m1p = m1
    for (orient, off), seq in a.lines.items():
        if orient == DIAG:
            m1p = max(m1p, m2 - off)
        else:
            smax = seq.support_max()
            if smax is not None and smax > off - m2:
                m1p = max(m1p, smax + 1)
    for (i, j) in a.corr:
        if i < m2:
            m1p = max(m1p, j + 1)
    matrix = a.window_matrix(m2p, m2, m1, m1p)
    return LatticeFactorization(L1, L2, StandardLattice(m1p), StandardLattice(m2p),
                                rows=(m2p, m2), cols=(m1, m1p), matrix=matrix)
