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
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union

from .fields import Field, FieldMismatchError, QQ, Scalar
from .laurent import LaurentPoly

NEG_INF = float("-inf")
POS_INF = float("inf")

DIAG = "diag"
ANTI = "anti"


class MalformedSequenceError(ValueError):
    """An EvSeq window is not in canonical (minimal) form."""


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


def _escale(e: Entry, s: Scalar) -> Entry:
    return e.scale(s) if isinstance(e, TateOp) else e * s


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
        window = tuple(window)
        if window and window[0] == left:
            raise MalformedSequenceError("window begins with the left limit")
        if window and window[-1] == right:
            raise MalformedSequenceError("window ends with the right limit")
        if not window and left == right and window_start != 0:
            raise MalformedSequenceError("constant sequence must use window_start 0")
        self.left = left
        self.right = right
        self.window_start = window_start
        self.window = window

    @classmethod
    def of(cls, left: Entry, right: Entry, window_start: int = 0,
           window: Iterable[Entry] = ()) -> "EvSeq":
        """Like the constructor, but canonicalizes instead of rejecting."""
        window = tuple(window)
        lo, hi = 0, len(window)
        while lo < hi and window[lo] == left:
            lo += 1
        while hi > lo and window[hi - 1] == right:
            hi -= 1
        window_start += lo
        if lo == hi and left == right:
            window_start = 0
        return cls(left, right, window_start, window[lo:hi])

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

    def is_zero(self) -> bool:
        return self.left.is_zero() and self.right.is_zero() and not self.window

    def window_end(self) -> int:
        return self.window_start + len(self.window)

    def support_min(self):
        """Least j with value(j) != 0; NEG_INF for an infinite left tail, None if empty."""
        if not self.left.is_zero():
            return NEG_INF
        for k, v in enumerate(self.window):
            if not v.is_zero():
                return self.window_start + k
        if not self.right.is_zero():
            return self.window_end()
        return None

    def support_max(self):
        """Greatest j with value(j) != 0; POS_INF for an infinite right tail, None if empty."""
        if not self.right.is_zero():
            return POS_INF
        for k in range(len(self.window) - 1, -1, -1):
            if not self.window[k].is_zero():
                return self.window_start + k
        if not self.left.is_zero():
            return self.window_start - 1
        return None

    def support_min_at_least(self, lo: int):
        """Least support position >= lo, or None."""
        if not self.left.is_zero() and lo < self.window_start:
            return lo
        for j in range(max(lo, self.window_start), self.window_end()):
            if not self.value(j).is_zero():
                return j
        if not self.right.is_zero():
            return max(lo, self.window_end())
        return None

    def support_max_at_least(self, lo: int):
        """Greatest support position >= lo; POS_INF for a right tail, None if none."""
        if not self.right.is_zero():
            return POS_INF
        for j in range(self.window_end() - 1, max(lo, self.window_start) - 1, -1):
            if not self.value(j).is_zero():
                return j
        if not self.left.is_zero() and lo <= self.window_start - 1:
            return self.window_start - 1
        return None

    def is_zero_on(self, lo: int, hi: int) -> bool:
        """True iff value(j) == 0 for all lo <= j < hi (finite range)."""
        return all(self.value(j).is_zero() for j in range(lo, hi))

    def shift_arg(self, k: int) -> "EvSeq":
        """The sequence j -> value(j + k)."""
        if k == 0:
            return self
        return EvSeq.of(self.left, self.right, self.window_start - k, self.window)

    def reflect_arg(self, c: int) -> "EvSeq":
        """The sequence j -> value(c - j); swaps the two limits."""
        new_start = c - self.window_end() + 1
        return EvSeq.of(self.right, self.left, new_start, tuple(reversed(self.window)))

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


@dataclass(frozen=True, order=True)
class StandardLattice:
    """The lattice t^m * O inside k((t)); smaller m means a larger lattice."""

    m: int

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
    Equality is semantic (equal entry functions), decided by normalizing the
    difference.
    """

    __slots__ = ("level", "field", "lines", "corr")

    def __init__(self, level: int, field: Field,
                 lines: Mapping[tuple[str, int], EvSeq] | None = None,
                 corr: Mapping[tuple[int, int], Entry] | None = None):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.level = level
        self.field = field
        merged: dict[tuple[str, int], EvSeq] = {}
        for (orient, off), seq in (lines or {}).items():
            if orient not in (DIAG, ANTI):
                raise ValueError(f"unknown orientation {orient!r}")
            key = (orient, operator.index(off))
            if key in merged:
                merged[key] = merged[key].pointwise(seq, lambda a, b: a + b)
            else:
                merged[key] = EvSeq.of(seq.left, seq.right, seq.window_start, seq.window)
        cells: dict[tuple[int, int], Entry] = {}
        for (i, j), v in (corr or {}).items():
            self._accumulate(cells, (operator.index(i), operator.index(j)), v)
        kept: dict[tuple[str, int], EvSeq] = {}
        for key in sorted(merged):
            seq = merged[key]
            if seq.is_zero():
                continue
            if seq.left.is_zero() and seq.right.is_zero():
                orient, off = key
                for j in range(seq.window_start, seq.window_end()):
                    v = seq.value(j)
                    if not v.is_zero():
                        self._accumulate(cells, (_line_row(orient, off, j), j), v)
                continue
            kept[key] = seq
        for (i, j) in sorted(cells):
            v = cells[(i, j)]
            if v.is_zero():
                continue
            dkey = (DIAG, i - j)
            akey = (ANTI, i + j)
            if dkey in kept:
                kept[dkey] = kept[dkey].with_added(j, v)
            elif akey in kept:
                kept[akey] = kept[akey].with_added(j, v)
            else:
                continue
            cells[(i, j)] = _ezero(level, field)
        self.lines = {k: kept[k] for k in sorted(kept)}
        self.corr = {c: cells[c] for c in sorted(cells) if not cells[c].is_zero()}
        for (orient, _), seq in self.lines.items():
            if orient == ANTI and not seq.right.is_zero():
                raise InvalidOperatorError(
                    "anti-diagonal line with nonzero right tail is not an operator "
                    "on Laurent series")

    @staticmethod
    def _accumulate(cells: dict, cell: tuple[int, int], v: Entry) -> None:
        if cell in cells:
            cells[cell] = cells[cell] + v
        else:
            cells[cell] = v

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
    def from_finite(cls, field: Field, cells: Mapping[tuple[int, int], Entry],
                    level: int = 1) -> "TateOp":
        return cls(level, field, corr=cells)

    @classmethod
    def from_line(cls, field: Field, orientation: str, offset: int, seq: EvSeq,
                  level: int = 1) -> "TateOp":
        return cls(level, field, {(orientation, offset): seq})

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
        if other.field != self.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")

    def __add__(self, other: "TateOp") -> "TateOp":
        self._check(other)
        lines: dict[tuple[str, int], EvSeq] = dict(self.lines)
        for key, seq in other.lines.items():
            if key in lines:
                lines[key] = lines[key].pointwise(seq, lambda a, b: a + b)
            else:
                lines[key] = seq
        corr = dict(self.corr)
        for cell, v in other.corr.items():
            self._accumulate(corr, cell, v)
        return TateOp(self.level, self.field, lines, corr)

    def __neg__(self) -> "TateOp":
        lines = {k: seq.map(lambda e: -e) for k, seq in self.lines.items()}
        corr = {c: -v for c, v in self.corr.items()}
        return TateOp(self.level, self.field, lines, corr)

    def __sub__(self, other: "TateOp") -> "TateOp":
        return self + (-other)

    def scale(self, s: Scalar) -> "TateOp":
        if s.field != self.field:
            raise FieldMismatchError("scalar field differs from operator field")
        lines = {k: seq.map(lambda e: _escale(e, s)) for k, seq in self.lines.items()}
        corr = {c: _escale(v, s) for c, v in self.corr.items()}
        return TateOp(self.level, self.field, lines, corr)

    def __mul__(self, other: "TateOp") -> "TateOp":
        """Operator composition, self after other."""
        self._check(other)
        lines: dict[tuple[str, int], EvSeq] = {}
        corr: dict[tuple[int, int], Entry] = {}

        def add_line(key: tuple[str, int], seq: EvSeq) -> None:
            if key in lines:
                lines[key] = lines[key].pointwise(seq, lambda a, b: a + b)
            else:
                lines[key] = seq

        for (oa, da), sa in self.lines.items():
            for (ob, db), sb in other.lines.items():
                if oa == DIAG and ob == DIAG:
                    key, seq = (DIAG, da + db), sa.shift_arg(db).pointwise(sb, operator.mul)
                elif oa == DIAG and ob == ANTI:
                    key, seq = (ANTI, db + da), sa.reflect_arg(db).pointwise(sb, operator.mul)
                elif oa == ANTI and ob == DIAG:
                    key, seq = (ANTI, da - db), sa.shift_arg(db).pointwise(sb, operator.mul)
                else:
                    key, seq = (DIAG, da - db), sa.reflect_arg(db).pointwise(sb, operator.mul)
                add_line(key, seq)
        for (oa, da), sa in self.lines.items():
            for (k, j), v in other.corr.items():
                self._accumulate(corr, (_line_row(oa, da, k), j), sa.value(k) * v)
        for (i, k), v in self.corr.items():
            for (ob, db), sb in other.lines.items():
                col = k - db if ob == DIAG else db - k
                prod = v * sb.value(col)
                self._accumulate(corr, (i, col), prod)
        for (i, k1), v1 in self.corr.items():
            for (k2, j), v2 in other.corr.items():
                if k1 == k2:
                    self._accumulate(corr, (i, j), v1 * v2)
        return TateOp(self.level, self.field, lines, corr)

    def is_zero(self) -> bool:
        return not self.lines and not self.corr

    def __eq__(self, other) -> bool:
        if not isinstance(other, TateOp):
            return NotImplemented
        if self.level != other.level or self.field != other.field:
            return False
        return (self - other).is_zero()

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

    def column_support(self, j: int) -> list[int]:
        """Rows of the (finitely many) nonzero entries in column j."""
        rows = set()
        for (orient, off), seq in self.lines.items():
            if not seq.value(j).is_zero():
                rows.add(_line_row(orient, off, j))
        for (i, jj) in self.corr:
            if jj == j:
                rows.add(i)
        return sorted(r for r in rows if not self.entry(r, j).is_zero())

    def apply(self, v: LaurentPoly) -> LaurentPoly:
        """Apply a level-1 operator to a finite-support vector."""
        if self.level != 1:
            raise LevelMismatchError("apply takes level-1 operators; higher levels act "
                                     "through their entries")
        if v.field != self.field:
            raise FieldMismatchError("vector field differs from operator field")
        out: dict[int, Scalar] = {}

        def add(i: int, c: Scalar) -> None:
            if i in out:
                out[i] = out[i] + c
            else:
                out[i] = c

        for j, coeff in v.items():
            for (orient, off), seq in self.lines.items():
                val = seq.value(j)
                if not val.is_zero():
                    add(_line_row(orient, off, j), val * coeff)
            for (i, jj), val in self.corr.items():
                if jj == j:
                    add(i, val * coeff)
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

    def bounding_row(self) -> Optional[int]:
        """Least row carrying a possibly nonzero entry, when bounded below."""
        rows = []
        for (orient, off), seq in self.lines.items():
            if orient == DIAG:
                smin = seq.support_min()
                if smin is None:
                    continue
                if smin == NEG_INF:
                    return None
                rows.append(off + smin)
            else:
                smax = seq.support_max()
                if smax is None:
                    continue
                if smax == POS_INF:
                    return None
                rows.append(off - smax)
        rows.extend(i for (i, _) in self.corr)
        return min(rows) if rows else None

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

    def maps_lattice_into(self, m_source: int) -> Optional[int]:
        """Greatest m with op(t^m_source * O) inside t^m * O; None when the image is 0."""
        rows = []
        for (orient, off), seq in self.lines.items():
            if orient == DIAG:
                smin = seq.support_min_at_least(m_source)
                if smin is not None:
                    rows.append(off + smin)
            else:
                smax = seq.support_max_at_least(m_source)
                if smax is not None:
                    rows.append(off - smax)
        rows.extend(i for (i, j) in self.corr if j >= m_source)
        return min(rows) if rows else None


def commutator(a: TateOp, b: TateOp) -> TateOp:
    return a * b - b * a


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
        bounding_row=a.bounding_row() if bounded else None,
        kill_column=a.kill_column() if discrete else None,
    )


@lru_cache(maxsize=None)
def _projections(level: int, field: Field) -> dict[str, TateOp]:
    """P+ and P- at cut 0, built once per (level, field)."""
    return {"+": TateOp.proj_plus(0, level, field),
            "-": TateOp.proj_minus(0, level, field)}


def split_plus_minus(a: TateOp) -> tuple[TateOp, TateOp]:
    """(P+ a, P- a): a bounded plus a discrete part summing to a."""
    p = _projections(a.level, a.field)
    return p["+"] * a, p["-"] * a


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
