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
inspecting line limits, at level n those of the outer lines and,
recursively, of every entry.  This is a proper subalgebra of all continuous
endomorphisms; operators whose columns hit infinitely many rows (vertical
line behaviour) are intentionally outside it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Union

from .fields import _accumulate, _subtract, Field, FieldMismatchError, QQ, Scalar
from .laurent import LaurentPoly

NEG_INF = float("-inf")
POS_INF = float("inf")
# the box (row_lo, row_hi, col_lo, col_hi) of the whole plane
_PLANE = (NEG_INF, POS_INF, NEG_INF, POS_INF)

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


# The one shared zero operator per (level, field), made on first request;
# a thread that loses a race to make one drops its duplicate in setdefault.
_ZEROS: dict[tuple[int, Field], "TateOp"] = {}


def _ezero(level: int, field: Field) -> Entry:
    return field.zero() if level <= 1 else TateOp.zero(level - 1, field)


def _eone(level: int, field: Field) -> Entry:
    return field.one() if level <= 1 else TateOp.identity(level - 1, field)


class EvSeq:
    """Doubly-infinite, eventually-constant sequence of entries, stored as
    its steps.

    value(j) is ``left`` for j < starts[0], values[k] for starts[k] <= j <
    starts[k + 1], and ``right`` = values[-1] from starts[-1] on (``left``
    when there are no steps), so a run of one value costs one step however
    long it is.  Canonical form: starts strictly increase, and no value
    equals the value before it, the first not ``left``.

    The public layout is the window: ``EvSeq(left, right, window_start,
    window)`` builds the sequence that reads ``window`` from
    ``window_start`` on, and ``window_start``, ``window`` and
    ``window_end()`` read back the minimal such window, which runs from
    the first step to the last; a windowless constant starts at 0.
    """

    __slots__ = ("left", "right", "starts", "values")

    def __init__(self, left: Entry, right: Entry, window_start: int = 0,
                 window: Iterable[Entry] = ()):
        """window_start is read with ``operator.index``; the window and the
        right limit are read as steps, one per position, and canonicalized."""
        window = (*window, right)
        start = operator.index(window_start)
        self.left = left
        self.starts, self.values, self.right = _canonical(
            left, range(start, start + len(window)), window)

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
        k = bisect_right(self.starts, j)
        return self.values[k - 1] if k else self.left

    @property
    def window_start(self) -> int:
        return self.starts[0] if self.starts else 0

    def window_end(self) -> int:
        return self.starts[-1] if self.starts else 0

    @property
    def window(self) -> tuple:
        """The values from window_start up to window_end(), one per position."""
        starts = self.starts
        return tuple(chain.from_iterable(
            repeat(v, q - p) for p, q, v in zip(starts, starts[1:], self.values)))

    def support_min(self):
        """Least j with value(j) != 0: NEG_INF for a nonzero left tail, None
        when there is none.  Cut first with ``restrict`` to ask from a bound.
        With a zero left limit the first step's value is the first nonzero."""
        if not self.left.is_zero():
            return NEG_INF
        return self.starts[0] if self.starts else None

    def support_max(self):
        """Greatest j with value(j) != 0: POS_INF for a nonzero right tail,
        None when there is none.  With a zero right limit the value before
        the last step is the last nonzero."""
        if not self.right.is_zero():
            return POS_INF
        return self.starts[-1] - 1 if self.starts else None

    def restrict(self, lo, hi, zero: Entry) -> "EvSeq":
        """The sequence j -> value(j) for lo <= j < hi and zero elsewhere;
        either bound may be infinite.  Entries are kept or dropped, never
        multiplied: the steps strictly inside the cut are kept, a finite lo
        adds a step to value(lo) and a finite hi one to zero, each when it
        changes the value.  self is returned when the cut keeps every
        nonzero value, that is when on each finite side the limit is zero
        and the steps lie inside the cut."""
        starts, values = self.starts, self.values
        if ((lo == NEG_INF or (self.left.is_zero() and (not starts or lo <= starts[0])))
                and (hi == POS_INF or (self.right.is_zero() and (not starts or starts[-1] <= hi)))):
            return self
        left = self.left if lo == NEG_INF else zero
        right = self.right if hi == POS_INF else zero
        if not lo < hi:
            return _from_steps(zero, (), (), zero)
        i = 0 if lo == NEG_INF else bisect_right(starts, lo)
        k = len(starts) if hi == POS_INF else bisect_left(starts, hi)
        cut_starts, cut_values = starts[i:k], values[i:k]
        at_lo = values[i - 1] if i else self.left
        if lo != NEG_INF and not at_lo.is_zero():
            cut_starts, cut_values = (lo, *cut_starts), (at_lo, *cut_values)
        if hi != POS_INF and not (cut_values[-1] if cut_values else left).is_zero():
            cut_starts, cut_values = (*cut_starts, hi), (*cut_values, zero)
        return _from_steps(left, cut_starts, cut_values, right)

    def map(self, fn) -> "EvSeq":
        """j -> fn(value(j)); self when fn returns every stored value itself."""
        left, values = fn(self.left), tuple(map(fn, self.values))
        if left is self.left and all(map(operator.is_, values, self.values)):
            return self
        return _from_steps(left, *_canonical(left, self.starts, values))

    def with_added(self, j: int, v: Entry) -> "EvSeq":
        """Add v to the value at position j: the run through j splits into
        at most three, so only the steps at j and j + 1 change, each kept
        when its value differs from the one before it."""
        starts, values, left = self.starts, self.values, self.left
        lo, k, hi = bisect_left(starts, j), bisect_right(starts, j), bisect_right(starts, j + 1)
        before, w = values[lo - 1] if lo else left, (values[k - 1] if k else left) + v
        after = values[hi - 1] if hi else left
        mid = [(p, x) for p, x, prev in ((j, w, before), (j + 1, after, w)) if x != prev]
        return _from_steps(left, (*starts[:lo], *(p for p, _ in mid), *starts[hi:]),
                           (*values[:lo], *(x for _, x in mid), *values[hi:]), self.right)

    def sum(self, lo, hi, zero: Scalar) -> Scalar:
        """The sum of value(j) over lo <= j < hi, either bound possibly
        infinite, for scalar values: each run that meets [lo, hi) is one
        value times the length it overlaps, so the cost follows the steps,
        not the length of [lo, hi).  zero itself when no nonzero run meets
        it.  A nonzero value over an infinite stretch has no sum:
        ValueError."""
        total = zero
        bounds = (NEG_INF, *self.starts, POS_INF)
        for p, q, v in zip(bounds, bounds[1:], (self.left, *self.values)):
            p, q = max(p, lo), min(q, hi)
            if p < q and not v.is_zero():
                if p == NEG_INF or q == POS_INF:
                    raise ValueError("a nonzero tail over an infinite stretch has no sum")
                total = total + v.times_int(q - p)
        return total

    def __add__(self, other: "EvSeq") -> "EvSeq":
        return _paired(self, other, operator.add)

    def __sub__(self, other: "EvSeq") -> "EvSeq":
        return _paired(self, other, operator.sub)

    def __neg__(self) -> "EvSeq":
        return self.map(operator.neg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvSeq):
            return NotImplemented
        return (self.left == other.left and self.starts == other.starts
                and self.values == other.values)

    def __hash__(self):
        return hash((self.left, self.starts, self.values))

    def __repr__(self):
        steps = list(zip(self.starts, map(str, self.values)))
        return f"EvSeq(left={self.left}, steps={steps})"


def _from_steps(left: Entry, starts: tuple, values: tuple, right: Entry) -> EvSeq:
    """The sequence with these steps, stored as given: the caller passes
    them in canonical form, with right the last value (left when there are
    none).  The one construction that bypasses ``EvSeq.__init__``."""
    seq = object.__new__(EvSeq)
    seq.left, seq.starts, seq.values, seq.right = left, starts, values, right
    return seq


def _canonical(left: Entry, starts: Iterable[int], values: Iterable[Entry]) -> tuple:
    """(starts, values, right) for steps given with increasing starts, with
    every step dropped whose value equals the value before it."""
    kept_starts, kept_values, prev = [], [], left
    for p, v in zip(starts, values):
        if v is not prev and v != prev:
            kept_starts.append(p)
            kept_values.append(v)
            prev = v
    return tuple(kept_starts), tuple(kept_values), prev


def _paired(a: EvSeq, b: EvSeq, fn, orient: str = DIAG, off: int = 0) -> EvSeq:
    """The sequence j -> fn(a(j + off), b(j)) when orient is DIAG and
    j -> fn(a(off - j), b(j)) when it is ANTI: the one walk over a pair of
    lines.  fn is taken once at the left limits and once at each start in
    the sorted union of b's starts and a's starts placed on b's columns
    (DIAG: s - off; ANTI: off + 1 - s, with a's runs reversed and its
    limits swapped), since both sequences are constant between two such
    starts.  ``+`` and ``-`` are the case (DIAG, 0); with fn = *, it is the
    entries of line a composed with line b = (orient, off), since column j
    of b meets a at column j + off (DIAG) or off - j (ANTI)."""
    if orient == DIAG:
        a_left, a_values = a.left, a.values
        a_starts = [s - off for s in a.starts] if off else a.starts
    else:
        a_left, a_values = a.right, (a.left, *a.values)[-2::-1]
        a_starts = [off + 1 - s for s in reversed(a.starts)]
    b_starts, b_values = b.starts, b.values
    va, vb = a_left, b.left
    left = prev = fn(va, vb)
    starts, values = [], []
    i = k = 0
    na, nb = len(a_starts), len(b_starts)
    while i < na or k < nb:
        if k == nb or (i < na and a_starts[i] < b_starts[k]):
            p, va = a_starts[i], a_values[i]
            i += 1
        else:
            p, vb = b_starts[k], b_values[k]
            k += 1
            if i < na and a_starts[i] == p:
                va = a_values[i]
                i += 1
        v = fn(va, vb)
        if v is not prev and v != prev:
            starts.append(p)
            values.append(v)
            prev = v
    return _from_steps(left, tuple(starts), tuple(values), prev)


def _line_row(orient: str, off: int, j: int) -> int:
    """Row of column j on a diagonal (row = col + off) or anti-diagonal
    (row + col = off) line."""
    return j + off if orient == DIAG else off - j


def _raise_wrong_type(level: int, lines, corr) -> None:
    """Raise TypeError naming an argument that is not a mapping, or else the
    first line that is not an EvSeq or entry that is not a Scalar (level 1)
    or TateOp (level n).  Called only once normalization has raised
    AttributeError: valid input pays nothing."""
    for name, arg in (("lines", lines), ("corr", corr)):
        if arg is not None and not isinstance(arg, Mapping):
            raise TypeError(f"{name} must be a mapping, got {type(arg).__name__}") from None
    values = []
    for seq in ({} if lines is None else lines).values():
        if not isinstance(seq, EvSeq):
            raise TypeError(f"expected EvSeq, got {type(seq).__name__}") from None
        values += [seq.left, *seq.values]
    kind = Scalar if level == 1 else TateOp
    for v in values + list(({} if corr is None else corr).values()):
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

    Instances are immutable and stored in one form per entry function: line
    sequences are minimal, lines whose both limits vanish are folded into
    the correction, correction cells lying on a kept line are folded onto
    it, and where a kept diagonal (DIAG, d) and a kept anti line
    (ANTI, c) cross, at column j with c = 2j + d, the diagonal carries the
    whole entry and the anti line reads 0.  The form is unique:

    * the line keys and limits are read far out along each line, where a
      kept line has a nonzero limit and no other line or cell contributes;
    * the cells are the entries off every kept line;
    * a line's values are the entries wherever no line of the other
      orientation crosses it;
    * the crossing rule fixes the values where one does.

    So every stored value is the entry at its place (0 on an anti line at a
    crossing), ``==`` compares the stored forms, and equal operators hash
    equal.  ``lines`` and ``corr`` are unordered dicts: normalization is one
    pass in the order the input gives, and dict order is not part of the
    form (``op_to_json`` sorts lines and cells).  ``-`` is one pass, like
    ``+``: no negated copy of the right operand is built.

    Because nothing assigns into ``lines`` or ``corr`` after construction,
    an operator can be returned as it is and shared, also across threads.
    ``TateOp.zero(level, field)`` is one shared operator per (level, field),
    which is also the zero entry one level up; two threads that race to
    make it can only build a duplicate that is dropped.  An operand without
    lines and cells (the shared zero or any other) costs nothing: once the
    operands are checked, ``a * 0`` and ``0 * a`` return the zero operand;
    ``a + 0``, ``0 + a`` and ``a - 0`` return ``a``; and ``-0``,
    ``restrict``, ``map`` and ``scale`` of a zero return it unchanged.  A
    ``restrict`` or ``map`` that changes nothing returns ``a`` itself, and
    one that leaves nothing returns the shared zero, so neither builds an
    operator.
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
            for (i, j), v in ({} if corr is None else corr).items():
                _accumulate(cells, (operator.index(i), operator.index(j)), v)
            self.lines = {}
            for (orient, off), seq in ({} if lines is None else lines).items():
                if orient not in (DIAG, ANTI):
                    raise ValueError(f"unknown orientation {orient!r}")
                off = operator.index(off)
                if seq.left.is_zero() and seq.right.is_zero():
                    starts = seq.starts
                    for p, q, v in zip(starts, starts[1:], seq.values):
                        if not v.is_zero():
                            for j in range(p, q):
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
            # the crossing rule: the diagonal takes the anti line's value
            kept = self.lines
            for c, d in [(c, d) for (o, c) in kept for (p, d) in kept
                         if o == ANTI and p == DIAG and (c - d) % 2 == 0]:
                j = (c - d) // 2
                v = kept[(ANTI, c)].value(j)
                if not v.is_zero():
                    kept[(ANTI, c)] = kept[(ANTI, c)].with_added(j, -v)
                    kept[(DIAG, d)] = kept[(DIAG, d)].with_added(j, v)
        except AttributeError:
            _raise_wrong_type(level, lines, corr)
            raise

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, level: int = 1, field: Field = QQ) -> "TateOp":
        """The one shared zero operator of this level and field."""
        z = _ZEROS.get((level, field))
        if z is None:
            z = _ZEROS.setdefault((level, field), cls(level, field))
        return z

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
        and normalize once; self is returned when other is zero."""
        self._check(other)
        if not other.lines and not other.corr:
            return self
        lines: dict[tuple[str, int], EvSeq] = dict(self.lines)
        for key, seq in other.lines.items():
            fold(lines, key, seq)
        corr = dict(self.corr)
        for cell, v in other.corr.items():
            fold(corr, cell, v)
        return TateOp(self.level, self.field, lines, corr)

    def __add__(self, other: "TateOp") -> "TateOp":
        if not self.lines and not self.corr:
            self._check(other)
            return other
        return self._combine(other, _accumulate)

    def _rebuilt(self, lines: dict, corr: dict) -> "TateOp":
        """The operator with these lines and cells, each the stored one or its
        replacement, built key by key in the stored order (cells may be
        dropped): self when nothing changed, the shared zero when every line
        and cell is zero, else a new normalized one."""
        if (len(corr) == len(self.corr)
                and all(map(operator.is_, corr.values(), self.corr.values()))
                and all(map(operator.is_, lines.values(), self.lines.values()))):
            return self
        if (all(not seq.starts and seq.left.is_zero() for seq in lines.values())
                and all(v.is_zero() for v in corr.values())):
            return TateOp.zero(self.level, self.field)
        return TateOp(self.level, self.field, lines, corr)

    def map(self, fn) -> "TateOp":
        """Apply fn to every stored entry (line limits, step values and
        correction values) and normalize the result with the constructor.

        fn must send zero to zero, because the entries a presentation does
        not store are zero.  The stored values are the entries (and 0 on an
        anti line at a crossing), so the result's entry at (i, j) is
        fn(self.entry(i, j)).  self is returned when fn returns every stored
        entry itself, a zero operator among them, and the shared zero when
        fn sends every stored entry to zero."""
        if not self.lines and not self.corr:
            return self
        lines = {k: seq.map(fn) for k, seq in self.lines.items()}
        corr = {c: fn(v) for c, v in self.corr.items()}
        return self._rebuilt(lines, corr)

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
        """Operator composition, self after other; a zero operand is the
        product."""
        self._check(other)
        if not self.lines and not self.corr:
            return self
        if not other.lines and not other.corr:
            return other
        lines: dict[tuple[str, int], EvSeq] = {}
        corr: dict[tuple[int, int], Entry] = {}
        for (oa, da), sa in self.lines.items():
            for (ob, db), sb in other.lines.items():
                # each reflection flips the orientation
                key = (DIAG if oa == ob else ANTI, da + db if oa == DIAG else da - db)
                _accumulate(lines, key, _paired(sa, sb, operator.mul, ob, db))
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
        """Equal entry functions, read off the unique stored forms."""
        if self is other:
            return True
        if not isinstance(other, TateOp):
            return NotImplemented
        return (self.level == other.level and self.field is other.field
                and self.lines == other.lines and self.corr == other.corr)

    def __hash__(self):
        return hash((self.level, self.field, frozenset(self.lines.items()),
                     frozenset(self.corr.items())))

    def __repr__(self):
        return (f"TateOp(level={self.level}, lines={len(self.lines)}, "
                f"corr={len(self.corr)})")

    # ------------------------------------------------------------- entry access

    def entry(self, i: int, j: int) -> Entry:
        """The entry at (i, j), read from the one stored piece that holds it:
        the kept diagonal through (i, j), else the kept anti line, else the
        cell, else zero.  No two pieces hold a value at one place: a cell on
        a kept line is folded into it, and where a diagonal and an anti line
        cross the anti line reads 0."""
        seq = self.lines.get((DIAG, i - j))
        if seq is None:
            seq = self.lines.get((ANTI, i + j))
        if seq is not None:
            return seq.value(j)
        cell = self.corr.get((i, j))
        return self.entry_zero() if cell is None else cell

    def window_matrix(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int):
        """Dense matrix of entries on [row_lo, row_hi) x [col_lo, col_hi), laid
        out from ``restrict``: a finite box cuts every line to a finite
        stretch, so the restriction holds only cells."""
        cells, zero = self.restrict(row_lo, row_hi, col_lo, col_hi).corr, self.entry_zero()
        return tuple(tuple(cells.get((i, j), zero) for j in range(col_lo, col_hi))
                     for i in range(row_lo, row_hi))

    def restrict(self, row_lo=NEG_INF, row_hi=POS_INF, col_lo=NEG_INF,
                 col_hi=POS_INF) -> "TateOp":
        """The entries (i, j) with row_lo <= i < row_hi and col_lo <= j < col_hi,
        zero elsewhere; bounds may be infinite.  The lines and cells are
        those of ``_cut``, so P+ a P- is ``a.restrict(row_lo=0, col_hi=0)``
        without composing.  self is returned when the box holds every stored
        piece, a zero operator among them, and the shared zero when it
        misses every one."""
        return self._rebuilt(*_cut(self, (row_lo, row_hi, col_lo, col_hi)))

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

    def kill_column(self) -> Optional[int]:
        """Least J with all columns >= J zero, when one exists.  A kept line
        has a nonzero limit, so its support is never empty."""
        cols = [seq.support_max() for seq in self.lines.values()]
        if POS_INF in cols:
            return None
        cols.extend(j for (_, j) in self.corr)
        return max(cols) + 1 if cols else None

    def maps_lattice_into(self, m_source) -> Optional[int]:
        """Greatest m with op(t^m_source * O) inside t^m * O; None when the image is 0.

        The least row of a nonzero entry in a column >= m_source (NEG_INF: the
        whole space), exact because stored values are entries: each line is
        cut at m_source, which costs its steps, and its least row is at the
        cut's least nonzero column on a diagonal and its greatest on an anti
        line, so the cost follows the stored pieces at any m_source."""
        rows, zero = [], self.entry_zero()
        for (orient, off), seq in self.lines.items():
            cut = seq.restrict(m_source, POS_INF, zero)
            j = cut.support_min() if orient == DIAG else cut.support_max()
            if j is not None:
                rows.append(_line_row(orient, off, j))
        rows.extend(i for (i, j) in self.corr if j >= m_source)
        return min(rows) if rows else None


def commutator(a: TateOp, b: TateOp) -> TateOp:
    return a * b - b * a


def _cut_line(orient: str, off: int, seq: EvSeq, box: tuple, zero: Entry) -> EvSeq:
    """The line seq on (orient, off) cut to the columns whose rows fall in
    box = (row_lo, row_hi, col_lo, col_hi), zero elsewhere, at the cost of
    its steps: the one place where row bounds become column bounds."""
    row_lo, row_hi, col_lo, col_hi = box
    lo, hi = ((row_lo - off, row_hi - off) if orient == DIAG
              else (off - row_hi + 1, off - row_lo + 1))
    return seq.restrict(max(lo, col_lo), min(hi, col_hi), zero)


def _cut(a: TateOp, box: tuple) -> tuple[dict, dict]:
    """(lines, cells) of a cut to box = (row_lo, row_hi, col_lo, col_hi),
    not yet normalized: each line by ``_cut_line``, and the cells inside."""
    row_lo, row_hi, col_lo, col_hi = box
    zero = a.entry_zero()
    return ({key: _cut_line(*key, seq, box, zero) for key, seq in a.lines.items()},
            {(i, j): v for (i, j), v in a.corr.items()
             if row_lo <= i < row_hi and col_lo <= j < col_hi})


def _ideal_masks(a: TateOp, box: tuple = _PLANE) -> tuple[int, int]:
    """Masks (plus, minus) whose bit i - 1 says that a.restrict(*box) lies
    in I_i^+ (I_i^-), for i = 1..a.level: the one place membership is
    decided.  The cut is read through ``_cut``, never built; on the whole
    plane, the default, a's own lines and cells are read, with no copy.
    The top bit is the line-limit test, and the bits below it the AND over
    every stored value (line limits, step values, correction entries),
    which is the entry at its place or zero, so the masks do not depend on
    how a was built.  The walk stops once every inner bit is clear."""
    top = 1 << (a.level - 1)
    plus = minus = top - 1
    lines, corr = (a.lines, a.corr) if box is _PLANE else _cut(a, box)
    if a.level > 1:
        entries = [v for seq in lines.values() for v in (seq.left, *seq.values)]
        for entry in entries + list(corr.values()):
            ep, em = _ideal_masks(entry)
            plus, minus = plus & ep, minus & em
            if not plus | minus:
                break
    # the constructor rejects an anti line with a nonzero right limit
    bounded = discrete = True
    for (orient, _), seq in lines.items():
        if orient == DIAG and not seq.left.is_zero():
            bounded = False
        if not seq.right.is_zero():
            discrete = False
    return plus | (top if bounded else 0), minus | (top if discrete else 0)


def _masks_full(level: int, plus: int, minus: int) -> bool:
    """The trace-class test on ``_ideal_masks``: all 2n bits set."""
    return plus == minus == (1 << level) - 1


def _is_trace_class(a: TateOp, box: tuple = _PLANE) -> bool:
    """Membership of a.restrict(*box) in all 2n cubical ideals, the one test
    that ``trace``, ``certificate``, ``trace_oracle``, ``_cut_trace`` and
    ``word_factorization`` share."""
    return _masks_full(a.level, *_ideal_masks(a, box))


def ideal_membership(a: TateOp) -> IdealMembership:
    """The outer variable's flags with certifying indices, and trace_class
    for all 2n ideals, as ``cubical_membership`` decides it.

    bounded (I_n^+): the image of the whole space lies in t^bounding_row * O.
    discrete (I_n^-): the operator kills t^kill_column * O.
    The zero operator has every flag with absent indices.
    """
    plus, minus = _ideal_masks(a)
    bounded, discrete = bool(plus >> (a.level - 1)), bool(minus >> (a.level - 1))
    return IdealMembership(
        bounded=bounded,
        discrete=discrete,
        trace_class=_masks_full(a.level, plus, minus),
        bounding_row=a.maps_lattice_into(NEG_INF) if bounded else None,
        kill_column=a.kill_column() if discrete else None,
    )


@dataclass(frozen=True)
class LatticeFactorization:
    """a(L1) inside L2', a(L1') inside L2, and the operator a, whose induced
    map L1/L1' -> L2'/L2 ``matrix`` lays out."""

    L1: StandardLattice
    L2: StandardLattice
    L1_prime: StandardLattice
    L2_prime: StandardLattice
    rows: tuple[int, int]
    cols: tuple[int, int]
    op: TateOp = field(hash=False)

    @cached_property
    def matrix(self) -> tuple:
        """The dense matrix of the induced map, built on first access."""
        return self.op.window_matrix(*self.rows, *self.cols)


def double_lattice_factorization(a: TateOp, L1: StandardLattice,
                                 L2: StandardLattice) -> LatticeFactorization:
    """Sandwich lattices L1' <= L1, L2' >= L2 for a, plus the induced map.

    L2' is the largest standard lattice containing a(L1).  L1' shrinks L1 far
    enough that every line and correction cell in columns >= L1'.m lands in
    rows >= L2.m; diagonal lines contribute their geometric bound L2.m - d.
    The cost follows the stored pieces: the induced map L1/L1' -> L2'/L2 is
    laid out as a dense matrix only when ``matrix`` is read.
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
    return LatticeFactorization(L1, L2, StandardLattice(m1p), StandardLattice(m2p),
                                rows=(m2p, m2), cols=(m1, m1p), op=a)
