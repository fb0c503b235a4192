"""Independent model of operator documents, used to compute expected values.

Nothing here imports tateops.  An operator document (the JSON shape of
README.md) is read into `Doc`/`Line` values whose scalars are plain
`Fraction`s (over Q) or ints (over F_p); every expected trace, ideal flag
and entry is then computed straight from the definitions:

* entries: a line on diagonal d holds (j + d, j), an anti line on c holds
  (c - j, j); the entry at (i, j) is the sum of the line values and the
  correction value there;
* ideals: bounded iff no diagonal line has a left tail and no anti line a
  right tail; discrete iff no line has a right tail; for an inner variable,
  every reachable entry must satisfy the flag one level down;
* trace: the sum of the diagonal entries, recursively one level down;
* products: (A B)(i, j) = sum over k of A(i, k) B(k, j), where k runs over
  the finitely many rows of column j of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

DIAG = "diag"
ANTI = "anti"


def reduce(v, p: Optional[int]):
    return v if p is None else v % p


def scalar_json(v, p: Optional[int]) -> Any:
    return str(Fraction(v)) if p is None else {"mod": p, "val": v % p}


def scalar_text(v, p: Optional[int]) -> str:
    """A scalar as the CLI prints it: ``a/b`` over Q, ``v mod p`` over F_p."""
    return str(Fraction(v)) if p is None else f"{v % p} mod {p}"


@dataclass
class Line:
    orient: str
    off: int
    left: Any
    right: Any
    start: int
    window: list

    def value(self, j: int):
        if j < self.start:
            return self.left
        k = j - self.start
        return self.window[k] if k < len(self.window) else self.right

    def row(self, j: int) -> int:
        return j + self.off if self.orient == DIAG else self.off - j

    def holds(self, i: int, j: int) -> bool:
        return self.row(j) == i


@dataclass
class Doc:
    level: int
    lines: list
    corr: dict

    def entry_zero(self):
        return 0 if self.level == 1 else Doc(self.level - 1, [], {})

    def on_a_line(self, i: int, j: int) -> bool:
        return any(ln.holds(i, j) for ln in self.lines)

    def reachable(self):
        for ln in self.lines:
            yield ln.left
            yield ln.right
            yield from ln.window
        yield from self.corr.values()


def is_zero(e) -> bool:
    if isinstance(e, Doc):
        return not e.lines and not e.corr
    return e == 0


def to_json(doc: Doc, p: Optional[int]) -> dict:
    def ent(e):
        return to_json(e, p) if isinstance(e, Doc) else scalar_json(e, p)
    return {
        "level": doc.level,
        "lines": [{"orientation": ln.orient, "offset": ln.off,
                   "left_limit": ent(ln.left), "right_limit": ent(ln.right),
                   "window_start": ln.start, "window": [ent(v) for v in ln.window]}
                  for ln in doc.lines],
        "correction": [{"row": i, "col": j, "value": ent(v)}
                       for (i, j), v in sorted(doc.corr.items())],
    }


def from_json(js: dict) -> Doc:
    level = js["level"]

    def ent(x):
        if level > 1:
            return from_json(x)
        if isinstance(x, dict):
            return x["val"]
        return Fraction(x)
    lines = [Line(d["orientation"], d["offset"], ent(d["left_limit"]),
                  ent(d["right_limit"]), d["window_start"],
                  [ent(v) for v in d["window"]]) for d in js["lines"]]
    corr = {(c["row"], c["col"]): ent(c["value"]) for c in js["correction"]}
    return Doc(level, lines, corr)


# ------------------------------------------------------------------ ideals


def _support(ln: Line):
    """(least, greatest) column with a nonzero value; +-inf for tails, None if empty."""
    nz = [ln.start + k for k, v in enumerate(ln.window) if not is_zero(v)]
    end = ln.start + len(ln.window)
    if not is_zero(ln.left):
        lo = -math.inf
    else:
        lo = nz[0] if nz else (end if not is_zero(ln.right) else None)
    if not is_zero(ln.right):
        hi = math.inf
    else:
        hi = nz[-1] if nz else (ln.start - 1 if not is_zero(ln.left) else None)
    return lo, hi


def outer_flags(doc: Doc) -> tuple[bool, bool]:
    bounded = not any((ln.orient == DIAG and not is_zero(ln.left))
                      or (ln.orient == ANTI and not is_zero(ln.right))
                      for ln in doc.lines)
    discrete = all(is_zero(ln.right) for ln in doc.lines)
    return bounded, discrete


def flags(doc: Doc, i: int) -> tuple[bool, bool]:
    """(in I_i^+, in I_i^-) for variable i, 1 being the innermost."""
    if i == doc.level:
        return outer_flags(doc)
    plus = minus = True
    for e in doc.reachable():
        ep, em = flags(e, i)
        plus, minus = plus and ep, minus and em
    return plus, minus


def ideal_indices(doc: Doc):
    """(bounded, discrete, bounding row, kill column) of a level-1 document;
    an index is None when its flag fails or nothing is stored."""
    bounded, discrete = outer_flags(doc)
    rows, cols = [], []
    for ln in doc.lines:
        lo, hi = _support(ln)
        if lo is None:
            continue
        rows.append(ln.off + lo if ln.orient == DIAG else ln.off - hi)
        cols.append(hi)
    cells = [c for c, v in doc.corr.items() if not is_zero(v)]
    rows += [i for i, _ in cells]
    cols += [j for _, j in cells]
    row = min(rows) if bounded and rows else None
    col = max(cols) + 1 if discrete and cols else None
    return bounded, discrete, row, col


def ideal_lines(doc: Doc, tabular: bool = False) -> list[str]:
    """The `tateops ideals` output for a level-1 document."""
    bounded, discrete, row, col = ideal_indices(doc)
    row, col = ("none" if x is None else str(x) for x in (row, col))
    b, d, t = (str(x).lower() for x in (bounded, discrete, bounded and discrete))
    if tabular:
        return ["\t".join([b, d, t, row, col])]
    return [f"bounded={b} discrete={d} trace_class={t}",
            f"bounding_row={row} kill_column={col}"]


def certificate_line(doc: Doc) -> str:
    """The certificate line `tateops trace` prints for a trace-class level-1
    document: N = t^min(bounding row, kill column, 0) O, N' = t^kill column O."""
    _, _, row, col = ideal_indices(doc)
    kill = col or 0
    n = min(row or 0, kill, 0)
    return f"certificate N=t^{n}*O N'=t^{kill}*O window={kill - n}x{kill - n}"


# ------------------------------------------------------------------- traces


def diagonal_entries(doc: Doc):
    """Stored entries at diagonal positions; they sum to the diagonal of a
    trace-class document (whose diagonal lines have zero limits)."""
    for ln in doc.lines:
        if ln.orient == DIAG and ln.off == 0:
            yield from ln.window
        elif ln.orient == ANTI and ln.off % 2 == 0:
            yield ln.value(ln.off // 2)
    for (i, j), v in doc.corr.items():
        if i == j:
            yield v


def nested_trace(doc: Doc, p: Optional[int]):
    total = 0
    for e in diagonal_entries(doc):
        total += nested_trace(e, p) if isinstance(e, Doc) else e
    return reduce(total, p)


# ----------------------------------------------------------------- products


def _parts(factor: list, i: int, j: int) -> list:
    """Nonzero summands of the entry (i, j) of a sum of documents."""
    out = []
    for doc in factor:
        for ln in doc.lines:
            if ln.holds(i, j):
                v = ln.value(j)
                if not is_zero(v):
                    out.append(v)
        v = doc.corr.get((i, j))
        if v is not None and not is_zero(v):
            out.append(v)
    return out


def _rows(factor: list, j: int) -> set:
    rows = {ln.row(j) for doc in factor for ln in doc.lines}
    rows.update(i for doc in factor for (i, jj) in doc.corr if jj == j)
    return rows


def chain_value(factors: list, idx: tuple, p: Optional[int]):
    """Scalar at multi-index idx of the product F_1 F_2 ... F_m.

    Each factor is a list of same-level documents standing for their sum;
    idx holds one (row, col) pair per level, outermost first.
    """
    (i, j), rest = idx[0], idx[1:]
    total = 0

    def paths(t: int, col: int, tail: list):
        if t == 0:
            head = _parts(factors[0], i, col)
            if head:
                yield [head] + tail
            return
        for r in _rows(factors[t], col):
            e = _parts(factors[t], r, col)
            if e:
                yield from paths(t - 1, r, [e] + tail)

    for entries in paths(len(factors) - 1, j, []):
        if rest:
            total += chain_value(entries, rest, p)
        else:
            term = 1
            for summands in entries:
                term *= sum(summands)
            total += term
    return reduce(total, p)


def _guided_index(rng, factors: list, level: int) -> tuple:
    """A multi-index along stored data of the product: at each level pick a
    stored cell of the last factor, then a row of each earlier factor that
    meets it, and descend into the entries met."""
    idx = []
    for _ in range(level):
        last = factors[-1]
        cells = [c for d in last for c in d.corr]
        cells += [(ln.row(j), j) for d in last for ln in d.lines
                  for j in range(ln.start - 2, ln.start + len(ln.window) + 2)]
        cells = [c for c in cells if _parts(last, *c)]
        if not cells:
            break
        col, j = rng.choice(cells)
        entries = [_parts(last, col, j)]
        for f in reversed(factors[:-1]):
            rows = sorted(r for r in _rows(f, col) if _parts(f, r, col))
            if not rows:
                break
            row = rng.choice(rows)
            entries.insert(0, _parts(f, row, col))
            col = row
        idx.append((col, j))
        if len(entries) < len(factors) or not all(entries):
            break
        factors = entries
    while len(idx) < level:
        idx.append((rng.randint(-6, 6), rng.randint(-6, 6)))
    return tuple(idx)


def sample_indices(rng, factors: list, level: int, count: int) -> list:
    """Multi-indices for comparing a product with the engine's: three in
    four follow stored data (so most entries are nonzero), the rest are
    uniform in [-6, 6]."""
    return [_guided_index(rng, factors, level) if k % 4 != 3
            else tuple((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(level))
            for k in range(count)]
