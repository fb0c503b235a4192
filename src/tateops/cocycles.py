"""The rank-one central extension machinery: corner cocycle, abstract residue,
Hochschild residue functional, and loop-Lie-algebra block operators.

The 2-cocycle is the corner formula c(a, b) = tr(a_pm b_mp) - tr(b_pm a_mp),
validated against two independent anchors: it satisfies the Lie cocycle
identity, and on multiplication operators it computes the classical residue
coefficient.  Two global signs relate the raw cocycle and the commutator
formula to the residue normalization res(t^-1 dt) = 1; they are pinned by
the oracle in this module and re-derived in the test suite.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence

from .fields import _accumulate, _subtract, Field, FieldMismatchError, Scalar
from .laurent import LaurentPoly
from .operators import NEG_INF, POS_INF, TateOp
from .serial import _array, _guarded, _member, _quote, scalar_from_json, SchemaError
from .trace import _product_sum, trace, trace_product

# Pinned by requiring residue(t^-1, t) == 1 == coeff_{-1}(t^-1 * dt/dt);
# see tests/test_cocycles.py for the derivation from the window oracle.
COCYCLE_TO_RESIDUE_SIGN = -1
HOCHSCHILD_TO_RESIDUE_SIGN = -1

# (row_lo, row_hi, col_lo, col_hi) of each quadrant: P+ keeps exponents >= 0.
# A read-only view, so the module keeps no mutable state.
_CORNERS = MappingProxyType({
    "pp": (0, POS_INF, 0, POS_INF), "pm": (0, POS_INF, NEG_INF, 0),
    "mp": (NEG_INF, 0, 0, POS_INF), "mm": (NEG_INF, 0, NEG_INF, 0)})


def corner(a: TateOp, quadrant: str) -> TateOp:
    """P^s a P^s' for a quadrant in {pp, pm, mp, mm}, read off by restriction;
    the off-diagonal corners of a level-1 operator are trace-class."""
    if quadrant not in _CORNERS:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    return a.restrict(*_CORNERS[quadrant])


def tate_cocycle(a: TateOp, b: TateOp) -> Scalar:
    """Corner 2-cocycle tr(a_pm b_mp) - tr(b_pm a_mp); bilinear, antisymmetric.

    At level 1 an off-diagonal corner is trace-class, and tr(a_pm b_mp) is
    the sum of a(i, k) b(k, i) over the places (i, k) of a's pm corner, so
    each term is ``_product_sum`` over that box, with no corner cut, no
    product and no membership test.  At level >= 2 an outer corner need not
    be trace-class, so the corners are cut and each pair goes through
    ``trace_product``, which raises NotTraceClassError when neither factor
    nor their product is.
    """
    a._check(b)
    if a.level == 1:
        return _product_sum(a, b, *_CORNERS["pm"]) - _product_sum(b, a, *_CORNERS["pm"])
    return (trace_product(corner(a, "pm"), corner(b, "mp"))
            - trace_product(corner(b, "pm"), corner(a, "mp")))


def residue_oracle(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """Classical residue: the coefficient of t^-1 in f * dg."""
    return (f * g.derivative()).coeff(-1)


def residue(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """res(f dg) computed from the corner cocycle of multiplication operators."""
    raw = tate_cocycle(TateOp.mul(f), TateOp.mul(g))
    return raw.times_int(COCYCLE_TO_RESIDUE_SIGN)


def hochschild_residue(a: TateOp, b: TateOp) -> Scalar:
    """Trace of [P+, a] b, normalized to agree with residue on mul operators.

    [P+, a] = a_pm - a_mp is a difference of the two off-diagonal corners.
    At level 1 those are trace-class, so the trace is defined for arbitrary
    a, b, and it is ``_product_sum`` of a against b over the box of a's pm
    corner minus the same sum over the box of its mp corner: no corner is
    cut and no membership is tested.  At level >= 2 an outer corner need not
    be trace-class, and trace_product raises NotTraceClassError when neither
    [P+, a], b nor their product is trace-class.
    """
    a._check(b)
    if a.level == 1:
        raw = _product_sum(a, b, *_CORNERS["pm"]) - _product_sum(a, b, *_CORNERS["mp"])
    else:
        raw = trace_product(corner(a, "pm") - corner(a, "mp"), b)
    return raw.times_int(HOCHSCHILD_TO_RESIDUE_SIGN)


class LieAlgebraError(ValueError):
    """Structure constants failing antisymmetry or the Jacobi identity."""


class LieAlgebraData:
    """A finite-dimensional Lie algebra by structure constants.

    brackets[(i, j)] maps basis index k to the coefficient of x_k in
    [x_i, x_j]; absent pairs are zero.  Only the nonzero constants are
    stored, indexed by their left factor, and antisymmetry and the Jacobi
    identity are validated exactly at construction, from those constants
    alone.
    """

    __slots__ = ("field", "labels", "_brackets", "_by_left")

    def __init__(self, field: Field, labels: Sequence[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, Scalar]]):
        self.field = field
        self.labels = tuple(labels)
        r = len(self.labels)
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if not (0 <= i < r and 0 <= j < r and 0 <= k < r):
                    raise LieAlgebraError(f"basis index out of range 0..{r - 1}")
                if not isinstance(c, Scalar):
                    raise TypeError(f"expected Scalar, got {type(c).__name__}")
                if c.field != field:
                    raise FieldMismatchError("structure constant field mismatch")
                _accumulate(table.setdefault((i, j), {}), k, c)
        self._brackets = {}
        self._by_left: dict[int, list[tuple[int, dict[int, Scalar]]]] = {}
        for (i, j), comps in table.items():
            nonzero = {k: c for k, c in comps.items() if not c.is_zero()}
            if nonzero:
                self._brackets[(i, j)] = nonzero
                self._by_left.setdefault(i, []).append((j, nonzero))
        self._validate()

    def _validate(self) -> None:
        """Antisymmetry on every nonzero constant; Jacobi as the vanishing of
        T(i,j,k) + T(j,k,i) + T(k,i,j), where T(a,b,c)_l = sum_m c_ab^m c_mc^l
        is accumulated over nonzero pairs only.  J is invariant under cyclic
        rotation, so checking it on every key of T covers every triple where
        it can be nonzero."""
        for (i, j), comps in self._brackets.items():
            for k, c in comps.items():
                if not (c + self.bracket_coeff(j, i, k)).is_zero():
                    raise LieAlgebraError("structure constants are not antisymmetric")
        terms: dict[tuple[int, int, int], dict[int, Scalar]] = {}
        for (a, b), comps in self._brackets.items():
            for m, c1 in comps.items():
                for c, comps2 in self._by_left.get(m, ()):
                    acc = terms.setdefault((a, b, c), {})
                    for l, c2 in comps2.items():
                        _accumulate(acc, l, c1 * c2)
        for (i, j, k) in terms:
            total: dict[int, Scalar] = {}
            for key in ((i, j, k), (j, k, i), (k, i, j)):
                for l, v in terms.get(key, {}).items():
                    _accumulate(total, l, v)
            if not all(v.is_zero() for v in total.values()):
                raise LieAlgebraError("Jacobi identity fails")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LieAlgebraError(f"unknown basis label {label!r}") from None

    def bracket_coeff(self, i: int, j: int, k: int) -> Scalar:
        """Coefficient of x_k in [x_i, x_j]."""
        return self._brackets.get((i, j), {}).get(k, self.field.zero())

    def ad_entries(self, i: int) -> dict[tuple[int, int], Scalar]:
        """The nonzero entries (k, l) -> c_il^k of ad(x_i), read from the
        stored constants only."""
        return {(k, l): c for l, comps in self._by_left.get(i, ())
                for k, c in comps.items()}


@_guarded
def lie_from_json(doc: Any, field: Field) -> LieAlgebraData:
    """Load structure constants from a JSON document.

    Shape: {"labels": ["e", "h", "f"],
            "brackets": [{"left": "h", "right": "e", "out": {"e": "2"}}, ...]}
    with distinct string labels and scalar values in the operator-file
    scalar syntax.  The antisymmetric counterpart of each bracket is filled
    in automatically unless given.  A malformed shape raises SchemaError
    naming its JSON path; so does a document nested too deeply to quote.
    """
    if not isinstance(doc, dict):
        raise SchemaError("$: Lie algebra document must be an object")
    labels = _member(doc, "labels", "$")
    if not isinstance(labels, list):
        raise SchemaError("$.labels: expected an array")
    index: dict[str, int] = {}
    for k, lab in enumerate(labels):
        if not isinstance(lab, str):
            raise SchemaError(f"$.labels[{k}]: expected a string, got {_quote(lab)}")
        if lab in index:
            raise SchemaError(f"$.labels[{k}]: duplicate basis label {_quote(lab)}")
        index[lab] = k

    def basis(lab: Any, path: str) -> int:
        if not isinstance(lab, str) or lab not in index:
            raise SchemaError(f"{path}: unknown basis label {_quote(lab)}")
        return index[lab]

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for n, item in enumerate(_array(doc, "brackets", "$")):
        at = f"$.brackets[{n}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{at}: bracket must be an object")
        i = basis(_member(item, "left", at), f"{at}.left")
        j = basis(_member(item, "right", at), f"{at}.right")
        out = _member(item, "out", at)
        if not isinstance(out, dict):
            raise SchemaError(f"{at}.out: expected an object")
        brackets[(i, j)] = {basis(lab, f"{at}.out"):
                            scalar_from_json(v, field, f"{at}.out[{_quote(lab)}]")
                            for lab, v in out.items()}
    for (i, j), comps in list(brackets.items()):
        if (j, i) not in brackets:
            brackets[(j, i)] = {k: -c for k, c in comps.items()}
    return LieAlgebraData(field, labels, brackets)


def sl2(field: Field) -> LieAlgebraData:
    """sl_2 with basis (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    one = field.one()
    two = field.from_int(2)
    e, h, f = 0, 1, 2
    return LieAlgebraData(field, ("e", "h", "f"), {
        (h, e): {e: two},
        (e, h): {e: -two},
        (h, f): {f: -two},
        (f, h): {f: two},
        (e, f): {h: one},
        (f, e): {h: -one},
    })


class BlockOp:
    """A square array of level-1 operators acting on k((t))^r.

    Only the nonzero blocks are stored, as a map (k, l) -> TateOp, and every
    operation walks the stored blocks alone, so a zero BlockOp costs nothing
    to add, multiply, cut into corners or trace.  ``blocks`` is the dense
    r x r view, built on request.
    """

    __slots__ = ("field", "size", "_stored")

    def __init__(self, blocks: Sequence[Sequence[TateOp]]):
        rows = [tuple(row) for row in blocks]
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise ValueError("block array must be square")
        if r == 0:
            raise ValueError("empty block array")
        for row in rows:
            for op in row:
                if not isinstance(op, TateOp):
                    raise TypeError(f"expected TateOp, got {type(op).__name__}")
        self._store(r, rows[0][0].field,
                    {(k, l): op for k, row in enumerate(rows) for l, op in enumerate(row)})

    @classmethod
    def _of(cls, r: int, field: Field, stored: Mapping[tuple[int, int], TateOp]) -> "BlockOp":
        """An r x r BlockOp from the blocks it holds; absent blocks are zero."""
        out = cls.__new__(cls)
        out._store(r, field, stored)
        return out

    def _store(self, r: int, field: Field, stored: Mapping[tuple[int, int], TateOp]) -> None:
        """Check each given block and keep the nonzero ones."""
        self.field = field
        self.size = r
        self._stored = {}
        for key, op in stored.items():
            if op.field != field:
                raise FieldMismatchError("block field mismatch")
            if op.level != 1:
                raise ValueError("blocks must be level-1 operators")
            if not op.is_zero():
                self._stored[key] = op

    @property
    def blocks(self) -> tuple[tuple[TateOp, ...], ...]:
        z = TateOp.zero(1, self.field)
        return tuple(tuple(self._stored.get((k, l), z) for l in range(self.size))
                     for k in range(self.size))

    def _check(self, other: "BlockOp") -> None:
        if not isinstance(other, BlockOp):
            raise TypeError(f"expected BlockOp, got {type(other).__name__}")
        if self.size != other.size or self.field != other.field:
            raise ValueError("block dimension or field mismatch")

    @classmethod
    def zero(cls, r: int, field: Field) -> "BlockOp":
        if r <= 0:
            raise ValueError("empty block array")
        return cls._of(r, field, {})

    def _combine(self, other: "BlockOp", fold) -> "BlockOp":
        self._check(other)
        out = dict(self._stored)
        for key, op in other._stored.items():
            fold(out, key, op)
        return BlockOp._of(self.size, self.field, out)

    def __add__(self, other: "BlockOp") -> "BlockOp":
        return self._combine(other, _accumulate)

    def __neg__(self) -> "BlockOp":
        return BlockOp._of(self.size, self.field,
                           {key: -op for key, op in self._stored.items()})

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        """One pass: blocks both store are subtracted, and only the blocks
        self lacks are negated."""
        return self._combine(other, _subtract)

    def __mul__(self, other: "BlockOp") -> "BlockOp":
        """Block (i, j) of the product is the sum over k of self[i][k] other[k][j],
        taken over the stored blocks of both factors."""
        self._check(other)
        other_rows: dict[int, list[tuple[int, TateOp]]] = {}
        for (k, j), op in other._stored.items():
            other_rows.setdefault(k, []).append((j, op))
        out: dict[tuple[int, int], TateOp] = {}
        for (i, k), a in self._stored.items():
            for j, b in other_rows.get(k, ()):
                _accumulate(out, (i, j), a * b)
        return BlockOp._of(self.size, self.field, out)

    def __eq__(self, other) -> bool:
        """Zero blocks are never stored and zero has one presentation, so two
        BlockOps are equal exactly when they store the same keys with equal
        blocks."""
        if not isinstance(other, BlockOp):
            return NotImplemented
        return (self.size == other.size and self.field is other.field
                and self._stored == other._stored)

    def __hash__(self):
        return hash((self.size, self.field, frozenset(self._stored.items())))

    def apply(self, vector: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        if len(vector) != self.size:
            raise ValueError("vector length differs from block dimension")
        out = [LaurentPoly.zero(self.field) for _ in range(self.size)]
        for (i, j), op in self._stored.items():
            out[i] = out[i] + op.apply(vector[j])
        return out

    def corner(self, quadrant: str) -> "BlockOp":
        return BlockOp._of(self.size, self.field,
                           {key: corner(op, quadrant) for key, op in self._stored.items()})

    def block_trace(self) -> Scalar:
        total = self.field.zero()
        for (k, l), op in self._stored.items():
            if k == l:
                total = total + trace(op)
        return total


def ad_block(label: str, m: int, lie: LieAlgebraData) -> BlockOp:
    """The adjoint action of x tensor t^m on the loop algebra, as blocks.

    Block (k, l) is the structure coefficient of x_k in [x, x_l] times the
    shift by m, so the operator models y tensor t^i |-> [x, y] tensor t^(i+m).
    Only the blocks of nonzero structure constants are built.
    """
    shift = TateOp.shift(m, 1, lie.field)
    return BlockOp._of(lie.dimension, lie.field,
                       {key: shift.scale(c)
                        for key, c in lie.ad_entries(lie.index(label)).items()})


def block_cocycle(a: BlockOp, b: BlockOp) -> Scalar:
    """The corner cocycle with blockwise corners and the block trace; the sign
    convention matches tate_cocycle.  Corners are cut entrywise, so
    tr(a_pm b_mp) is the sum of tr(a[k, l]_pm b[l, k]_mp), and re-indexing
    the second trace the same way makes the cocycle the sum of
    tate_cocycle(a[k, l], b[l, k]) over the stored blocks of a whose
    transpose b stores."""
    a._check(b)
    total = a.field.zero()
    for (k, l), x in a._stored.items():
        y = b._stored.get((l, k))
        if y is not None:
            total = total + tate_cocycle(x, y)
    return total


class KacMoodyCell(NamedTuple):
    x: str
    y: str
    m: int
    n: int
    value: Scalar


def _kac_moody_factors(lie: LieAlgebraData, grid: int
                       ) -> tuple[dict[tuple[int, int], Scalar], list[tuple[int, int, Scalar]]]:
    """The two factors of every Kac-Moody cell: the trace form
    {(a, b): K(x_a, x_b)} over its nonzero entries, and [(m, n, c(t^m, t^n))]
    for |m|, |n| <= grid in (m, n) order, each c the field's shared zero
    when it vanishes.

    Block (k, l) of ad_block(x, m) is c_kl * t^m, so the BlockOp is the
    Kronecker product ad(x) (x) t^m.  Corners are cut entrywise, so they
    commute with the scalar coefficients; the block trace of
    (A (x) S)(B (x) T) is tr(AB) * tr(ST); and tr(AB) = tr(BA).  So
    block_cocycle(ad(x, m), ad(y, n)) is the trace form K(x, y) =
    tr(ad x ad y), one join over the nonzero ad entries, times the corner
    cocycle c of two shifts.  Each tr(t^m_pm t^n_mp) is summed once, as in
    tate_cocycle, over the box of t^m's pm corner with no corner cut.  A
    negative grid raises ValueError."""
    if grid < 0:
        raise ValueError(f"grid must be >= 0, got {grid}")
    field = lie.field
    zero = field.zero()
    shifts = range(-grid, grid + 1)
    ops = [TateOp.shift(m, 1, field) for m in shifts]
    traces = [[_product_sum(x, y, *_CORNERS["pm"]) for y in ops] for x in ops]
    ads = [lie.ad_entries(a) for a in range(lie.dimension)]
    transposed: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for b, ad in enumerate(ads):
        for (l, k), c in ad.items():
            transposed.setdefault((k, l), []).append((b, c))
    form: dict[tuple[int, int], Scalar] = {}
    for a, ad in enumerate(ads):
        for key, c in ad.items():
            for b, d in transposed.get(key, ()):
                _accumulate(form, (a, b), c * d)
    row = []
    for i, m in enumerate(shifts):
        for j, n in enumerate(shifts):
            c = traces[i][j] - traces[j][i]
            row.append((m, n, zero if c.is_zero() else c))
    return {key: k for key, k in form.items() if not k.is_zero()}, row


def kac_moody_grid(lie: LieAlgebraData, grid: int) -> list[KacMoodyCell]:
    """block_cocycle(ad(x, m), ad(y, n)) over all basis pairs and |m|,|n| <= grid,
    in the order (x, y, m, n), computed exactly as K(x, y) * c(t^m, t^n)
    from ``_kac_moody_factors``.  A cell is the field's shared zero when
    either factor is."""
    form, row = _kac_moody_factors(lie, grid)
    zero = lie.field.zero()
    cells = []
    for a, x in enumerate(lie.labels):
        for b, y in enumerate(lie.labels):
            k = form.get((a, b))
            cells += [KacMoodyCell(x, y, m, n, zero if k is None or c is zero else k * c)
                      for m, n, c in row]
    return cells
