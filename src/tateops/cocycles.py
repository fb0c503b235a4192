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

from typing import Any, Mapping, NamedTuple, Sequence

from .fields import _accumulate, Field, FieldMismatchError, Scalar
from .laurent import LaurentPoly
from .operators import NEG_INF, POS_INF, TateOp
from .serial import _array, _guarded, _member, _quote, scalar_from_json, SchemaError
from .trace import _product_sum, trace, trace_product

# Pinned by requiring residue(t^-1, t) == 1 == coeff_{-1}(t^-1 * dt/dt);
# see tests/test_cocycles.py for the derivation from the window oracle.
COCYCLE_TO_RESIDUE_SIGN = -1
HOCHSCHILD_TO_RESIDUE_SIGN = -1

# (row_lo, row_hi, col_lo, col_hi) of each quadrant: P+ keeps exponents >= 0.
_CORNERS = {"pp": (0, POS_INF, 0, POS_INF), "pm": (0, POS_INF, NEG_INF, 0),
            "mp": (NEG_INF, 0, 0, POS_INF), "mm": (NEG_INF, 0, NEG_INF, 0)}


def corner(a: TateOp, quadrant: str) -> TateOp:
    """P^s a P^s' for a quadrant in {pp, pm, mp, mm}, read off by restriction;
    the off-diagonal corners are trace-class for every operator in this class."""
    if quadrant not in _CORNERS:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    return a.restrict(*_CORNERS[quadrant])


def tate_cocycle(a: TateOp, b: TateOp) -> Scalar:
    """Corner 2-cocycle tr(a_pm b_mp) - tr(b_pm a_mp); bilinear, antisymmetric."""
    first = trace_product(corner(a, "pm"), corner(b, "mp"))
    second = trace_product(corner(b, "pm"), corner(a, "mp"))
    return first - second


def residue_oracle(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """Classical residue: the coefficient of t^-1 in f * dg."""
    return (f * g.derivative()).coeff(-1)


def residue(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """res(f dg) computed from the corner cocycle of multiplication operators."""
    raw = tate_cocycle(TateOp.mul(f), TateOp.mul(g))
    return raw.times_int(COCYCLE_TO_RESIDUE_SIGN)


def hochschild_residue(a: TateOp, b: TateOp) -> Scalar:
    """Trace of [P+, a] b, normalized to agree with residue on mul operators.

    [P+, a] = a_pm - a_mp is a difference of the two off-diagonal corners,
    hence trace-class, so the trace is defined for arbitrary a, b in the class.
    """
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

    __slots__ = ("field", "size", "_stored", "_off_corners")

    def __init__(self, blocks: Sequence[Sequence[TateOp]]):
        rows = [tuple(row) for row in blocks]
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise ValueError("block array must be square")
        if r == 0:
            raise ValueError("empty block array")
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
        self._off_corners = None

    @property
    def blocks(self) -> tuple[tuple[TateOp, ...], ...]:
        z = TateOp.zero(1, self.field)
        return tuple(tuple(self._stored.get((k, l), z) for l in range(self.size))
                     for k in range(self.size))

    def _check(self, other: "BlockOp") -> None:
        if self.size != other.size or self.field != other.field:
            raise ValueError("block dimension or field mismatch")

    @classmethod
    def zero(cls, r: int, field: Field) -> "BlockOp":
        if r <= 0:
            raise ValueError("empty block array")
        return cls._of(r, field, {})

    def __add__(self, other: "BlockOp") -> "BlockOp":
        self._check(other)
        out = dict(self._stored)
        for key, op in other._stored.items():
            _accumulate(out, key, op)
        return BlockOp._of(self.size, self.field, out)

    def __neg__(self) -> "BlockOp":
        return BlockOp._of(self.size, self.field,
                           {key: -op for key, op in self._stored.items()})

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        return self + (-other)

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
        return (self.size == other.size and self.field == other.field
                and self._stored.keys() == other._stored.keys()
                and all(op == other._stored[key] for key, op in self._stored.items()))

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

    def _pm_mp_corners(self) -> tuple["BlockOp", "BlockOp"]:
        """The (pm, mp) corners, computed on first request and kept."""
        if self._off_corners is None:
            self._off_corners = (self.corner("pm"), self.corner("mp"))
        return self._off_corners

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


def _corner_traces(left: Sequence[BlockOp],
                   right: Sequence[BlockOp]) -> dict[tuple[int, int], Scalar]:
    """{(i, j): block_trace(left[i]_pm * right[j]_mp)} over the pairs (i, j)
    whose corner blocks meet, from one join: every stored block of each mp
    corner on the right is indexed by its transposed key, and each pm block
    on the left is paired with that index.  A block is level-1, so its pm
    corner is bounded and discrete, hence trace-class, and each pair is
    summed without a membership test.  Pairs that meet nowhere are absent."""
    meets: dict[tuple[int, int], list[tuple[int, TateOp]]] = {}
    for j, op in enumerate(right):
        for (l, k), y in op._pm_mp_corners()[1]._stored.items():
            meets.setdefault((k, l), []).append((j, y))
    out: dict[tuple[int, int], Scalar] = {}
    for i, op in enumerate(left):
        for key, x in op._pm_mp_corners()[0]._stored.items():
            for j, y in meets.get(key, ()):
                _accumulate(out, (i, j), _product_sum(x, y))
    return out


def block_cocycle(a: BlockOp, b: BlockOp) -> Scalar:
    """The corner cocycle with blockwise corners and the block trace; the sign
    convention matches tate_cocycle.  Corners are cached on each BlockOp, and
    only the two cross pairs (a_pm, b_mp) and (b_pm, a_mp) are joined."""
    a._check(b)
    zero = a.field.zero()
    first = _corner_traces((a,), (b,)).get((0, 0), zero)
    return first - _corner_traces((b,), (a,)).get((0, 0), zero)


class KacMoodyCell(NamedTuple):
    x: str
    y: str
    m: int
    n: int
    value: Scalar


def kac_moody_grid(lie: LieAlgebraData, grid: int) -> list[KacMoodyCell]:
    """block_cocycle(ad(x, m), ad(y, n)) over all basis pairs and |m|,|n| <= grid,
    in the order (x, y, m, n), as the trace form of the algebra times the
    corner cocycle of the shifts: K(x, y) * c(t^m, t^n).

    This is exact.  Block (k, l) of ad_block(x, m) is c_kl * t^m, so the
    BlockOp is the Kronecker product ad(x) (x) t^m.  Corners are cut
    entrywise, so they commute with the scalar coefficients, and the block
    trace of (A (x) S)(B (x) T) is tr(AB) * tr(ST).  Hence
    block_cocycle(ad(x, m), ad(y, n)) = K(x, y) tr(t^m_pm t^n_mp)
    - K(y, x) tr(t^n_pm t^m_mp), and tr(AB) = tr(BA) makes K symmetric, so
    it is K(x, y) * c(t^m, t^n).  The engine still computes every
    c(t^m, t^n) from corners and traces: the 2g+1 shifts go through the
    corner join once, as 1 x 1 BlockOps.  K(a, b) = sum of ad_a[k, l] *
    ad_b[l, k] is one join over the nonzero ad entries.  A cell is the
    field's shared zero when either factor is."""
    field = lie.field
    zero = field.zero()
    shifts = range(-grid, grid + 1)
    ops = [BlockOp._of(1, field, {(0, 0): TateOp.shift(m, 1, field)}) for m in shifts]
    traces = _corner_traces(ops, ops)
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
    row = [(m, n, traces.get((i, j), zero) - traces.get((j, i), zero))
           for i, m in enumerate(shifts) for j, n in enumerate(shifts)]
    cells = []
    for a, x in enumerate(lie.labels):
        for b, y in enumerate(lie.labels):
            k = form.get((a, b), zero)
            cells += [KacMoodyCell(x, y, m, n, zero if k is zero or c is zero else k * c)
                      for m, n, c in row]
    return cells
