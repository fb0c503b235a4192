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

from dataclasses import dataclass
from typing import Mapping, Sequence

from .fields import Field, FieldMismatchError, Scalar
from .laurent import LaurentPoly
from .operators import TateOp, _projections, commutator
from .trace import trace

# Pinned by requiring residue(t^-1, t) == 1 == coeff_{-1}(t^-1 * dt/dt);
# see tests/test_cocycles.py for the derivation from the window oracle.
COCYCLE_TO_RESIDUE_SIGN = -1
HOCHSCHILD_TO_RESIDUE_SIGN = -1

_CORNERS = {"pp": ("+", "+"), "pm": ("+", "-"), "mp": ("-", "+"), "mm": ("-", "-")}


def corner(a: TateOp, quadrant: str) -> TateOp:
    """P^s a P^s' for a quadrant in {pp, pm, mp, mm}; the off-diagonal corners
    are trace-class for every operator in this class."""
    if quadrant not in _CORNERS:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    left, right = _CORNERS[quadrant]
    p = _projections(a.level, a.field)
    return p[left] * a * p[right]


def tate_cocycle(a: TateOp, b: TateOp) -> Scalar:
    """Corner 2-cocycle tr(a_pm b_mp) - tr(b_pm a_mp); bilinear, antisymmetric."""
    first = trace(corner(a, "pm") * corner(b, "mp"))
    second = trace(corner(b, "pm") * corner(a, "mp"))
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

    [P+, a] is a sum of the two off-diagonal corners, hence trace-class, so
    the trace is defined for arbitrary a, b in the class.
    """
    p_plus = _projections(a.level, a.field)["+"]
    raw = trace(commutator(p_plus, a) * b)
    return raw.times_int(HOCHSCHILD_TO_RESIDUE_SIGN)


class LieAlgebraError(ValueError):
    """Structure constants failing antisymmetry or the Jacobi identity."""


class LieAlgebraData:
    """A finite-dimensional Lie algebra by structure constants.

    brackets[(i, j)] maps basis index k to the coefficient of x_k in
    [x_i, x_j]; absent pairs are zero.  Antisymmetry and the Jacobi identity
    are validated exactly at construction.
    """

    __slots__ = ("field", "labels", "_table")

    def __init__(self, field: Field, labels: Sequence[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, Scalar]]):
        self.field = field
        self.labels = tuple(labels)
        r = len(self.labels)
        table = [[[field.zero() for _ in range(r)] for _ in range(r)] for _ in range(r)]
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if c.field != field:
                    raise FieldMismatchError("structure constant field mismatch")
                table[i][j][k] = table[i][j][k] + c
        self._table = table
        self._validate()

    def _validate(self) -> None:
        r = self.dimension
        z = self.field.zero()
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if self._table[i][j][k] + self._table[j][i][k] != z:
                        raise LieAlgebraError("structure constants are not antisymmetric")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    for l in range(r):
                        acc = z
                        for m in range(r):
                            acc = acc + self._table[i][j][m] * self._table[m][k][l]
                            acc = acc + self._table[j][k][m] * self._table[m][i][l]
                            acc = acc + self._table[k][i][m] * self._table[m][j][l]
                        if acc != z:
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
        return self._table[i][j][k]

    def ad_matrix(self, i: int) -> list[list[Scalar]]:
        """Matrix of ad(x_i): column l holds the components of [x_i, x_l]."""
        r = self.dimension
        return [[self._table[i][l][k] for l in range(r)] for k in range(r)]


def lie_from_json(doc: dict, field: Field) -> LieAlgebraData:
    """Load structure constants from a JSON document.

    Shape: {"labels": ["e", "h", "f"],
            "brackets": [{"left": "h", "right": "e", "out": {"e": "2"}}, ...]}
    with scalar values in the operator-file scalar syntax.  The antisymmetric
    counterpart of each bracket is filled in automatically unless given.
    """
    from .serial import scalar_from_json, SchemaError
    if not isinstance(doc, dict) or "labels" not in doc:
        raise SchemaError("Lie algebra document needs a labels array")
    labels = list(doc["labels"])
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate basis labels")
    index = {lab: k for k, lab in enumerate(labels)}
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for item in doc.get("brackets", []):
        try:
            i, j = index[item["left"]], index[item["right"]]
            comps = {index[lab]: scalar_from_json(v, field)
                     for lab, v in item["out"].items()}
        except KeyError as exc:
            raise SchemaError(f"bad bracket entry: {exc}") from exc
        brackets[(i, j)] = comps
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
    """A square array of level-1 operators acting on k((t))^r."""

    __slots__ = ("field", "blocks", "_off_corners")

    def __init__(self, blocks: Sequence[Sequence[TateOp]]):
        rows = [tuple(row) for row in blocks]
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise ValueError("block array must be square")
        if r == 0:
            raise ValueError("empty block array")
        self.field = rows[0][0].field
        for row in rows:
            for op in row:
                if op.field != self.field:
                    raise FieldMismatchError("block field mismatch")
                if op.level != 1:
                    raise ValueError("blocks must be level-1 operators")
        self.blocks = tuple(rows)
        self._off_corners = None

    @property
    def size(self) -> int:
        return len(self.blocks)

    def _check(self, other: "BlockOp") -> None:
        if self.size != other.size or self.field != other.field:
            raise ValueError("block dimension or field mismatch")

    @classmethod
    def zero(cls, r: int, field: Field) -> "BlockOp":
        z = TateOp.zero(1, field)
        return cls([[z] * r for _ in range(r)])

    def __add__(self, other: "BlockOp") -> "BlockOp":
        self._check(other)
        return BlockOp([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "BlockOp":
        return BlockOp([[-a for a in row] for row in self.blocks])

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        return self + (-other)

    def __mul__(self, other: "BlockOp") -> "BlockOp":
        self._check(other)
        r = self.size
        out = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = TateOp.zero(1, self.field)
                for k in range(r):
                    acc = acc + self.blocks[i][k] * other.blocks[k][j]
                row.append(acc)
            out.append(row)
        return BlockOp(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockOp):
            return NotImplemented
        return (self.size == other.size and self.field == other.field
                and all(a == b for ra, rb in zip(self.blocks, other.blocks)
                        for a, b in zip(ra, rb)))

    def apply(self, vector: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        if len(vector) != self.size:
            raise ValueError("vector length differs from block dimension")
        out = []
        for i in range(self.size):
            acc = LaurentPoly.zero(self.field)
            for j, v in enumerate(vector):
                acc = acc + self.blocks[i][j].apply(v)
            out.append(acc)
        return out

    def corner(self, quadrant: str) -> "BlockOp":
        return BlockOp([[corner(op, quadrant) for op in row] for row in self.blocks])

    def _pm_mp_corners(self) -> tuple["BlockOp", "BlockOp"]:
        """The (pm, mp) corners, computed on first request and kept."""
        if self._off_corners is None:
            self._off_corners = (self.corner("pm"), self.corner("mp"))
        return self._off_corners

    def block_trace(self) -> Scalar:
        total = self.field.zero()
        for k in range(self.size):
            total = total + trace(self.blocks[k][k])
        return total


def ad_block(label: str, m: int, lie: LieAlgebraData) -> BlockOp:
    """The adjoint action of x tensor t^m on the loop algebra, as blocks.

    Block (k, l) is the structure coefficient of x_k in [x, x_l] times the
    shift by m, so the operator models y tensor t^i |-> [x, y] tensor t^(i+m).
    """
    i = lie.index(label)
    shift = TateOp.shift(m, 1, lie.field)
    mat = lie.ad_matrix(i)
    return BlockOp([[shift.scale(mat[k][l]) for l in range(lie.dimension)]
                    for k in range(lie.dimension)])


def _product_trace(x: BlockOp, y: BlockOp) -> Scalar:
    """block_trace of x * y, reading only its diagonal blocks: the sum of
    tr(x[k][l] y[l][k]), skipping terms with a zero factor.  Each term is
    trace-class when x is, so linearity of the trace gives the same value."""
    total = x.field.zero()
    for k, row in enumerate(x.blocks):
        for l, xkl in enumerate(row):
            ylk = y.blocks[l][k]
            if not xkl.is_zero() and not ylk.is_zero():
                total = total + trace(xkl * ylk)
    return total


def block_cocycle(a: BlockOp, b: BlockOp) -> Scalar:
    """The corner cocycle with blockwise corners and the block trace; the sign
    convention matches tate_cocycle.  Corners are cached on each BlockOp."""
    a._check(b)
    a_pm, a_mp = a._pm_mp_corners()
    b_pm, b_mp = b._pm_mp_corners()
    return _product_trace(a_pm, b_mp) - _product_trace(b_pm, a_mp)


@dataclass(frozen=True)
class KacMoodyCell:
    x: str
    y: str
    m: int
    n: int
    value: Scalar


def kac_moody_grid(lie: LieAlgebraData, grid: int) -> list[KacMoodyCell]:
    """block_cocycle(ad(x, m), ad(y, n)) over all basis pairs and |m|,|n| <= grid."""
    cells = []
    ads = {(label, m): ad_block(label, m, lie)
           for label in lie.labels for m in range(-grid, grid + 1)}
    for x in lie.labels:
        for y in lie.labels:
            for m in range(-grid, grid + 1):
                for n in range(-grid, grid + 1):
                    val = block_cocycle(ads[(x, m)], ads[(y, n)])
                    cells.append(KacMoodyCell(x, y, m, n, val))
    return cells
