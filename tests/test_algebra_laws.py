"""Algebra laws of the operator class, checked through independent actions.

The level-2 and level-3 checks are the strongest ones in the suite: a
level-n operator acts on finite sums of t_n-monomials whose coefficients are
vectors one level down through its outer presentation, entry by entry, with
no reference to operator composition.  Composition must commute with that
action, over QQ and over GF(5).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import _parts, _sums_equal, assert_canonical
from tateops import (ANTI, DIAG, EvSeq, LaurentPoly, PrimeField, QQ, TateOp, split_i, trace,
                     trace_product)
from tateops.operators import NEG_INF, POS_INF
from tateops.random_ops import (random_laurent, random_op, random_op_level_n, random_scalar,
                                random_trace_class_level_n)


FIELDS = (QQ, PrimeField(5))


def _add(x, y):
    """The sum of two vectors of one level; None stands for zero."""
    if x is None:
        return y
    if isinstance(x, LaurentPoly):
        total = x + y
        return None if total.is_zero() else total
    out = dict(x)
    for row, inner in y.items():
        total = _add(out.get(row), inner)
        if total is None:
            out.pop(row, None)
        else:
            out[row] = total
    return out or None


def _act(op: TateOp, vec):
    """A level-n operator applied to a vector of its level: a LaurentPoly at
    level 1, else a finite dict from t_n-exponents to vectors one level down.
    Above level 1 the operator acts through its outer presentation, entry by
    entry, with no reference to operator composition; None is zero."""
    if vec is None:
        return None
    if op.level == 1:
        out = op.apply(vec)
        return None if out.is_zero() else out
    out = None
    for b, inner in vec.items():
        for (orient, off), seq in op.lines.items():
            row = b + off if orient == DIAG else off - b
            image = _act(seq.value(b), inner)
            if image is not None:
                out = _add(out, {row: image})
        for (i, j), entry in op.corr.items():
            image = _act(entry, inner) if j == b else None
            if image is not None:
                out = _add(out, {i: image})
    return out


def _random_vec(rng, field, level: int):
    if level == 1:
        return random_laurent(rng, field, span=4)
    return {rng.randint(-5, 5): _random_vec(rng, field, level - 1)
            for _ in range(rng.randint(1, 3))}


def test_level2_composition_matches_iterated_action():
    for field in FIELDS:
        rng = random.Random(f"77 {field}")
        for _ in range(150):
            a = random_op_level_n(rng, field, 2)
            b = random_op_level_n(rng, field, 2)
            v = _random_vec(rng, field, 2)
            assert _act(a * b, v) == _act(a, _act(b, v))


def test_level3_composition_matches_iterated_action():
    # a level-3 operator acts through its level-2 entries, which act
    # through theirs; most random pairs send the vector to zero, so pairs
    # are drawn until 20 per field give a nonzero image
    for field in FIELDS:
        rng = random.Random(f"level 3 action {field}")
        nonzero = 0
        while nonzero < 20:
            a = random_op_level_n(rng, field, 3)
            b = random_op_level_n(rng, field, 3)
            v = _random_vec(rng, field, 3)
            image = _act(a, _act(b, v))
            assert _act(a * b, v) == image
            nonzero += image is not None


def test_level1_composition_matches_iterated_apply():
    for field in FIELDS:
        rng = random.Random(f"78 {field}")
        for _ in range(200):
            a = random_op(rng, field)
            b = random_op(rng, field)
            v = random_laurent(rng, field)
            assert (a * b).apply(v) == a.apply(b.apply(v))


def test_associativity_and_distributivity():
    rng = random.Random(79)
    for _ in range(100):
        a = random_op(rng, QQ)
        b = random_op(rng, QQ)
        c = random_op(rng, QQ)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        s = random_scalar(rng, QQ)
        assert (a * b).scale(s) == a.scale(s) * b
        assert a.scale(s) * b == a * b.scale(s)
    for _ in range(40):
        a = random_op_level_n(rng, QQ, 2)
        b = random_op_level_n(rng, QQ, 2)
        c = random_op_level_n(rng, QQ, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level, cases", [(1, 60), (2, 20), (3, 30)])
def test_ring_and_scalar_laws_at_every_level(level, cases, field):
    # each cell fails on a __mul__ that drops the anti x anti term at its
    # level, and each GF5 cell on a Scalar.__mul__ that skips the reduction
    # every result is stored in the one canonical form, checked on the
    # stored lines and cells alone; the cuts come from their own stream, so
    # the operators drawn are those the laws always saw
    rng = random.Random(f"ring laws {level} {field}")
    cuts = random.Random(f"ring law cuts {level} {field}")
    for _ in range(cases):
        a, b, c = (random_op_level_n(rng, field, level) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        s = random_scalar(rng, field)
        assert (a * b).scale(s) == a.scale(s) * b == a * b.scale(s)
        lo = [cuts.choice([NEG_INF, cuts.randint(-4, 4)]) for _ in range(2)]
        hi = [cuts.choice([cuts.randint(-4, 4), POS_INF]) for _ in range(2)]
        results = [a * b, b * c, a + b, a - b, b - a, -a, a.scale(s),
                   a.restrict(lo[0], hi[0], lo[1], hi[1]), a.map(lambda e: e * e),
                   *split_i(a, cuts.randint(1, level))]
        for result in results:
            assert_canonical(result, level, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_of_a_product_is_symmetric_at_every_level(level, field, seed):
    # trace(a b) = trace(b a) for trace-class a and any b, and trace_product,
    # which pairs pieces without forming a b, agrees; also with a zero factor.
    # Each cell fails on a __mul__ whose zero short-cut returns the other
    # operand, and on a Scalar.__mul__ that returns x for x * zero
    rng = random.Random(seed)
    a = random_trace_class_level_n(rng, field, level)
    b = random_op_level_n(rng, field, level)
    zero = TateOp.zero(level, field)
    for x, y in ((a, b), (a, zero), (zero, b)):
        assert trace(x * y) == trace(y * x) == trace_product(x, y) == trace_product(y, x)
    assert trace(a * zero) is field.zero()


def _entries(field, level: int):
    """Entries for a level-n operator, zero among them: scalars at level 1,
    else small level-(n-1) operators."""
    if level == 1:
        return st.one_of(st.just(field.zero()),
                         st.integers(-3, 3).map(field.from_int),
                         st.integers(-3, 3).map(lambda n: field.from_fraction(n, 2)))
    return st.one_of(st.just(TateOp.zero(level - 1, field)), _ops(field, level - 1, 5, 1))


@st.composite
def _ops(draw, field, level: int, spread: int, count: int):
    """Level-n operators of up to count + 1 lines and count cells, each line a
    windowless constant, a step or a window of up to 4 entries, with offsets,
    starts and cells within +-spread."""
    entry = _entries(field, level)
    coord = st.integers(-spread, spread)
    zero = TateOp.zero(level - 1, field) if level > 1 else field.zero()
    lines = {}
    for _ in range(draw(st.integers(0, count + 1))):
        orient, off, kind = (draw(st.sampled_from([DIAG, ANTI])), draw(coord),
                             draw(st.sampled_from(["constant", "step", "window"])))
        left, right = draw(entry), draw(entry)
        if orient == ANTI:  # an anti line's right tail vanishes
            right = zero
        if kind == "constant":
            seq = EvSeq.constant(left) if orient == DIAG else EvSeq.step(left, zero, draw(coord))
        elif kind == "step":
            seq = EvSeq.step(left, right, draw(coord))
        else:
            seq = EvSeq(left, right, draw(coord), draw(st.lists(entry, max_size=4)))
        lines[(orient, off)] = seq
    corr = {(draw(coord), draw(coord)): draw(entry)
            for _ in range(draw(st.integers(0, count)))}
    return TateOp(level, field, lines, corr)


def _rows(op: TateOp, j: int) -> set:
    """Rows of column j that a stored line or cell of op reaches."""
    rows = {j + off if orient == DIAG else off - j for (orient, off) in op.lines}
    return rows | {i for (i, jj) in op.corr if jj == j}


def _breaks(op: TateOp) -> set:
    """Columns next to which op's stored pieces can change value."""
    cols = {j for (_, j) in op.corr}
    for seq in op.lines.values():
        cols |= {seq.window_start - 1, seq.window_start, seq.window_end() - 1, seq.window_end()}
    return cols | {(c - d) // 2 for (o, d) in op.lines for (p, c) in op.lines
                   if o == DIAG and p == ANTI and (c - d) % 2 == 0}


def _product_columns(a: TateOp, b: TateOp, c: TateOp) -> set:
    """Columns of a * b = c at which some piece of a, b or c changes value,
    with a's columns k carried to the columns j of b that meet row k, one
    column to spare on each side, and two far columns."""
    cols = _breaks(b) | _breaks(c) | {10**4, -10**4}
    for k in _breaks(a):
        cols |= {k - off if orient == DIAG else off - k for (orient, off) in b.lines}
    return {j + e for j in cols for e in (-1, 0, 1)}


def _times(x, y):
    """x * y: the level-1 operator product for operators, and for scalars a
    product of their values that no Scalar operator computes."""
    if isinstance(x, TateOp):
        return x * y
    product = x.value * y.value
    return x.field.from_fraction(product.numerator, product.denominator) \
        if x.field is QQ else x.field.from_int(product)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_matches_the_value_by_value_definition(level, field, data):
    # column j of a * b holds sum_k a(i, k) b(k, j) over the rows k that b's
    # pieces reach in column j, every factor read from the stored pieces
    # with the oracle's _parts; the sums are compared as nested_equal
    # compares; scalar products are taken on the values, and at level 2 the
    # entry products are the level-1 product this test checks at level 1
    spread = data.draw(st.sampled_from([3, 50]))
    a, b = (data.draw(_ops(field, level, spread, 3)) for _ in range(2))
    c = a * b
    for j in _product_columns(a, b, c):
        terms: dict[int, list] = {}
        for k in _rows(b, j):
            for vb in _parts(b, k, j):
                for i in _rows(a, k):
                    terms.setdefault(i, []).extend(_times(va, vb) for va in _parts(a, i, k))
        for i in set(terms) | _rows(c, j):
            assert _sums_equal(_parts(c, i, j), terms.get(i, []), level - 1, field), (i, j)
