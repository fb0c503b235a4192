"""Zero operands cost nothing: one shared zero operator per (level, field),
and the operations that meet an operand without lines or cells return at
once with the operand the algebra names.  Nor do results that change
nothing: restrict, map and split_i return their operand, or the shared
zero, and build no operator.

Each short-cut is checked against the presentation oracle (nested_equal)
and the serialized form of the expected operand, with the shared zero and
with a zero built by the constructor, and the cost pins count the operators
that are built.
"""

import random

import pytest

from dense_oracle import nested_equal
from tateops import (DIAG, FieldMismatchError, LevelMismatchError, PrimeField, QQ, Scalar,
                     TateOp, split_i)
from tateops.operators import NEG_INF, POS_INF
from tateops.random_ops import random_op_level_n, random_scalar
from tateops.serial import op_from_json, op_to_json

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
LEVELS = pytest.mark.parametrize("level", [1, 2, 3])


def _nonzero_ops(field, level, count, seed):
    rng = random.Random(f"{seed} {level} {field}")
    ops = []
    while len(ops) < count:
        a = random_op_level_n(rng, field, level)
        if a.lines or a.corr:
            ops.append(a)
    return ops, rng


def _same(result, expected):
    """result stores what expected stores, and the oracle reads the same
    entry function from result and from a fresh copy of expected."""
    assert op_to_json(result) == op_to_json(expected)
    assert nested_equal(result, op_from_json(op_to_json(expected), expected.field))


@FIELDS
@LEVELS
def test_one_shared_zero_per_level_and_field(level, field):
    zero = TateOp.zero(level, field)
    assert zero is TateOp.zero(level, field)
    assert not zero.lines and not zero.corr
    assert (zero.level, zero.field) == (level, field)
    assert zero is not TateOp.zero(level + 1, field)
    assert zero is not TateOp.zero(level, PrimeField(7))
    assert TateOp.zero(level + 1, field).entry_zero() is zero
    assert zero == TateOp(level, field) and TateOp(level, field) == zero
    with pytest.raises(ValueError):
        TateOp.zero(0, field)


@FIELDS
@LEVELS
def test_zero_short_cuts_match_the_oracle(level, field):
    ops, rng = _nonzero_ops(field, level, 10 if level < 3 else 5, "short-cuts")
    for zero in (TateOp.zero(level, field), TateOp(level, field)):
        for a in ops:
            s = random_scalar(rng, field)
            results = [(a * zero, zero), (zero * a, zero), (a + zero, a), (zero + a, a),
                       (a - zero, a), (zero - a, -a), (-zero, zero),
                       (zero.restrict(row_lo=0, col_hi=rng.randint(-3, 3)), zero),
                       (zero.scale(s), zero)]
            results += [(part, zero) for i in range(1, level + 1) for part in split_i(zero, i)]
            for result, expected in results:
                _same(result, expected)
            assert a * zero is zero and zero * a is zero
            assert a + zero is a and zero + a is a and a - zero is a
            assert -zero is zero and zero.scale(s) is zero
            assert zero.restrict(col_lo=1) is zero and zero.map(lambda e: e) is zero
            assert all(part is zero for part in split_i(zero, level))
            assert zero == zero and a != zero and zero != a


@FIELDS
@LEVELS
def test_a_zero_operand_is_still_checked(level, field):
    zero, a = TateOp.zero(level, field), _nonzero_ops(field, level, 1, "checks")[0][0]
    other_field = QQ if field is not QQ else PrimeField(5)
    for x, y in ((a, TateOp.zero(level + 1, field)), (TateOp.zero(level + 1, field), a),
                 (zero, TateOp.zero(level + 1, field))):
        for op in (lambda: x * y, lambda: x + y, lambda: x - y):
            with pytest.raises(LevelMismatchError):
                op()
    for x, y in ((a, TateOp.zero(level, other_field)), (TateOp.zero(level, other_field), a),
                 (zero, TateOp.zero(level, other_field))):
        for op in (lambda: x * y, lambda: x + y, lambda: x - y):
            with pytest.raises(FieldMismatchError):
                op()
    for op in (lambda: zero * 3, lambda: zero + 3, lambda: zero - 3, lambda: zero.scale(3),
               lambda: field.zero() * 3, lambda: field.one() * 3):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(FieldMismatchError):
        zero.scale(other_field.one())
    with pytest.raises(FieldMismatchError):
        field.zero() * other_field.one()


@FIELDS
def test_scalar_product_with_the_shared_zero(field):
    zero, x = field.zero(), field.from_int(3)
    assert x * zero is zero and zero * x is zero and zero * zero is zero
    # a product with a zero-valued factor is the shared zero, also when the
    # factor is a zero built by hand
    assert x * field.from_int(0) is zero and field.from_fraction(0, 7) * x is zero
    hand_zero = Scalar(field, zero.value)
    assert hand_zero is not zero
    assert x * hand_zero is zero and hand_zero * x is zero and hand_zero * hand_zero is zero
    assert hand_zero * zero is zero and zero * hand_zero is zero
    assert hand_zero / x is zero and x.times_int(0) is zero
    if field is not QQ:
        assert x.times_int(field.p) is zero


@FIELDS
@LEVELS
def test_zero_operands_build_no_operator(monkeypatch, level, field):
    ops, _ = _nonzero_ops(field, level, 6, "no build")
    zeros = [TateOp.zero(n, field) for n in range(1, level + 1)]
    zero = zeros[-1]

    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(TateOp, "__init__", no_build)
    for a in ops:
        assert a * zero is zero and zero * a is zero and a + zero is a
        assert zero.restrict(row_lo=0) is zero
        assert a.entry_zero() is (zeros[level - 2] if level > 1 else field.zero())


def test_level3_product_constructor_count(monkeypatch):
    # one fixed level-3 GF(5) product of two operators with lines and cells:
    # 34 operators are built, where 65 were before zero operands were
    # returned at once
    rng = random.Random("level-3 product 16")
    a, b = (random_op_level_n(rng, PrimeField(5), 3) for _ in range(2))
    assert a.lines and a.corr and b.lines and b.corr
    built = 0
    original = TateOp.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(TateOp, "__init__", counting_init)
    a * b
    assert built <= 34


def _support_box(a):
    """(row_lo, row_hi, col_lo, col_hi): the least box, infinite where a line's
    tail is nonzero, that holds every nonzero stored value of a."""
    rows, cols = [], []
    for (orient, off), seq in a.lines.items():
        lo, hi = seq.support_min(), seq.support_max()
        cols += [lo, hi]
        rows += [lo + off, hi + off] if orient == DIAG else [off - hi, off - lo]
    rows += [i for (i, _) in a.corr]
    cols += [j for (_, j) in a.corr]
    return min(rows), max(rows) + 1, min(cols), max(cols) + 1


@FIELDS
@LEVELS
def test_unchanged_restrict_map_and_split_build_nothing(monkeypatch, level, field):
    # restrict to a box that holds every stored piece, and map by a function
    # that returns every entry itself, return the operand; a box that misses
    # every piece, and a map to zero, return the shared zero.  A half of
    # variable i split again gives itself and the shared zero, and
    # plus + minus is then the operand
    ops, _ = _nonzero_ops(field, level, 6, "unchanged")
    halves = [(split_i(a, i), i) for a in ops for i in range(1, level + 1)]
    zeros = [TateOp.zero(n, field) for n in range(1, level + 1)]
    zero, entry_zero = zeros[-1], ops[0].entry_zero()

    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(TateOp, "__init__", no_build)
    for a in ops:
        row_lo, row_hi, col_lo, col_hi = _support_box(a)
        assert a.restrict(row_lo, row_hi, col_lo, col_hi) is a
        assert a.restrict() is a and a.map(lambda e: e) is a
        assert a.map(lambda e: entry_zero) is zero
        assert a.restrict(row_lo=3, row_hi=3) is zero
        assert a.restrict(col_lo=-2, col_hi=-2) is zero
        if row_hi != POS_INF:
            assert a.restrict(row_lo=row_hi) is zero
        if col_lo != NEG_INF:
            assert a.restrict(col_hi=col_lo) is zero
    for (plus, minus), i in halves:
        assert split_i(plus, i) == (plus, zero) and split_i(plus, i)[0] is plus
        assert split_i(minus, i) == (zero, minus) and split_i(minus, i)[1] is minus
        assert split_i(plus, i)[1] is zero and split_i(minus, i)[0] is zero
        assert plus + zero is plus and zero + minus is minus
