"""EvSeq combinators against brute-force evaluation."""

import operator
import random

import pytest

from tateops import ANTI, DIAG, EvSeq, QQ, TateOp
from tateops.operators import _paired, NEG_INF, POS_INF
from tateops.random_ops import random_scalar


def _random_seq(rng):
    """A random sequence; a windowless constant one time in four."""
    left = random_scalar(rng, QQ)
    if rng.random() < 0.25:
        return EvSeq.constant(left)
    right = random_scalar(rng, QQ)
    start = rng.randint(-5, 5)
    window = [random_scalar(rng, QQ) for _ in range(rng.randint(0, 4))]
    return EvSeq.of(left, right, start, window)


def test_value_matches_construction():
    seq = EvSeq.of(QQ.from_int(1), QQ.from_int(9), 2,
                   [QQ.from_int(5), QQ.from_int(6)])
    values = [seq.value(j) for j in range(-1, 6)]
    assert [v.value for v in values] == [1, 1, 1, 5, 6, 9, 9]


def test_line_product_and_pointwise_brute_force():
    # the product of line a with line b = (orient, off) reads a at j + off
    # (DIAG) or off - j (ANTI, which swaps a's limits) with no shifted or
    # reflected copy; + and - are the case (DIAG, 0)
    rng = random.Random(0)
    for _ in range(300):
        a = _random_seq(rng)
        b = _random_seq(rng)
        k = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        lo, hi = -15, 15
        shifted = _paired(a, b, operator.mul, DIAG, k)
        assert all(shifted.value(j) == a.value(j + k) * b.value(j) for j in range(lo, hi))
        assert shifted.left == a.left * b.left and shifted.right == a.right * b.right
        reflected = _paired(a, b, operator.mul, ANTI, c)
        assert all(reflected.value(j) == a.value(c - j) * b.value(j) for j in range(lo, hi))
        assert reflected.left == a.right * b.left and reflected.right == a.left * b.right
        total, diff = a + b, a - b
        assert all(total.value(j) == a.value(j) + b.value(j) for j in range(lo, hi))
        assert all(diff.value(j) == a.value(j) - b.value(j) for j in range(lo, hi))
        assert total == _paired(a, b, operator.add) and diff == _paired(a, b, operator.sub)
        j0 = rng.randint(-8, 8)
        v = random_scalar(rng, QQ)
        added = a.with_added(j0, v)
        assert added.value(j0) == a.value(j0) + v
        assert all(added.value(j) == a.value(j)
                   for j in range(lo, hi) if j != j0)


def _support_seq(rng):
    """A sequence whose limits and window entries are zero about half the time."""
    def pick():
        return QQ.zero() if rng.random() < 0.5 else random_scalar(rng, QQ, zero_ok=False)
    return EvSeq.of(pick(), pick(), rng.randint(-5, 5),
                    [pick() for _ in range(rng.randint(0, 4))])


def test_support_bounds_brute_force():
    # every window lies in [-5, 8], so a scan of [-30, 30] sees both tails;
    # the support from a bound lo is that of the line cut with restrict
    rng = random.Random(1)
    for _ in range(300):
        a = _support_seq(rng)
        nonzero = [j for j in range(-30, 31) if not a.value(j).is_zero()]
        for lo in (NEG_INF, *range(-10, 11)):
            cut = a.restrict(lo, POS_INF, QQ.zero())
            above = [j for j in nonzero if j >= lo]
            if lo == NEG_INF and not a.left.is_zero():
                assert cut.support_min() == NEG_INF
            else:
                assert cut.support_min() == (min(above) if above else None)
            if not a.right.is_zero():
                assert cut.support_max() == POS_INF
            else:
                assert cut.support_max() == (max(above) if above else None)
        assert a.restrict(NEG_INF, POS_INF, QQ.zero()) is a


def test_window_start_must_be_an_integer():
    # the start is an index; a stored float would fail only later, in == or -
    with pytest.raises(TypeError, match="float"):
        EvSeq(QQ.zero(), QQ.one(), 1.5)
    with pytest.raises(TypeError):
        TateOp(1, QQ, {(DIAG, 0): EvSeq.step(QQ.zero(), QQ.one(), 2.0)})
    assert EvSeq(QQ.zero(), QQ.one(), True) == EvSeq.step(QQ.zero(), QQ.one(), 1)
