"""Algebra laws of the operator class, checked through independent actions.

The level-2 check is the strongest one in the suite: a level-2 operator acts
on finite sums of t2-monomials with Laurent coefficients through its outer
presentation, entry by entry, with no reference to operator composition.
Composition must commute with that action.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tateops import DIAG, LaurentPoly, PrimeField, QQ, TateOp, trace, trace_product
from tateops.random_ops import (random_laurent, random_op, random_op_level_n, random_scalar,
                                random_trace_class_level_n)


def _apply_level2(op: TateOp, vec: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    out: dict[int, LaurentPoly] = {}

    def add(row: int, poly: LaurentPoly) -> None:
        if poly.is_zero():
            return
        if row in out:
            out[row] = out[row] + poly
        else:
            out[row] = poly

    for b, poly in vec.items():
        for (orient, off), seq in op.lines.items():
            entry = seq.value(b)
            if not entry.is_zero():
                row = b + off if orient == DIAG else off - b
                add(row, entry.apply(poly))
        for (i, j), entry in op.corr.items():
            if j == b:
                add(i, entry.apply(poly))
    return {k: v for k, v in out.items() if not v.is_zero()}


def _random_vec2(rng) -> dict[int, LaurentPoly]:
    return {rng.randint(-5, 5): random_laurent(rng, QQ, span=4)
            for _ in range(rng.randint(1, 3))}


def test_level2_composition_matches_iterated_action():
    rng = random.Random(77)
    for _ in range(150):
        a = random_op_level_n(rng, QQ, 2)
        b = random_op_level_n(rng, QQ, 2)
        v = _random_vec2(rng)
        via_product = _apply_level2(a * b, v)
        via_steps = _apply_level2(a, _apply_level2(b, v))
        assert via_product == via_steps


def test_level1_composition_matches_iterated_apply():
    rng = random.Random(78)
    for _ in range(200):
        a = random_op(rng, QQ)
        b = random_op(rng, QQ)
        v = random_laurent(rng, QQ)
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
    rng = random.Random(f"ring laws {level} {field}")
    for _ in range(cases):
        a, b, c = (random_op_level_n(rng, field, level) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        s = random_scalar(rng, field)
        assert (a * b).scale(s) == a.scale(s) * b == a * b.scale(s)


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
