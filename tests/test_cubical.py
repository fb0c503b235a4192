"""Level-n operators: cubical ideals, idempotents, iterated trace, words."""

import random

import pytest

from tateops import (ANTI, EvSeq, NotTraceClassError, PrimeField, QQ,
                     TateOp, cubical_membership, good_idempotents,
                     is_fully_finite, level2_flip, split_i,
                     stored_two_letter_pair, trace, trace_n,
                     word_factorization)
from tateops.random_ops import (random_op_level2, random_trace_class,
                                random_trace_class_level2)


def test_level2_identity_and_shift_inverse():
    rng = random.Random(1)
    ident = TateOp.identity(2, QQ)
    for _ in range(30):
        a = random_op_level2(rng, QQ)
        assert ident * a == a
        assert a * ident == a
    up = TateOp.shift(1, 2, QQ)
    down = TateOp.shift(-1, 2, QQ)
    assert up * down == ident


def test_cubical_membership_examples():
    # variable order: index 1 = inner t1, index 2 = outer t2
    p_inner, p_outer = good_idempotents(2, QQ)
    rep = cubical_membership(p_outer)
    assert rep.in_plus == (False, True)
    assert rep.in_minus == (False, False)
    assert not rep.trace_class
    rep = cubical_membership(p_inner)
    assert rep.in_plus == (True, False)
    assert rep.in_minus == (False, False)
    rep = cubical_membership(TateOp.zero(2, QQ))
    assert rep.trace_class and rep.in_plus == (True, True)
    outer_first = cubical_membership(p_outer).outer_first()
    assert outer_first.in_plus == (True, False)


def test_good_idempotents():
    assert good_idempotents(1, QQ) == [TateOp.proj_plus(0, 1, QQ)]
    ps = good_idempotents(2, QQ)
    assert len(ps) == 2
    p1, p2 = ps
    assert p1 * p1 == p1 and p2 * p2 == p2
    assert p1 * p2 == p2 * p1
    rng = random.Random(3)
    for _ in range(100):
        x = random_op_level2(rng, QQ)
        for i, p in enumerate(ps, start=1):
            rep = cubical_membership(p * x)
            assert rep.in_plus[i - 1]
            q = TateOp.identity(2, QQ) - p
            rep_m = cubical_membership(q * x)
            assert rep_m.in_minus[i - 1]
    # three variables, innermost-first ordering
    ps3 = good_idempotents(3, QQ)
    assert len(ps3) == 3
    for a in ps3:
        for b in ps3:
            assert a * b == b * a


def test_split_i_properties():
    rng = random.Random(4)
    ident = TateOp.identity(2, QQ)
    p1, p2 = good_idempotents(2, QQ)
    assert split_i(ident, 1) == (p1, ident - p1)
    assert split_i(ident, 2) == (p2, ident - p2)
    z_plus, z_minus = split_i(TateOp.zero(2, QQ), 1)
    assert z_plus.is_zero() and z_minus.is_zero()
    for _ in range(60):
        a = random_op_level2(rng, QQ)
        for i in (1, 2):
            plus, minus = split_i(a, i)
            assert plus + minus == a
            assert cubical_membership(plus).in_plus[i - 1]
            assert cubical_membership(minus).in_minus[i - 1]
    with pytest.raises(IndexError):
        split_i(ident, 3)


def test_cubical_ideal_laws_level2():
    rng = random.Random(5)
    for _ in range(100):
        a = random_op_level2(rng, QQ)
        b = random_op_level2(rng, QQ)
        for i in (1, 2):
            plus, _ = split_i(a, i)
            assert cubical_membership(plus * b).in_plus[i - 1]
            assert cubical_membership(b * plus).in_plus[i - 1]
            _, minus = split_i(a, i)
            assert cubical_membership(minus * b).in_minus[i - 1]
            assert cubical_membership(b * minus).in_minus[i - 1]
        tc1 = random_trace_class_level2(rng, QQ)
        tc2 = random_trace_class_level2(rng, QQ)
        assert cubical_membership(tc1 + tc2).trace_class
        assert cubical_membership(tc1 * b).trace_class
        assert cubical_membership(b * tc1).trace_class


def test_trace_n_examples():
    assert trace_n is trace
    rank_one = TateOp(2, QQ, corr={(0, 0): TateOp.from_finite(QQ, {(0, 0): QQ.one()})})
    assert trace_n(rank_one) == QQ.one()

    halfline = TateOp.from_line(QQ, ANTI, 0, EvSeq.step(QQ.one(), QQ.zero(), 1))
    assert trace(halfline) == QQ.one()
    nested = TateOp(2, QQ, corr={(0, 0): halfline})
    assert trace_n(nested) == QQ.one()

    with pytest.raises(NotTraceClassError):
        trace_n(TateOp.identity(2, QQ))


def test_trace_n_linear_and_strong_vanishing():
    rng = random.Random(6)
    for _ in range(100):
        a = random_trace_class_level2(rng, QQ)
        b = random_trace_class_level2(rng, QQ)
        assert trace_n(a + b) == trace_n(a) + trace_n(b)
    for _ in range(100):
        a = random_trace_class_level2(rng, QQ)
        b = random_op_level2(rng, QQ)
        assert trace_n(a * b - b * a).is_zero()


def test_trace_n_outer_window_invariance():
    rng = random.Random(7)
    for _ in range(60):
        a = random_trace_class_level2(rng, QQ)
        value = trace_n(a)
        row = a.bounding_row() or 0
        kill = a.kill_column() or 0
        lo = min(row, kill, 0)
        for _ in range(3):
            assert trace_n(a, lo - rng.randint(0, 5), kill + rng.randint(0, 5)) == value


def test_trace_n_additivity_across_outer_split():
    # block upper-triangular with respect to the outer idempotent
    rng = random.Random(8)
    p2 = good_idempotents(2, QQ)[1]
    q2 = TateOp.identity(2, QQ) - p2
    for _ in range(40):
        x = random_trace_class_level2(rng, QQ)
        y = random_trace_class_level2(rng, QQ)
        z = random_trace_class_level2(rng, QQ)
        a = p2 * x * p2 + q2 * y * q2 + p2 * z * q2
        assert trace_n(p2 * a * p2) + trace_n(q2 * a * q2) == trace_n(a)


def test_word_factorization_level1():
    rng = random.Random(9)
    for _ in range(100):
        a = random_trace_class(rng, QQ)
        b = random_trace_class(rng, QQ)
        res = word_factorization([a, b])
        assert res.finite_at_all_levels
        assert res.product == a * b
    flip = TateOp.ind_to_pro_flip(QQ)
    assert not word_factorization([flip]).finite_at_all_levels
    with pytest.raises(NotTraceClassError):
        word_factorization([TateOp.identity()])
    with pytest.raises(ValueError):
        word_factorization([])


def test_word_factorization_level2_positive():
    rng = random.Random(10)
    for _ in range(100):
        word = [random_trace_class_level2(rng, QQ) for _ in range(4)]
        assert word_factorization(word).finite_at_all_levels


def test_level2_one_letter_witness():
    phi = level2_flip(QQ)
    rep = cubical_membership(phi)
    assert rep.trace_class
    assert not is_fully_finite(phi)
    assert not word_factorization([phi]).finite_at_all_levels
    assert (phi * phi).is_zero()


def test_stored_two_letter_pair_is_trace_class_with_nonzero_product():
    w1, w2 = stored_two_letter_pair(QQ)
    assert cubical_membership(w1).trace_class
    assert cubical_membership(w2).trace_class
    assert not is_fully_finite(w1) and not is_fully_finite(w2)
    res = word_factorization([w1, w2])
    assert not res.product.is_zero()
    # Mathematical fact of this operator class: the product of any two
    # trace-class letters is finite at every level (see module docstring).
    assert res.finite_at_all_levels


def test_products_of_two_trace_class_level2_always_finite():
    rng = random.Random(11)
    for _ in range(150):
        a = random_trace_class_level2(rng, QQ)
        b = random_trace_class_level2(rng, QQ)
        assert is_fully_finite(a * b)


def test_level3_smoke():
    ps = good_idempotents(3, QQ)
    ident = TateOp.identity(3, QQ)
    for i, p in enumerate(ps, start=1):
        rep = cubical_membership(p)
        assert rep.in_plus[i - 1]
        plus, minus = split_i(ident, i)
        assert plus == p and minus == ident - p
    # a level-3 rank-one tower traces to its innermost value
    inner = TateOp.from_finite(QQ, {(0, 0): QQ.from_fraction(3, 7)})
    mid = TateOp(2, QQ, corr={(1, 1): inner})
    top = TateOp(3, QQ, corr={(-2, -2): mid})
    assert cubical_membership(top).trace_class
    assert trace_n(top) == QQ.from_fraction(3, 7)
    # a level-3 flip tower is trace-class but not finite
    phi2 = level2_flip(QQ)
    seq = EvSeq.step(phi2, TateOp.zero(2, QQ), 0)
    phi3 = TateOp(3, QQ, {(ANTI, -1): seq})
    assert cubical_membership(phi3).trace_class
    assert not is_fully_finite(phi3)
    assert word_factorization([phi3, phi3]).finite_at_all_levels


def test_fp_level2():
    f2 = PrimeField(2)
    rng = random.Random(12)
    for _ in range(30):
        a = random_op_level2(rng, f2)
        for i in (1, 2):
            plus, minus = split_i(a, i)
            assert plus + minus == a
    phi = level2_flip(f2)
    assert cubical_membership(phi).trace_class
