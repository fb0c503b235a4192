"""Level-n operators: cubical ideals, idempotents, iterated trace, words."""

import inspect
import random

import pytest

import tateops.cubical
from dense_oracle import cubical_flags, nested_entry, window_trace
from tateops import (ANTI, EvSeq, NotTraceClassError, PrimeField, QQ,
                     TateOp, certificate, cubical_membership, good_idempotents, ideal_membership,
                     is_fully_finite, level2_flip, split_i,
                     stored_two_letter_pair, trace,
                     word_factorization)
from tateops.random_ops import (random_op_level2, random_op_level_n,
                                random_trace_class, random_trace_class_level2)
from tateops.serial import op_to_json

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])


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
    # the variable index is read with operator.index
    with pytest.raises(TypeError):
        split_i(ident, 1.5)


@FIELDS
def test_split_i_matches_idempotent_products(field):
    # P_i^+ a and P_i^- a, read off by restriction, serialize exactly as the
    # products with the good idempotents
    rng = random.Random(f"split_i products {field}")
    for level in (1, 2, 3):
        ident = TateOp.identity(level, field)
        ps = good_idempotents(level, field)
        for _ in range(40):
            a = random_op_level_n(rng, field, level)
            for i, p in enumerate(ps, start=1):
                plus, minus = split_i(a, i)
                assert op_to_json(plus) == op_to_json(p * a)
                assert op_to_json(minus) == op_to_json((ident - p) * a)


def test_split_i_composes_nothing(monkeypatch):
    rng = random.Random(13)
    ops = [random_op_level_n(rng, QQ, level) for level in (1, 2, 3) for _ in range(5)]
    calls = []
    original = TateOp.__mul__

    def counting_mul(self, other):
        calls.append(self.level)
        return original(self, other)

    def no_idempotents(n, field):
        raise AssertionError("split_i built the good idempotents")

    monkeypatch.setattr(TateOp, "__mul__", counting_mul)
    monkeypatch.setattr(tateops.cubical, "good_idempotents", no_idempotents)
    for a in ops:
        for i in range(1, a.level + 1):
            split_i(a, i)
    assert calls == []


def test_split_sum_check_constructor_count(monkeypatch):
    # the check P_i^+ a + P_i^- a == a on one fixed level-3 GF(5) operator,
    # for every i: the three sums build 46 operators, and == builds none (it
    # reads the stored forms, and no crossing of a is split two ways); when
    # == subtracted, the sums built 50 and == another 95
    a = random_op_level_n(random.Random("split sum 1"), PrimeField(5), 3)
    assert a.lines and a.corr
    parts = [split_i(a, i) for i in (1, 2, 3)]
    built = 0
    original = TateOp.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(TateOp, "__init__", counting_init)
    sums = [plus + minus for plus, minus in parts]
    assert built <= 46
    built = 0
    assert all(total == a for total in sums)
    assert built == 0


@FIELDS
def test_cubical_membership_matches_per_variable_oracle(field):
    # the one walk over the stored entries against dense_oracle.cubical_flags,
    # which decides each variable index apart, with no early exit
    rng = random.Random(f"cubical walk {field}")
    seen = set()
    for level in (1, 2, 3):
        for _ in range(12):
            a = random_op_level_n(rng, field, level)
            i = rng.randint(1, level)
            for op in (a, *split_i(a, i), TateOp.zero(level, field)):
                report = cubical_membership(op)
                want = [cubical_flags(op, k) for k in range(1, level + 1)]
                assert list(zip(report.in_plus, report.in_minus)) == want
                assert report.trace_class is all(p and m for p, m in want)
                seen.update((level, k, flags) for k, flags in enumerate(want, 1))
    # every index at every level is seen in and out of each ideal
    for level in (1, 2, 3):
        for k in range(1, level + 1):
            flags = {f for lv, kk, f in seen if (lv, kk) == (level, k)}
            assert {p for p, _ in flags} == {m for _, m in flags} == {True, False}


def _stored_index(op, rng):
    """A multi-index (outermost first) through stored data: a correction cell
    or a line at a column in [-4, 4], then the same one level down."""
    cells = list(op.corr) + [(j + off if orient == "diag" else off - j, j)
                             for (orient, off) in op.lines for j in range(-4, 5)]
    i, j = rng.choice(cells) if cells else (0, 0)
    if op.level == 1:
        return ((i, j),)
    return ((i, j),) + _stored_index(op.entry(i, j), rng)


@FIELDS
def test_split_i_keeps_entries_by_row_sign_dense_oracle(field):
    # P_i^+ a keeps the entries whose variable-i row is >= 0, P_i^- a the rest
    rng = random.Random(f"split_i oracle {field}")
    zero = field.zero()
    nonzero = 0
    for level in (2, 3):
        for _ in range(12):
            a = random_op_level_n(rng, field, level)
            indices = [_stored_index(a, rng) for _ in range(100)]
            indices += [tuple((rng.randint(-4, 4), rng.randint(-4, 4))
                              for _ in range(level)) for _ in range(100)]
            for i in range(1, level + 1):
                plus, minus = split_i(a, i)
                for index in indices:
                    want = nested_entry(a, index)
                    nonneg = index[level - i][0] >= 0
                    assert nested_entry(plus, index) == (want if nonneg else zero)
                    assert nested_entry(minus, index) == (zero if nonneg else want)
                    nonzero += not want.is_zero()
    assert nonzero > 1000


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
    # one trace, of the operator alone: lattice pairs go to certificate
    assert tateops.cubical.trace_n is trace
    assert list(inspect.signature(trace).parameters) == ["a"]
    rank_one = TateOp(2, QQ, corr={(0, 0): TateOp(1, QQ, corr={(0, 0): QQ.one()})})
    assert trace(rank_one) == QQ.one()

    halfline = TateOp(1, QQ, {(ANTI, 0): EvSeq.step(QQ.one(), QQ.zero(), 1)})
    assert trace(halfline) == QQ.one()
    nested = TateOp(2, QQ, corr={(0, 0): halfline})
    assert trace(nested) == QQ.one()

    with pytest.raises(NotTraceClassError):
        trace(TateOp.identity(2, QQ))


def test_trace_n_linear_and_strong_vanishing():
    rng = random.Random(6)
    for _ in range(100):
        a = random_trace_class_level2(rng, QQ)
        b = random_trace_class_level2(rng, QQ)
        assert trace(a + b) == trace(a) + trace(b)
    for _ in range(100):
        a = random_trace_class_level2(rng, QQ)
        b = random_op_level2(rng, QQ)
        assert trace(a * b - b * a).is_zero()


def test_trace_n_outer_window_invariance():
    rng = random.Random(7)
    for _ in range(60):
        a = random_trace_class_level2(rng, QQ)
        value = trace(a)
        row = ideal_membership(a).bounding_row or 0
        kill = a.kill_column() or 0
        lo = min(row, kill, 0)
        for _ in range(3):
            n_m, np_m = lo - rng.randint(0, 5), kill + rng.randint(0, 5)
            certificate(a, n_m, np_m)
            assert window_trace(a, n_m, np_m) == value
        if a.kill_column() is not None:
            with pytest.raises(ValueError):
                certificate(a, lo, kill - 1)


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
        assert trace(p2 * a * p2) + trace(q2 * a * q2) == trace(a)


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
    inner = TateOp(1, QQ, corr={(0, 0): QQ.from_fraction(3, 7)})
    mid = TateOp(2, QQ, corr={(1, 1): inner})
    top = TateOp(3, QQ, corr={(-2, -2): mid})
    assert cubical_membership(top).trace_class
    assert trace(top) == QQ.from_fraction(3, 7)
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
