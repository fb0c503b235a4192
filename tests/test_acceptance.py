"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All arithmetic is exact; the only tolerances are the stated runtime
budgets.

Criterion 8 is split in two.  Its positive half (products of 2 trace-class
letters at level 1 and 4 at level 2 normalize to finite) passes.  Its
stored-witness half asserts that a specific two-letter trace-class product
at level 2 fails the finiteness check; in this operator class that is
mathematically impossible (any product of two trace-class letters is finite
at every level - see tateops.cubical), so that test is expected to FAIL and
is kept faithful rather than weakened.  The sharpness content that IS true
here - one-letter trace-class words with infinite support - passes in
criterion 9 and in test_cubical.py.
"""

import random
import time
from fractions import Fraction

import pytest

from dense_oracle import window_trace
from tateops import (QQ, PrimeField, QpEndo, TateOp, certificate, check_not_sliced,
                     commutator, cubical_membership, good_idempotents,
                     ideal_membership, is_fully_finite, level2_flip,
                     parse_laurent, qp_ideal_membership, residue,
                     residue_oracle, restrict_and_quotient, split_i,
                     stored_two_letter_pair, tate_cocycle, trace, trace_oracle,
                     word_factorization)
from tateops.cocycles import ad_block, block_cocycle, sl2
from tateops.random_ops import (random_laurent, random_op, random_op_level_n,
                                random_trace_class, random_trace_class_level_n)


def _report(number: int, ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {what}")


def test_criterion_1_residue_suite():
    start = time.time()
    ok = True
    try:
        for m in range(-12, 13):
            for n in range(-12, 13):
                f = parse_laurent(f"t^{m}")
                g = parse_laurent(f"t^{n}")
                got = residue(f, g)
                want = residue_oracle(f, g)
                assert got == want
                expected = QQ.from_int(n) if m + n == 0 else QQ.zero()
                assert got == expected
        rng = random.Random(101)
        for _ in range(200):
            f = random_laurent(rng, QQ, span=8)
            g = random_laurent(rng, QQ, span=8)
            assert residue(f, g) == residue_oracle(f, g)
        elapsed = time.time() - start
        assert elapsed < 10, f"residue suite took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        _report(1, ok, "residue equals oracle on the monomial grid and 200 "
                       "random pairs, exact, within 10 s")


def test_criterion_2_lie_cocycle_identity():
    start = time.time()
    ok = True
    try:
        rng = random.Random(102)
        nontrivial = 0
        for _ in range(100):
            a = random_op(rng, QQ)
            b = random_op(rng, QQ)
            d = random_op(rng, QQ)
            t1 = tate_cocycle(commutator(a, b), d)
            t2 = tate_cocycle(commutator(b, d), a)
            t3 = tate_cocycle(commutator(d, a), b)
            if not (t1.is_zero() and t2.is_zero() and t3.is_zero()):
                nontrivial += 1
            assert (t1 + t2 + t3).is_zero()
        assert nontrivial >= 10, "sampling degenerated to trivial triples"
        elapsed = time.time() - start
        assert elapsed < 30, f"cocycle identity suite took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        _report(2, ok, "Lie 2-cocycle identity exact on 100 random triples "
                       "within 30 s")


def test_criterion_3_trace_well_defined():
    ok = True
    try:
        rng = random.Random(103)
        nontrivial = 0
        for _ in range(200):
            a = random_trace_class(rng, QQ)
            value = trace(a)
            if not value.is_zero():
                nontrivial += 1
            assert value == trace_oracle(a, 24)
            mem = ideal_membership(a)
            base_n = min(mem.bounding_row or 0, mem.kill_column or 0, 0)
            base_np = mem.kill_column or 0
            for _ in range(5):
                n_m = base_n - rng.randint(0, 7)
                np_m = base_np + rng.randint(0, 7)
                certificate(a, n_m, np_m)
                assert window_trace(a, n_m, np_m) == value
            if mem.kill_column is not None:
                with pytest.raises(ValueError):
                    certificate(a, base_n, mem.kill_column - 1)
        assert nontrivial >= 20, "sampling degenerated to zero traces"
    except AssertionError:
        ok = False
        raise
    finally:
        _report(3, ok, "trace equals oracle and the induced window trace of 5 "
                       "random certified lattice enlargements, 200 operators, exact")


def test_criterion_4_trace_additivity():
    ok = True
    try:
        rng = random.Random(104)
        for _ in range(100):
            m = rng.randint(-3, 3)
            pp, pm = TateOp.proj_plus(m), TateOp.proj_minus(m)
            a = (pp * random_trace_class(rng, QQ) * pp
                 + pm * random_trace_class(rng, QQ) * pm
                 + pp * random_trace_class(rng, QQ) * pm)
            rq = restrict_and_quotient(a, m)
            assert rq.sub_ok
            assert trace(rq.restriction) + trace(rq.quotient) == trace(a)
    except AssertionError:
        ok = False
        raise
    finally:
        _report(4, ok, "trace additive over split sequences for 100 "
                       "constructed operators, exact")


def test_criterion_5_strong_vanishing():
    ok = True
    try:
        rng = random.Random(105)
        nontrivial = 0
        for _ in range(200):
            a = random_trace_class(rng, QQ)
            b = random_op(rng, QQ)
            if not trace(a * b).is_zero():
                nontrivial += 1
            assert trace(a * b - b * a).is_zero()
        assert nontrivial >= 20, "sampling degenerated to zero products"
        nontrivial = 0
        for _ in range(200):
            a = random_trace_class_level_n(rng, QQ, 2)
            b = random_op_level_n(rng, QQ, 2)
            if not trace(a * b).is_zero():
                nontrivial += 1
            assert trace(a * b - b * a).is_zero()
        assert nontrivial >= 5, "level-2 sampling degenerated to zero products"
    except AssertionError:
        ok = False
        raise
    finally:
        _report(5, ok, "trace of [trace-class, arbitrary] vanishes for 200 "
                       "pairs at levels 1 and 2, exact")


def test_criterion_6_sliced_decomposition():
    ok = True
    try:
        rng = random.Random(106)
        for _ in range(200):
            a = random_op(rng, QQ)
            plus, minus = split_i(a, 1)
            assert plus + minus == a
            assert ideal_membership(plus).bounded
            assert ideal_membership(minus).discrete
        for _ in range(200):
            a = random_op_level_n(rng, QQ, 2)
            for i in (1, 2):
                plus, minus = split_i(a, i)
                assert plus + minus == a
                assert cubical_membership(plus).in_plus[i - 1]
                assert cubical_membership(minus).in_minus[i - 1]
    except AssertionError:
        ok = False
        raise
    finally:
        _report(6, ok, "bounded/discrete splittings verified for 200 "
                       "operators at level 1 and level 2, every index, exact")


def test_criterion_7_good_idempotents():
    ok = True
    try:
        p1, p2 = good_idempotents(2, QQ)
        ident = TateOp.identity(2, QQ)
        assert p1 * p1 == p1 and p2 * p2 == p2
        assert p1 * p2 == p2 * p1
        rng = random.Random(107)
        for _ in range(100):
            x = random_op_level_n(rng, QQ, 2)
            for i, p in ((1, p1), (2, p2)):
                assert cubical_membership(p * x).in_plus[i - 1]
                assert cubical_membership((ident - p) * x).in_minus[i - 1]
    except AssertionError:
        ok = False
        raise
    finally:
        _report(7, ok, "good idempotents at n=2: idempotent, commuting, "
                       "P_i(+/-) X in I_i(+/-) for 100 samples, exact")


def test_criterion_8_factorization_positive():
    ok = True
    try:
        rng = random.Random(108)
        for _ in range(100):
            a = random_trace_class(rng, QQ)
            b = random_trace_class(rng, QQ)
            assert word_factorization([a, b]).finite_at_all_levels
        for _ in range(100):
            word = [random_trace_class_level_n(rng, QQ, 2) for _ in range(4)]
            assert word_factorization(word).finite_at_all_levels
    except AssertionError:
        ok = False
        raise
    finally:
        _report(8, ok, "products of 2 trace-class letters at level 1 and 4 at "
                       "level 2 normalize to finite, 100 samples each")


def test_criterion_8_two_letter_witness():
    """KNOWN RED.  In this operator class every product of two trace-class
    letters is finite at every level (the factors' line tails cancel and the
    entry products pair trace-class level-1 operators), so no stored
    two-letter witness can fail the finiteness check.  The assertion is kept
    faithful rather than weakened; the attainable sharpness content - a
    one-letter trace-class word with infinite support - passes in
    criterion 9."""
    ok = False
    try:
        w1, w2 = stored_two_letter_pair(QQ)
        assert cubical_membership(w1).trace_class
        assert cubical_membership(w2).trace_class
        result = word_factorization([w1, w2])
        assert not result.product.is_zero()
        assert not result.finite_at_all_levels, (
            "impossible in this class: the two-letter trace-class product is "
            "finite at all levels")
        ok = True
    finally:
        _report(8, ok, "stored level-2 two-letter witness fails the "
                       "finiteness check")


def test_criterion_9_counterexample_suite():
    ok = True
    try:
        flip = TateOp.ind_to_pro_flip(QQ)
        mem = ideal_membership(flip)
        assert mem.trace_class
        assert flip.lines, "flip has infinite support"
        assert (flip * flip).is_zero()
        phi = level2_flip(QQ)
        assert cubical_membership(phi).trace_class
        assert not is_fully_finite(phi)
        for p in (2, 3, 5):
            assert check_not_sliced(p) is True
            assert not qp_ideal_membership(QpEndo(Fraction(1, p), p)).bounded
        for p in (2, 5):
            field = PrimeField(p)
            rng = random.Random(109 + p)
            for _ in range(100):
                a = random_op(rng, field)
                plus, minus = split_i(a, 1)
                assert plus + minus == a
                assert ideal_membership(plus).bounded
                assert ideal_membership(minus).discrete
    except AssertionError:
        ok = False
        raise
    finally:
        _report(9, ok, "flip is trace-class with infinite support and "
                       "square zero; Q_p model is not sliced for p=2,3,5; "
                       "F_p((t)) splits for p=2,5")


def test_criterion_10_kac_moody_pattern():
    start = time.time()
    ok = True
    try:
        lie = sl2(QQ)
        labels = lie.labels
        ads = {(x, m): ad_block(x, m, lie)
               for x in labels for m in range(-6, 7)}
        # measure K on the m = 1 stratum
        kform = {(x, y): block_cocycle(ads[(x, 1)], ads[(y, -1)])
                 for x in labels for y in labels}
        assert kform[("e", "f")] == QQ.from_int(4)
        for x in labels:
            for y in labels:
                assert kform[(x, y)] == kform[(y, x)], "K symmetric"
        # invariance K([z,x],y) + K(x,[z,y]) = 0 via structure constants
        for zi in range(3):
            for xi in range(3):
                for yi in range(3):
                    lhs = QQ.zero()
                    for k in range(3):
                        c = lie.bracket_coeff(zi, xi, k)
                        if not c.is_zero():
                            lhs = lhs + c * kform[(labels[k], labels[yi])]
                        c = lie.bracket_coeff(zi, yi, k)
                        if not c.is_zero():
                            lhs = lhs + c * kform[(labels[xi], labels[k])]
                    assert lhs.is_zero(), "K invariant"
        for x in labels:
            for y in labels:
                for m in range(-6, 7):
                    for n in range(-6, 7):
                        val = block_cocycle(ads[(x, m)], ads[(y, n)])
                        if m + n != 0:
                            assert val.is_zero()
                        else:
                            assert val == kform[(x, y)].times_int(m)
        elapsed = time.time() - start
        assert elapsed < 60, f"Kac-Moody suite took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        _report(10, ok, "block cocycle equals K(x,y)*m*delta(m+n) on the "
                        "sl2 grid |m|,|n| <= 6; K symmetric, invariant, "
                        "K(e,f) = 4 != 0; within 60 s")
