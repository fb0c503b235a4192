"""The p-adic non-sliced model versus the sliced Laurent model over F_p."""

import random
from fractions import Fraction

import pytest

from tateops import (NotPAdicError, PrimeField, QpEndo, check_not_sliced,
                     ideal_membership, qp_ideal_membership, split_i)
from tateops.counterexamples import NotPrimeError
from tateops.random_ops import random_op


def test_qp_flags():
    for p in (2, 3, 5):
        assert qp_ideal_membership(QpEndo(Fraction(0), p)) \
            .bounded
        zero = qp_ideal_membership(QpEndo(Fraction(0), p))
        assert zero.bounded and zero.discrete
        one = qp_ideal_membership(QpEndo(Fraction(1), p))
        assert not one.bounded and not one.discrete
        inv = qp_ideal_membership(QpEndo(Fraction(1, p), p))
        assert not inv.bounded and not inv.discrete


def test_qp_validation():
    with pytest.raises(NotPAdicError):
        QpEndo(Fraction(1, 3), 2)
    QpEndo(Fraction(7, 8), 2)
    QpEndo(Fraction(-5, 9), 3)
    with pytest.raises(NotPrimeError):
        QpEndo(Fraction(1), 4)


def test_ideal_consistency_under_composition():
    rng = random.Random(0)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        num = rng.randint(-20, 20)
        q1 = QpEndo(Fraction(num, p ** rng.randint(0, 3)), p)
        q2 = QpEndo(Fraction(rng.randint(-20, 20)), p)
        composed = QpEndo(q1.q * q2.q, p)
        flags = qp_ideal_membership(composed)
        if qp_ideal_membership(q1).bounded or qp_ideal_membership(q2).bounded:
            assert flags.bounded and flags.discrete  # ideal is {0}: products stay 0
        if composed.q != 0:
            assert not flags.bounded and not flags.discrete


def test_check_not_sliced():
    for p in (2, 3, 5):
        assert check_not_sliced(p) is True


def test_fp_laurent_model_is_sliced():
    # contrast: F_p((t)) splits as bounded + discrete via the projections
    for p in (2, 5):
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(100):
            a = random_op(rng, field)
            plus, minus = split_i(a, 1)
            assert plus + minus == a
            assert ideal_membership(plus).bounded
            assert ideal_membership(minus).discrete
