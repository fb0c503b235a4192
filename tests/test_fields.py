"""Field axioms and scalar behaviour, exactly."""

import pytest
from hypothesis import given, strategies as st

from tateops import FieldMismatchError, NotPrimeError, PrimeField, QQ, RationalField

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)


def q(x):
    return QQ.from_fraction(x.numerator, x.denominator)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    sa, sb, sc = q(a), q(b), q(c)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa + sb == sb + sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + QQ.zero() == sa
    assert sa * QQ.one() == sa
    assert sa + (-sa) == QQ.zero()
    if not sb.is_zero():
        assert (sa / sb) * sb == sa


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(11)
    sa, sb, sc = f.from_int(a), f.from_int(b), f.from_int(c)
    assert (sa + sb) * sc == sa * sc + sb * sc
    assert sa - sa == f.zero()
    if not sb.is_zero():
        assert (sa / sb) * sb == sa


def test_worked_examples():
    half, third = QQ.from_fraction(1, 2), QQ.from_fraction(1, 3)
    assert half + third == QQ.from_fraction(5, 6)
    f5 = PrimeField(5)
    assert f5.from_int(3) * f5.from_int(4) == f5.from_int(2)
    a = QQ.from_fraction(-7, 3)
    assert a + QQ.zero() == a


def test_canonical_form():
    s = QQ.from_fraction(4, -6)
    assert s.value.numerator == -2 and s.value.denominator == 3
    assert str(QQ.from_fraction(0, 5)) == "0"
    assert str(PrimeField(7).from_int(12)) == "5 mod 7"


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**61 - 1)],
                         ids=["QQ", "GF5", "GF(2^61-1)"])
def test_zero_and_one_are_shared_per_field(field):
    assert field.zero() is field.zero()
    assert field.one() is field.one()
    assert field.zero() == field.from_int(0) and field.zero().is_zero()
    assert field.one() == field.from_int(1)
    # adding the shared zero returns the other operand; any other sum is a new
    # scalar, and the shared constants stay as they were
    total = field.zero() + field.one()
    total = total + field.one()
    assert total is not field.zero() and total is not field.one()
    assert field.zero().is_zero() and field.one() == field.from_int(1)
    # one instance per field, so equality is identity and fields key dicts
    again = RationalField() if field is QQ else PrimeField(field.p)
    assert (again is field and RationalField() is QQ and PrimeField(5) is PrimeField(5)
            and QQ != PrimeField(5) != PrimeField(7) != QQ
            and len({QQ: 0, PrimeField(5): 5, PrimeField(7): 7}) == 3
            and {QQ: 0, PrimeField(5): 5, PrimeField(7): 7, field: 1}[again] == 1)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**61 - 1)],
                         ids=["QQ", "GF5", "GF(2^61-1)"])
def test_negated_shared_zero_is_the_shared_zero(field):
    assert -field.zero() is field.zero()
    # any other zero, and every nonzero scalar, negates to a new scalar
    other_zero, x = field.from_int(0), field.from_int(3)
    assert -other_zero is not other_zero and -other_zero == field.zero()
    assert str(-field.zero()) == str(field.zero()) == str(-other_zero)
    assert -x is not x and -x + x == field.zero()


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**61 - 1)],
                         ids=["QQ", "GF5", "GF(2^61-1)"])
def test_shared_zero_returns_the_other_operand(field):
    zero = field.zero()
    for x in (field.from_int(3), field.from_fraction(-2, 7), field.from_int(0), zero):
        assert x + zero is x
        assert zero + x is x
        assert x - zero is x
    # a zero that is not the shared one still adds to a new, equal scalar
    x, other_zero = field.from_int(3), field.from_int(0)
    assert other_zero is not zero and x + other_zero == x
    # the operands are still checked first
    with pytest.raises(FieldMismatchError):
        QQ.zero() + PrimeField(5).one()
    with pytest.raises(FieldMismatchError):
        PrimeField(5).one() - QQ.zero()
    with pytest.raises(FieldMismatchError):
        zero + (PrimeField(7) if field is QQ else QQ).one()
    with pytest.raises(TypeError):
        zero + 1
    with pytest.raises(TypeError):
        field.one() - 0


def test_field_mismatch_and_prime_validation():
    with pytest.raises(FieldMismatchError):
        QQ.one() + PrimeField(5).one()
    with pytest.raises(NotPrimeError):
        PrimeField(6)
    with pytest.raises(NotPrimeError):
        PrimeField(1)
    with pytest.raises(ZeroDivisionError):
        QQ.one() / QQ.zero()


def test_arith_dispatch():
    a, b = QQ.from_int(7), QQ.from_int(2)
    assert a - b == QQ.from_int(5)
    assert a / b == QQ.from_fraction(7, 2)


def test_times_int_reduces_mod_p():
    f3 = PrimeField(3)
    assert f3.one().times_int(6).is_zero()
    assert f3.one().times_int(-1) == f3.from_int(2)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division():
    from tateops.fields import _is_prime
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]


def test_primality_large_moduli():
    from tateops.fields import MILLER_RABIN_BOUND
    mersenne = 2 ** 61 - 1
    assert PrimeField(mersenne).from_int(mersenne + 3).value == 3
    # strong pseudoprimes to the prime bases 2..7 and 2..31: only the later
    # bases expose them
    for composite in (3215031751, 3825123056546413051):
        with pytest.raises(NotPrimeError):
            PrimeField(composite)
    with pytest.raises(NotPrimeError, match=str(MILLER_RABIN_BOUND)):
        PrimeField(MILLER_RABIN_BOUND + 2)
