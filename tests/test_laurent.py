"""Laurent polynomial ring laws, derivative, coefficient access, parsing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import laurent_from_pairs
from tateops import LaurentParseError, LaurentPoly, PrimeField, QQ, parse_laurent
from tateops.random_ops import random_laurent

pairs = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-9, 9)), min_size=0, max_size=6)


def poly(ps):
    return laurent_from_pairs(QQ, ps)


@given(pairs, pairs, pairs)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    f, g, h = poly(a), poly(b), poly(c)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == LaurentPoly.zero(QQ)


@given(pairs, pairs)
@settings(max_examples=60)
def test_leibniz_rule(a, b):
    f, g = poly(a), poly(b)
    assert (f * g).derivative() == f * g.derivative() + g * f.derivative()


@given(pairs, pairs)
@settings(max_examples=60)
def test_convolution_against_brute_force(a, b):
    f, g = poly(a), poly(b)
    prod = f * g
    for n in range(-20, 21):
        acc = QQ.zero()
        for k in range(-16, 17):
            acc = acc + f.coeff(k) * g.coeff(n - k)
        assert prod.coeff(n) == acc


def test_worked_examples():
    f = parse_laurent("t^-1 + 1")
    g = parse_laurent("t - 1")
    assert f * g == parse_laurent("t - t^-1")
    assert parse_laurent("t^-2") * parse_laurent("t^3") == parse_laurent("t")
    assert parse_laurent("t^3").derivative() == parse_laurent("3*t^2")
    assert parse_laurent("1").derivative().is_zero()
    assert parse_laurent("t^-1").derivative() == parse_laurent("-t^-2")
    h = parse_laurent("t^-1 + 2*t")
    assert h.coeff(-1) == QQ.one()
    assert LaurentPoly.zero(QQ).coeff(7).is_zero()
    assert parse_laurent("3*t^5").coeff(5) == QQ.from_int(3)


def test_derivative_in_characteristic_p():
    f3 = PrimeField(3)
    f = laurent_from_pairs(f3, [(3, 1), (1, 2)])
    d = f.derivative()
    assert d.coeff(2).is_zero()  # 3 reduces to 0 mod 3
    assert d.coeff(0) == f3.from_int(2)


def test_parse_round_trip_and_whitespace():
    text = "3*t^-2 + 1/2 - t^5"
    f = parse_laurent(text)
    assert f.coeff(-2) == QQ.from_int(3)
    assert f.coeff(0) == QQ.from_fraction(1, 2)
    assert f.coeff(5) == QQ.from_int(-1)
    assert parse_laurent("3 * t ^ -2+1/2-t^5") == f
    assert parse_laurent(str(f)) == f
    assert parse_laurent("0").is_zero()


def test_parse_rejects_garbage():
    for bad in ["", "t^", "3**t", "1 + + 2", "x^2", "1/0*t"]:
        with pytest.raises((LaurentParseError, ZeroDivisionError)):
            parse_laurent(bad)


def test_random_round_trip_text():
    rng = random.Random(3)
    for _ in range(100):
        f = random_laurent(rng, QQ)
        assert parse_laurent(str(f)) == f


def test_arith_dispatch():
    f, g = parse_laurent("t"), parse_laurent("t^2")
    assert f * g == parse_laurent("t^3")
    assert f - g == parse_laurent("t - t^2")
