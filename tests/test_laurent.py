"""Laurent polynomial ring laws, derivative, coefficient access, parsing."""

import random
import time

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


@given(pairs, pairs, st.sampled_from([QQ, PrimeField(5)]))
@settings(max_examples=60)
def test_subtraction_stores_what_adding_the_negation_stores(a, b, field):
    f, g = laurent_from_pairs(field, a), laurent_from_pairs(field, b)
    for x, y in ((f, g), (g, f), (f, f), (f, -f), (f, f + g)):
        assert list((x - y).items()) == list((x + (-y)).items())


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
    # repeated exponents add up, and terms that cancel leave nothing behind
    assert parse_laurent("t - t").is_zero() and parse_laurent("0*t^3").is_zero()
    assert parse_laurent("t^2 + 1/2*t^2 - 1 + t - 3/2*t^2") == parse_laurent("t - 1")
    g = parse_laurent("3*t + 2*t + 4", PrimeField(5))
    assert g.support() == [0] and g.coeff(0) == PrimeField(5).from_int(4)


def test_parse_cost_is_linear_in_terms():
    # each term goes into one coefficient table; adding term by term copied
    # the whole polynomial each time (8000 terms took ~26 s)
    text = " + ".join(f"{k}*t^{k - 10000}" for k in range(1, 20001))
    start = time.perf_counter()
    f = parse_laurent(text)
    assert time.perf_counter() - start < 2.0
    assert len(f.support()) == 20000
    assert f.coeff(-9999) == QQ.one() and f.coeff(10000) == QQ.from_int(20000)


def test_parse_rejects_garbage():
    for bad in ["", "t^", "3**t", "1 + + 2", "x^2", "1/0*t"]:
        with pytest.raises((LaurentParseError, ZeroDivisionError)):
            parse_laurent(bad)


def test_random_round_trip_text():
    rng = random.Random(3)
    for _ in range(100):
        f = random_laurent(rng, QQ)
        assert parse_laurent(str(f)) == f


def test_exponents_must_be_integers():
    # 1.5 is not truncated to 1, where True would then overwrite it
    with pytest.raises(TypeError):
        LaurentPoly(QQ, {1.5: QQ.one(), True: QQ.from_int(2)})
    with pytest.raises(TypeError):
        LaurentPoly(QQ, {2.0: QQ.zero()})
    assert LaurentPoly(QQ, {True: QQ.one()}) == parse_laurent("t")


def test_coefficients_must_be_scalars():
    with pytest.raises(TypeError, match="expected Scalar, got int"):
        LaurentPoly(QQ, {1: 3})
    with pytest.raises(TypeError, match="got Fraction"):
        LaurentPoly(QQ, {0: QQ.one().value})


def test_arith_dispatch():
    f, g = parse_laurent("t"), parse_laurent("t^2")
    assert f * g == parse_laurent("t^3")
    assert f - g == parse_laurent("t - t^2")
