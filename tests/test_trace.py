"""Trace via lattice factorization: examples, independence, vanishing, additivity."""

import random

import pytest

from tateops import (ANTI, EvSeq, InsufficientWindowError, NotTraceClassError,
                     PrimeField, QQ, TateOp, certificate, ideal_membership,
                     parse_laurent, restrict_and_quotient, trace, trace_oracle)
from tateops.random_ops import random_op, random_trace_class, random_trace_class_level2

from dense_oracle import dense_compose, dense_mul, dense_proj_plus, dense_trace


def test_trace_examples():
    assert trace(TateOp.zero()).is_zero()
    assert trace(TateOp.from_finite(QQ, {(0, 0): QQ.one()})) == QQ.one()
    halfline = TateOp.from_line(QQ, ANTI, 0, EvSeq.step(QQ.one(), QQ.zero(), 1))
    # window-sum oracle over [-12, 12] agrees: the single crossing is at (0, 0)
    assert trace_oracle(halfline, 12) == QQ.one()
    assert trace(halfline) == QQ.one()


def test_trace_requires_trace_class():
    with pytest.raises(NotTraceClassError):
        trace(TateOp.identity())
    with pytest.raises(NotTraceClassError):
        trace(TateOp.proj_plus(0))
    with pytest.raises(NotTraceClassError):
        trace_oracle(TateOp.identity(), 10)


def test_oracle_window_validation():
    far = TateOp.from_finite(QQ, {(9, 9): QQ.one()})
    with pytest.raises(InsufficientWindowError):
        trace_oracle(far, 5)
    assert trace_oracle(far, 9) == QQ.one()
    assert trace_oracle(TateOp.zero(), 1).is_zero()


def test_corner_product_trace_frozen():
    # dense derivation of the value -1 for [P+, t^-1] t, feeding the sign choice
    field = QQ
    W = 20
    m = dense_mul(parse_laurent("t^-1"), W)
    p = dense_proj_plus(field, 0, W)
    t = dense_mul(parse_laurent("t"), W)
    comm = dict(dense_compose(p, m, field))
    for cell, v in dense_compose(m, p, field).items():
        comm[cell] = comm.get(cell, field.zero()) - v
    comm = {c: v for c, v in comm.items() if not v.is_zero()}
    prod = dense_compose(comm, t, field)
    assert dense_trace(prod, field) == -field.one()
    engine = (TateOp.proj_plus(0) * TateOp.mul(parse_laurent("t^-1"))
              - TateOp.mul(parse_laurent("t^-1")) * TateOp.proj_plus(0))
    assert trace_oracle(engine * TateOp.mul(parse_laurent("t")), 12) == -QQ.one()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_trace_matches_oracle_and_lattice_independence(field):
    rng = random.Random(2024)
    for _ in range(200):
        a = random_trace_class(rng, field)
        value = trace(a)
        assert value == trace_oracle(a, 24)
        mem = ideal_membership(a)
        base_n = min(mem.bounding_row or 0, mem.kill_column or 0, 0)
        base_np = mem.kill_column or 0
        for _ in range(5):
            n_m = base_n - rng.randint(0, 6)
            np_m = base_np + rng.randint(0, 6)
            assert trace(a, n_m, np_m) == value


def test_certificate_contents():
    a = TateOp.from_finite(QQ, {(2, 2): QQ.from_int(3), (-1, -1): QQ.one()})
    cert = certificate(a)
    assert cert.N.m == min(-1, 3, 0)
    assert cert.N_prime.m == 3
    assert cert.window_size() == cert.N_prime.m - cert.N.m
    with pytest.raises(ValueError):
        certificate(a, n_m=0)  # does not contain the image row -1
    with pytest.raises(ValueError):
        certificate(a, n_prime_m=1)  # does not kill column 2
    assert cert.window_matrix == a.window_matrix(-1, 3, -1, 3)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_certificate_window_diagonal_matches_trace(field):
    # trace reads only the diagonal cells the geometry allows; the dense
    # window of the induced map on N/N' must still sum to the same value
    rng = random.Random(2025)
    for _ in range(150):
        a = random_trace_class(rng, field)
        base = certificate(a)
        n_m = base.N.m - rng.randint(0, 6)
        np_m = base.N_prime.m + rng.randint(0, 6)
        matrix = certificate(a, n_m, np_m).window_matrix
        total = field.zero()
        for k in range(np_m - n_m):
            total = total + matrix[k][k]
        assert total == trace(a) == trace_oracle(a, 24)


def test_commutator_vanishing_within_trace_class():
    rng = random.Random(31)
    for _ in range(200):
        f = random_trace_class(rng, QQ)
        g = random_trace_class(rng, QQ)
        assert trace(f * g - g * f).is_zero()


def test_strong_vanishing_level1():
    rng = random.Random(32)
    for _ in range(200):
        a = random_trace_class(rng, QQ)
        b = random_op(rng, QQ)
        assert trace(a * b - b * a).is_zero()


def test_restrict_and_quotient_examples():
    a = TateOp.from_finite(QQ, {(0, 0): QQ.one(), (-1, -1): QQ.from_int(2)})
    rq = restrict_and_quotient(a, 0)
    assert rq.sub_ok
    assert trace(rq.restriction) == QQ.one()
    assert trace(rq.quotient) == QQ.from_int(2)
    assert trace(rq.restriction) + trace(rq.quotient) == trace(a)

    bad = restrict_and_quotient(TateOp.mul(parse_laurent("t^-1")), 0)
    assert not bad.sub_ok

    assert restrict_and_quotient(TateOp.mul(parse_laurent("t")), 0).sub_ok


def _factoring_op(rng, m):
    """A random trace-class operator with a(t^m O) inside t^m O."""
    pp = TateOp.proj_plus(m)
    pm = TateOp.proj_minus(m)
    x = random_trace_class(rng, QQ)
    y = random_trace_class(rng, QQ)
    z = random_trace_class(rng, QQ)
    return pp * x * pp + pm * y * pm + pp * z * pm


def test_trace_additivity_over_split_sequences():
    rng = random.Random(88)
    for _ in range(100):
        m = rng.randint(-3, 3)
        a = _factoring_op(rng, m)
        rq = restrict_and_quotient(a, m)
        assert rq.sub_ok
        assert trace(rq.restriction) + trace(rq.quotient) == trace(a)
    # straddling example: support on both sides of the cut
    a = TateOp.proj_plus(0) * TateOp.from_finite(
        QQ, {(1, 1): QQ.from_int(4), (-2, -2): QQ.one(), (1, -2): QQ.from_int(7)})
    rq = restrict_and_quotient(a, 0)
    assert rq.sub_ok
    assert trace(rq.restriction) + trace(rq.quotient) == trace(a)


def test_flip_trace_is_zero():
    flip = TateOp.ind_to_pro_flip()
    # odd anti-diagonal: no crossing cells at all
    assert trace(flip).is_zero()
    assert trace_oracle(flip, 8).is_zero()


def test_trace_forwards_overrides_at_level_two():
    from tateops import trace_n
    rank_one = TateOp(2, QQ, corr={(0, 0): TateOp.from_finite(QQ, {(0, 0): QQ.one()})})
    for fn in (trace, trace_n):
        with pytest.raises(ValueError):
            fn(rank_one, 10**9, -10**9)
        assert fn(rank_one, -3, 4) == QQ.one()
    # N = t^1 O holds the image (row 5) and N' = t^3 O is killed (column 2):
    # the pair certifies at level 1 and at level 2 alike
    cell = TateOp.from_finite(QQ, {(5, 2): QQ.one()})
    assert trace(cell, 1).is_zero()
    outer = TateOp(2, QQ, corr={(5, 2): TateOp.from_finite(QQ, {(0, 0): QQ.one()})})
    for fn in (trace, trace_n):
        assert fn(outer, 1).is_zero()
        assert fn(outer, 1, 3).is_zero()
    rng = random.Random(12)
    for _ in range(20):
        a = random_trace_class_level2(rng, QQ)
        row, kill = a.bounding_row(), a.kill_column()
        hi = (kill if kill is not None else 0) + rng.randint(0, 3)
        lo = (hi if row is None else min(row, hi)) - rng.randint(0, 3)
        assert trace(a, lo, hi) == trace_n(a, lo, hi) == trace(a)
        # overrides are accepted exactly when certificate accepts them
        for n_m in range(lo - 1, hi + 3):
            for n_prime_m in range(hi - 2, hi + 2):
                try:
                    certificate(a, n_m, n_prime_m)
                except ValueError:
                    with pytest.raises(ValueError):
                        trace(a, n_m, n_prime_m)
                else:
                    assert trace(a, n_m, n_prime_m) == trace(a)
