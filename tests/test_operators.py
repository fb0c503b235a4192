"""Level-1 operator algebra: construction, composition, ideals, factorization.

Engine results are checked against the dense oracle in dense_oracle.py,
which builds matrices straight from the defining formulas.
"""

import random

import pytest

from tateops import (ANTI, DIAG, EvSeq, InvalidOperatorError,
                     MalformedSequenceError, PrimeField, QQ, StandardLattice,
                     TateOp, commutator, double_lattice_factorization,
                     ideal_membership, parse_laurent,
                     split_plus_minus)
from tateops.fields import FieldMismatchError
from tateops.operators import LevelMismatchError
from tateops.random_ops import (random_laurent, random_op, random_scalar,
                                random_trace_class)

from dense_oracle import (assert_matches, dense_add, dense_compose,
                          dense_finite, dense_flip, dense_mul,
                          dense_proj_minus, dense_proj_plus, dense_shift)

WIDTH = 24


def _random_primitive(rng, field):
    kind = rng.choice(["mul", "shift", "proj_plus", "proj_minus", "finite", "flip"])
    if kind == "mul":
        f = random_laurent(rng, field, span=3, max_terms=3)
        return TateOp.mul(f), dense_mul(f, WIDTH)
    if kind == "shift":
        k = rng.randint(-3, 3)
        return TateOp.shift(k, 1, field), dense_shift(field, k, WIDTH)
    if kind == "proj_plus":
        m = rng.randint(-3, 3)
        return TateOp.proj_plus(m, 1, field), dense_proj_plus(field, m, WIDTH)
    if kind == "proj_minus":
        m = rng.randint(-3, 3)
        return TateOp.proj_minus(m, 1, field), dense_proj_minus(field, m, WIDTH)
    if kind == "finite":
        cells = {(rng.randint(-3, 3), rng.randint(-3, 3)): random_scalar(rng, field)
                 for _ in range(rng.randint(1, 3))}
        return TateOp.from_finite(field, cells), dense_finite(cells)
    return TateOp.ind_to_pro_flip(field), dense_flip(field, WIDTH)


def test_make_examples():
    p = TateOp.proj_plus(0)
    assert p.entry(3, 3) == QQ.one()
    assert p.entry(-1, -1).is_zero()
    m2 = TateOp.mul(parse_laurent("t^2"))
    assert list(m2.lines) == [(DIAG, 2)]
    assert m2.lines[(DIAG, 2)] == EvSeq.constant(QQ.one())
    flip = TateOp.ind_to_pro_flip()
    assert flip.apply(parse_laurent("t^-3")) == parse_laurent("t^2")
    assert TateOp.zero().is_zero()
    assert TateOp.identity() * flip == flip


def test_composition_against_dense_oracle():
    rng = random.Random(100)
    for _ in range(150):
        field = PrimeField(7) if rng.random() < 0.3 else QQ
        a, da = _random_primitive(rng, field)
        b, db = _random_primitive(rng, field)
        c, dc = _random_primitive(rng, field)
        ab = a * b
        # entries of a*b within the safe window agree with dense matmul
        assert_matches(ab, dense_compose(da, db, field), WIDTH, margin=12)
        s = ab + c
        assert_matches(s, dense_add(dense_compose(da, db, field), dc, field),
                       WIDTH, margin=12)


def test_composition_rules_offsets():
    # Diag(d1) Diag(d2) -> Diag(d1+d2); Anti(c1) Anti(c2) -> Diag(c1-c2);
    # Diag(d) Anti(c) -> Anti(c+d); Anti(c) Diag(d) -> Anti(c-d)
    d1, d2 = TateOp.shift(2), TateOp.shift(-1)
    assert list((d1 * d2).lines) == [(DIAG, 1)]
    flip = TateOp.ind_to_pro_flip()
    da = TateOp.shift(3) * flip
    assert list(da.lines) == [(ANTI, 2)]
    ad = flip * TateOp.shift(3)
    assert list(ad.lines) == [(ANTI, -4)]
    f2 = TateOp.from_line(QQ, ANTI, 4, EvSeq.step(QQ.one(), QQ.zero(), 3))
    aa = f2 * flip
    assert all(orient == DIAG for (orient, _) in aa.lines)


def test_mul_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        f = random_laurent(rng, QQ, span=4)
        g = random_laurent(rng, QQ, span=4)
        lhs = TateOp.mul(f) * TateOp.mul(g)
        rhs = TateOp.mul(f * g)
        assert lhs == rhs
        assert lhs.window_matrix(-16, 17, -16, 17) == rhs.window_matrix(-16, 17, -16, 17)


def test_proj_idempotent_and_split_identity():
    p = TateOp.proj_plus(0)
    assert p * p == p
    plus, minus = split_plus_minus(TateOp.identity())
    assert plus == TateOp.proj_plus(0)
    assert minus == TateOp.proj_minus(0)
    z_plus, z_minus = split_plus_minus(TateOp.zero())
    assert z_plus.is_zero() and z_minus.is_zero()


def test_commutator_example_frozen():
    # dense oracle: (P+ M - M P+) has the single cell (-1, 0) -> -1
    field = QQ
    dense = dense_add(
        dense_compose(dense_proj_plus(field, 0, WIDTH),
                      dense_mul(parse_laurent("t^-1"), WIDTH), field),
        {c: -v for c, v in dense_compose(dense_mul(parse_laurent("t^-1"), WIDTH),
                                         dense_proj_plus(field, 0, WIDTH),
                                         field).items()},
        field)
    assert dense == {(-1, 0): -field.one()}
    c = commutator(TateOp.proj_plus(0), TateOp.mul(parse_laurent("t^-1")))
    assert not c.lines
    assert c.corr == {(-1, 0): -QQ.one()}


def test_apply_examples_and_linearity():
    flip = TateOp.ind_to_pro_flip()
    assert flip.apply(parse_laurent("t^-1 + t")) == parse_laurent("1")
    p = TateOp.proj_plus(0)
    assert p.apply(parse_laurent("t^-2 + 5*t^3")) == parse_laurent("5*t^3")
    ident = TateOp.identity()
    rng = random.Random(11)
    for _ in range(100):
        a = random_op(rng, QQ)
        v = random_laurent(rng, QQ)
        w = random_laurent(rng, QQ)
        assert a.apply(v + w) == a.apply(v) + a.apply(w)
        assert ident.apply(v) == v


def test_ideal_membership_examples():
    mem = ideal_membership(TateOp.proj_plus(0))
    assert mem.bounded and not mem.discrete
    assert mem.bounding_row == 0 and mem.kill_column is None
    mem = ideal_membership(TateOp.identity())
    assert not mem.bounded and not mem.discrete
    mem = ideal_membership(TateOp.ind_to_pro_flip())
    assert mem.trace_class
    assert mem.bounding_row == 0 and mem.kill_column == 0
    mem = ideal_membership(TateOp.zero())
    assert mem.trace_class and mem.bounding_row is None and mem.kill_column is None


def test_certifying_indices_do_certify():
    rng = random.Random(21)
    for _ in range(200):
        a = random_op(rng, QQ)
        mem = ideal_membership(a)
        if mem.bounded and mem.bounding_row is not None:
            for j in range(-8, 9):
                for i in a.column_support(j):
                    assert i >= mem.bounding_row
        if mem.discrete and mem.kill_column is not None:
            for j in range(mem.kill_column, mem.kill_column + 8):
                assert a.column_support(j) == []


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_ideal_laws(field):
    rng = random.Random(42)
    for _ in range(200):
        tc = random_trace_class(rng, field)
        b = random_op(rng, field)
        for prod in (tc * b, b * tc):
            mem = ideal_membership(prod)
            assert mem.trace_class
        plus, minus = split_plus_minus(b)
        assert ideal_membership(plus * b).bounded
        assert ideal_membership(b * minus if False else minus * b).discrete
        tc2 = random_trace_class(rng, field)
        assert ideal_membership(tc + tc2).trace_class
        assert ideal_membership(tc - tc2).trace_class


def test_bounded_discrete_two_sided_laws():
    rng = random.Random(43)
    for _ in range(200):
        a = random_op(rng, QQ)
        plus, minus = split_plus_minus(a)
        b = random_op(rng, QQ)
        assert ideal_membership(plus * b).bounded
        assert ideal_membership(b * plus).bounded
        assert ideal_membership(minus * b).discrete
        assert ideal_membership(b * minus).discrete


def test_ind_to_pro_factorization_products_finite():
    rng = random.Random(77)
    for _ in range(200):
        a = random_trace_class(rng, QQ)
        b = random_trace_class(rng, QQ)
        prod = a * b
        assert not prod.lines, "product of two trace-class operators has finite support"
    flip = TateOp.ind_to_pro_flip()
    assert (flip * flip).is_zero()
    # single trace-class letters can have infinite support
    assert flip.lines and ideal_membership(flip).trace_class


def test_split_plus_minus_properties():
    rng = random.Random(9)
    for _ in range(200):
        a = random_op(rng, QQ)
        plus, minus = split_plus_minus(a)
        assert plus + minus == a
        assert ideal_membership(plus).bounded
        assert ideal_membership(minus).discrete
    a = TateOp.mul(parse_laurent("t^-1"))
    plus, minus = split_plus_minus(a)
    assert ideal_membership(plus).bounded and ideal_membership(minus).discrete
    assert plus + minus == a


def test_split_at_other_lattice_indices():
    # any m gives a valid bounded/discrete splitting
    rng = random.Random(10)
    for m in (-3, 1, 4):
        p = TateOp.proj_plus(m)
        q = TateOp.proj_minus(m)
        for _ in range(50):
            a = random_op(rng, QQ)
            assert ideal_membership(p * a).bounded
            assert ideal_membership(q * a).discrete
            assert p * a + q * a == a


def test_semantic_equality_across_presentations():
    # an anti window cell equals the same cell as a correction
    lhs = TateOp.from_line(QQ, ANTI, 0,
                           EvSeq.of(QQ.zero(), QQ.zero(), 0, [QQ.from_int(5)]))
    rhs = TateOp.from_finite(QQ, {(0, 0): QQ.from_int(5)})
    assert lhs == rhs
    # correction on a diagonal line folds into its window
    ident_plus = TateOp.identity() + TateOp.from_finite(QQ, {(2, 2): QQ.from_int(3)})
    direct = TateOp.from_line(
        QQ, DIAG, 0, EvSeq.of(QQ.one(), QQ.one(), 2, [QQ.from_int(4)]))
    assert ident_plus == direct
    assert ident_plus != TateOp.identity()


def test_evseq_canonicalization_and_errors():
    with pytest.raises(MalformedSequenceError):
        EvSeq(QQ.one(), QQ.zero(), 0, [QQ.one()])
    with pytest.raises(MalformedSequenceError):
        EvSeq(QQ.zero(), QQ.one(), 0, [QQ.zero(), QQ.one()])
    seq = EvSeq.of(QQ.one(), QQ.zero(), 0, [QQ.one(), QQ.one(), QQ.from_int(2)])
    assert seq.window_start == 2 and list(seq.window) == [QQ.from_int(2)]
    const = EvSeq.of(QQ.one(), QQ.one(), 5, [])
    assert const.window_start == 0


def test_invalid_operator_rejected():
    with pytest.raises(InvalidOperatorError):
        TateOp.from_line(QQ, ANTI, 0, EvSeq.constant(QQ.one()))
    with pytest.raises(InvalidOperatorError):
        TateOp.from_line(QQ, ANTI, 2, EvSeq.step(QQ.zero(), QQ.one(), 0))


def test_init_rejects_unknown_orientation_and_non_integer_coordinates():
    with pytest.raises(ValueError, match="orientation"):
        TateOp(1, QQ, {("diagonal", 0): EvSeq.constant(QQ.one())})
    with pytest.raises(TypeError):
        TateOp(1, QQ, {(DIAG, 1.5): EvSeq.constant(QQ.one())})
    with pytest.raises(TypeError):
        TateOp.from_finite(QQ, {(0.7, 0): QQ.one()})
    with pytest.raises(TypeError):
        TateOp.from_finite(QQ, {(0, 0.7): QQ.one()})


def test_mixing_errors():
    with pytest.raises(FieldMismatchError):
        TateOp.identity(1, QQ) + TateOp.identity(1, PrimeField(5))
    with pytest.raises(LevelMismatchError):
        TateOp.identity(1, QQ) * TateOp.identity(2, QQ)


def test_double_lattice_factorization_worked_examples():
    O = StandardLattice(0)
    a = TateOp.mul(parse_laurent("t^-1"))
    fact = double_lattice_factorization(a, O, O)
    assert fact.L2_prime == StandardLattice(-1)
    assert fact.L1_prime == StandardLattice(1)
    assert fact.matrix == ((QQ.one(),),)

    z = TateOp.zero()
    fact = double_lattice_factorization(z, O, O)
    assert fact.L1_prime == O and fact.L2_prime == O
    assert fact.matrix == ()

    p = TateOp.proj_plus(0)
    fact = double_lattice_factorization(p, StandardLattice(-2), O)
    assert fact.L2_prime == O and fact.L1_prime == O
    assert fact.cols == (-2, 0) and fact.rows == (0, 0)
    assert fact.matrix == ()


def test_double_lattice_factorization_properties():
    rng = random.Random(33)
    for _ in range(150):
        a = random_op(rng, QQ)
        m1, m2 = rng.randint(-3, 3), rng.randint(-3, 3)
        fact = double_lattice_factorization(a, StandardLattice(m1), StandardLattice(m2))
        assert fact.L1_prime.m >= m1 and fact.L2_prime.m <= m2
        # a(L1) inside L2': every column >= m1 has rows >= L2'.m
        for j in range(m1, m1 + 10):
            for i in a.column_support(j):
                assert i >= fact.L2_prime.m
        # a(L1') inside L2
        for j in range(fact.L1_prime.m, fact.L1_prime.m + 10):
            for i in a.column_support(j):
                assert i >= m2
        # the induced matrix is the actual window
        assert fact.matrix == a.window_matrix(fact.rows[0], fact.rows[1],
                                              fact.cols[0], fact.cols[1])


def test_scale_and_dispatch():
    a = TateOp.mul(parse_laurent("t + 1"))
    s = QQ.from_fraction(3, 2)
    assert a.scale(s) == TateOp.mul(parse_laurent("3/2*t + 3/2"))
    assert (a - a).is_zero()
    assert commutator(a, a).is_zero()


def test_operators_are_laurent_morphisms():
    # columns have finite support and finite vectors map to finite vectors
    rng = random.Random(55)
    for _ in range(100):
        a = random_op(rng, QQ)
        for j in range(-6, 7):
            rows = a.column_support(j)
            assert len(rows) < 50
        v = random_laurent(rng, QQ)
        image = a.apply(v)
        assert len(image.support()) < 200


def test_fp_operator_algebra():
    f2 = PrimeField(2)
    ident = TateOp.identity(1, f2)
    assert ident + ident == TateOp.zero(1, f2)  # characteristic 2
    rng = random.Random(8)
    for _ in range(50):
        a = random_op(rng, f2)
        plus, minus = split_plus_minus(a)
        assert plus + minus == a
