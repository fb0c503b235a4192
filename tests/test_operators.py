"""Level-1 operator algebra: construction, composition, ideals, factorization.

Engine results are checked against the dense oracle in dense_oracle.py,
which builds matrices straight from the defining formulas.
"""

import hashlib
import json
import random

import pytest

from tateops import (ANTI, DIAG, EvSeq, InvalidOperatorError, PrimeField, QQ,
                     StandardLattice, TateOp, commutator,
                     double_lattice_factorization, ideal_membership, parse_laurent,
                     split_i)
from tateops.fields import FieldMismatchError
from tateops.operators import NEG_INF, POS_INF, LevelMismatchError
from tateops.random_ops import (random_laurent, random_op, random_op_level2,
                                random_op_level_n, random_scalar, random_trace_class)
from tateops.serial import op_from_json, op_to_json

from dense_oracle import (assert_matches, column_support, dense_add,
                          dense_compose, dense_finite, dense_flip, dense_mul,
                          dense_proj_minus, dense_proj_plus, dense_restrict,
                          dense_shift, nested_entry, nested_equal,
                          nested_product_entry)

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
        return TateOp(1, field, corr=cells), dense_finite(cells)
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
    f2 = TateOp(1, QQ, {(ANTI, 4): EvSeq.step(QQ.one(), QQ.zero(), 3)})
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
    plus, minus = split_i(TateOp.identity(), 1)
    assert plus == TateOp.proj_plus(0)
    assert minus == TateOp.proj_minus(0)
    z_plus, z_minus = split_i(TateOp.zero(), 1)
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
                for i in column_support(a, j):
                    assert i >= mem.bounding_row
        if mem.discrete and mem.kill_column is not None:
            for j in range(mem.kill_column, mem.kill_column + 8):
                assert column_support(a, j) == []


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_ideal_laws(field):
    rng = random.Random(42)
    for _ in range(200):
        tc = random_trace_class(rng, field)
        b = random_op(rng, field)
        for prod in (tc * b, b * tc):
            mem = ideal_membership(prod)
            assert mem.trace_class
        plus, minus = split_i(b, 1)
        assert ideal_membership(plus * b).bounded
        assert ideal_membership(b * minus if False else minus * b).discrete
        tc2 = random_trace_class(rng, field)
        assert ideal_membership(tc + tc2).trace_class
        assert ideal_membership(tc - tc2).trace_class


def test_bounded_discrete_two_sided_laws():
    rng = random.Random(43)
    for _ in range(200):
        a = random_op(rng, QQ)
        plus, minus = split_i(a, 1)
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
        plus, minus = split_i(a, 1)
        assert plus + minus == a
        assert ideal_membership(plus).bounded
        assert ideal_membership(minus).discrete
    a = TateOp.mul(parse_laurent("t^-1"))
    plus, minus = split_i(a, 1)
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
    lhs = TateOp(1, QQ, {(ANTI, 0): EvSeq.of(QQ.zero(), QQ.zero(), 0, [QQ.from_int(5)])})
    rhs = TateOp(1, QQ, corr={(0, 0): QQ.from_int(5)})
    assert lhs == rhs
    # correction on a diagonal line folds into its window
    ident_plus = TateOp.identity() + TateOp(1, QQ, corr={(2, 2): QQ.from_int(3)})
    direct = TateOp(1, QQ, {(DIAG, 0): EvSeq.of(QQ.one(), QQ.one(), 2, [QQ.from_int(4)])})
    assert ident_plus == direct
    assert ident_plus != TateOp.identity()


def _diag(level, field, left, right=None, window=(), cells=None):
    """A level-n operator with one diagonal line on offset 0 plus cells."""
    seq = EvSeq(left, left if right is None else right, 0, window)
    return TateOp(level, field, {(DIAG, 0): seq}, cells)


def _one_and_two(field, level):
    """The scalar 1 lifted to a level-n entry as the identity, and 2 the same way."""
    one, two = field.one(), field.from_int(2)
    for n in range(1, level):
        one, two = _diag(n, field, one), _diag(n, field, two)
    return one, two


def _crossing_pair(field=QQ, level=1):
    """Two presentations of one operator that split the value of the cell
    (0, 0), where a diagonal and an anti line cross, differently."""
    one, two = _one_and_two(field, level)
    zero = TateOp.zero(level, field).entry_zero()
    a = TateOp(level, field, {(DIAG, 0): EvSeq.constant(one),
                              (ANTI, 0): EvSeq.step(one, zero, 1)})
    b = TateOp(level, field, {(DIAG, 0): EvSeq(one, one, 0, [two]),
                              (ANTI, 0): EvSeq.step(one, zero, 0)})
    return a, b


def _key_limit_pairs(field):
    """Unequal pairs that differ in a line key, in a limit only two levels
    down, or in a cell key."""
    one, two = field.one(), field.from_int(2)
    deep_one, deep_two = _one_and_two(field, 3)
    return [
        (TateOp.shift(0, 2, field), TateOp.shift(1, 2, field)),
        (TateOp.proj_plus(0, 1, field), TateOp.ind_to_pro_flip(field)),
        (_diag(3, field, deep_one), _diag(3, field, deep_two)),
        (_diag(3, field, deep_one, TateOp.zero(2, field)),
         _diag(3, field, deep_two, TateOp.zero(2, field))),
        (_diag(1, field, one, cells={(3, -2): one}),
         _diag(1, field, one, cells={(3, -1): one})),
        (TateOp(1, field, corr={(0, 1): two}),
         TateOp(1, field, corr={(1, 0): two})),
    ]


def _value_pairs(field):
    """Unequal pairs with the same line keys, limits and cell keys, which
    differ only in one window entry or one cell value."""
    one, two = field.one(), field.from_int(2)
    three = field.from_int(3)
    deep_one, deep_two = _one_and_two(field, 3)
    return [
        (_diag(1, field, one, window=[two]), _diag(1, field, one, window=[three])),
        (_diag(3, field, deep_one, window=[deep_two]),
         _diag(3, field, deep_one, window=[deep_two, deep_two])),
        (_diag(1, field, one, cells={(3, -2): one}),
         _diag(1, field, one, cells={(3, -2): two})),
        (_diag(3, field, deep_one, cells={(0, 5): deep_one}),
         _diag(3, field, deep_one, cells={(0, 5): deep_two})),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_equality_rejects_on_keys_and_limits_without_subtracting(monkeypatch, field):
    # none of these pairs has a crossing, so == decides each one from the two
    # stored forms alone: it neither subtracts nor builds an operator
    unequal = _key_limit_pairs(field) + _value_pairs(field)
    equal = [(x, op_from_json(op_to_json(x), field)) for pair in unequal for x in pair]

    def no_build(*args, **kwargs):
        raise AssertionError("== built an operator")

    monkeypatch.setattr(TateOp, "__sub__", no_build)
    monkeypatch.setattr(TateOp, "__init__", no_build)
    for a, b in unequal:
        assert a != b and b != a
    for a, b in equal:
        assert a is not b and a == b and b == a and a == a
    monkeypatch.undo()
    for a, b in unequal:
        assert not (a - b).is_zero()


def _crossing_variants(field, level):
    """(x, y, equal) at crossings of a diagonal with an anti line: forms that
    split one crossing's entry two ways, forms whose sums there differ by one
    entry, and a form that differs on the anti line off every crossing."""
    a, b = _crossing_pair(field, level)
    one, two = _one_and_two(field, level)
    zero = TateOp.zero(level, field).entry_zero()
    op = lambda lines: TateOp(level, field, lines)
    diag_off = op({(DIAG, 0): EvSeq(one, one, 0, [one + two]),
                   (ANTI, 0): EvSeq.step(one, zero, 0)})
    anti_off = op({(DIAG, 0): EvSeq.constant(one), (ANTI, 0): EvSeq(one, zero, 0, [two])})
    off_crossing = op({(DIAG, 0): EvSeq.constant(one),
                       (ANTI, 0): EvSeq(one, zero, -1, [two, one])})
    # (DIAG, 1) and (ANTI, 3) cross at column 1, row 2
    odd_a = op({(DIAG, 1): EvSeq.constant(one), (ANTI, 3): EvSeq.step(one, zero, 2)})
    odd_b = op({(DIAG, 1): EvSeq(one, one, 1, [two]), (ANTI, 3): EvSeq.step(one, zero, 1)})
    odd_c = op({(DIAG, 1): EvSeq(one, one, 1, [two]), (ANTI, 3): EvSeq.step(one, zero, 2)})
    return [(a, b, True), (odd_a, odd_b, True),
            (a, diag_off, False), (b, diag_off, False), (a, anti_off, False),
            (b, anti_off, False), (a, off_crossing, False), (b, off_crossing, False),
            (odd_a, odd_c, False), (odd_b, odd_c, False)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_equality_at_crossings(monkeypatch, field, level):
    # where a diagonal and an anti line cross, == compares the sums of the
    # two line values; it agrees with the presentation oracle and with the
    # difference, and it still subtracts nothing
    pairs = _crossing_variants(field, level)
    for x, y, equal in pairs:
        assert (op_to_json(x) == op_to_json(y)) is False
        assert nested_equal(x, y) is nested_equal(y, x) is equal
        assert (x - y).is_zero() is (y - x).is_zero() is equal

    def no_sub(self, other):
        raise AssertionError("== subtracted")

    monkeypatch.setattr(TateOp, "__sub__", no_sub)
    for x, y, equal in pairs:
        assert (x == y) is (y == x) is equal


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_equality_agrees_with_zero_difference(field):
    # == reads the two stored forms; it must still mean (a - b).is_zero(),
    # and the one-pass a - b must store what a + (-b) stores
    rng = random.Random(f"equality {field}")
    outcomes = set()
    for level in (1, 2, 3):
        zero = TateOp.zero(level, field)
        for _ in range(25):
            a = random_op_level_n(rng, field, level)
            c = random_op_level_n(rng, field, level)
            for b in (a, (a + c) - c, c, zero, a - a, a + c, -a):
                for x, y in ((a, b), (b, a), (zero, b), (b, zero)):
                    difference = x - y
                    assert op_to_json(difference) == op_to_json(x + (-y))
                    expected = difference.is_zero()
                    assert (x == y) is expected
                    outcomes.add((x.is_zero() or y.is_zero(), expected))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
    for x, y in _key_limit_pairs(field) + _value_pairs(field):
        assert (x == y) is (y == x) is (x - y).is_zero() is False
    a, b = _crossing_pair()
    assert op_to_json(a) != op_to_json(b)
    assert a == b and b == a and (a - b).is_zero()
    assert op_to_json(a - b) == op_to_json(a + (-b))
    assert a != TateOp.zero(1, QQ) and TateOp.zero(1, QQ) != b


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_subtraction_builds_no_negated_copy(monkeypatch, field):
    # a - b negates no level-n operator: each line and cell of b is subtracted
    # from its partner in a, and what a lacks is negated one level down
    rng = random.Random(f"no negated copy {field}")
    pairs = [_crossing_pair(field)]
    for level in (1, 2, 3):
        far = TateOp(level, field, corr={(9, 0): _one_and_two(field, level)[1]})
        for _ in range(8):
            a = random_op_level_n(rng, field, level)
            pairs += [(a, a), (a, a.scale(field.from_int(3))), (a, a + far)]
    calls = []
    for name in ("map", "__neg__"):
        original = getattr(TateOp, name)

        def counted(self, *args, _original=original):
            calls.append(self.level)
            return _original(self, *args)
        monkeypatch.setattr(TateOp, name, counted)
    for a, b in pairs:
        assert a.lines.keys() == b.lines.keys()
        del calls[:]
        a - b
        assert a.level not in calls
    assert calls  # the cell (9, 0) that a lacks was negated one level down


def _perturbed(a, rng):
    """a plus a nonzero entry at one stored position of a: a cell, or a
    column of a line where the sum folds into the window."""
    places = list(a.corr) + [(j + off if orient == DIAG else off - j, j)
                             for (orient, off), seq in a.lines.items()
                             for j in (seq.window_start, seq.window_end())]
    i, j = rng.choice(places) if places else (0, 0)
    entry = _one_and_two(a.field, a.level)[1]
    return a + TateOp(a.level, a.field, corr={(i, j): entry})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_equality_matches_presentation_oracle(field):
    # == and (x - y).is_zero() against dense_oracle.nested_equal, which reads
    # limits per line key and entries on a box from the presentations alone
    rng = random.Random(f"equality oracle {field}")
    kinds = set()
    for level in (2, 3):
        inner = _crossing_pair(field, level - 1)
        pairs = [_crossing_pair(field, level),
                 (_diag(level, field, inner[0]), _diag(level, field, inner[1]))]
        for _ in range(20 if level == 2 else 10):
            a = random_op_level_n(rng, field, level)
            c = random_op_level_n(rng, field, level)
            lines, corr = _split_presentation(a, rng)
            pairs += [(a, b) for b in (a, (a + c) - c, c, a + c, -a, _perturbed(a, rng),
                                       TateOp(level, field, dict(lines), dict(corr)))]
        for x, y in pairs:
            want = nested_equal(x, y)
            assert (x == y) is want and (y == x) is want
            assert (x - y).is_zero() is want
            passes = (x.lines.keys() == y.lines.keys() and x.corr.keys() == y.corr.keys()
                      and all(nested_equal(seq.left, y.lines[key].left)
                              and nested_equal(seq.right, y.lines[key].right)
                              for key, seq in x.lines.items()))
            kinds.add((want, passes, op_to_json(x) == op_to_json(y)))
    # equal pairs with one and with two presentations; unequal pairs that
    # differ in a key or a limit, and unequal pairs that agree in all of them
    assert {(True, True, True), (True, True, False), (False, False, False),
            (False, True, False)} <= kinds


def _neg_scale_digest(field):
    rng = random.Random(f"neg scale {field}")
    docs = []
    for level in (1, 2, 3):
        for _ in range(20):
            a = random_op_level_n(rng, field, level)
            docs.append(op_to_json(-a))
            docs.append(op_to_json(a.scale(random_scalar(rng, field))))
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("field, digest", [
    (QQ, "3f5d7bb13226d5f0d09f18a500af7f770802bd98a3d3fc5e948eb447b8652d06"),
    (PrimeField(5), "63ef44e3989065d3133d59967820e420173b9b752fb95659b954221e4f6d2d07"),
], ids=["QQ", "GF5"])
def test_neg_and_scale_documents_unchanged(field, digest):
    # pinned documents of -a and a.scale(s) on seeded operators at levels 1-3:
    # negation and scaling must normalize exactly as they always have
    assert _neg_scale_digest(field) == digest


def _raw_value(left, right, start, window, j):
    """value(j) of the sequence as given, before canonicalization."""
    if j < start:
        return left
    return window[j - start] if j - start < len(window) else right


def _assert_canonical(seq, left, right, start, window, span=range(-10, 10)):
    assert all(seq.value(j) == _raw_value(left, right, start, window, j) for j in span)
    assert not (seq.window and seq.window[0] == seq.left)
    assert not (seq.window and seq.window[-1] == seq.right)
    if not seq.window and seq.left == seq.right:
        assert seq.window_start == 0


def test_evseq_canonicalization_and_errors():
    # the constructor canonicalizes every input, including the two it once
    # rejected: a window beginning with the left limit, and one ending with
    # the right limit
    for args in ((QQ.one(), QQ.zero(), 0, [QQ.one()]),
                 (QQ.zero(), QQ.one(), 0, [QQ.zero(), QQ.one()])):
        seq = EvSeq(*args)
        _assert_canonical(seq, *args)
        assert seq == EvSeq.of(*args) == EvSeq.step(args[0], args[1], 1)
    seq = EvSeq.of(QQ.one(), QQ.zero(), 0, [QQ.one(), QQ.one(), QQ.from_int(2)])
    assert seq.window_start == 2 and list(seq.window) == [QQ.from_int(2)]
    for make in (EvSeq, EvSeq.of):
        assert make(QQ.one(), QQ.one(), 5, []).window_start == 0
        assert make(QQ.one(), QQ.one(), 5, [QQ.one()]).window_start == 0


def test_evseq_canonical_form_with_operator_entries():
    # level-2 entries are compared semantically: x and y are equal operators
    # with different line data (the identity cell at (0, 0) is split between
    # the diagonal and the anti line in two ways), so either strips the other
    one, zero = QQ.one(), QQ.zero()
    x = TateOp(1, QQ, {(DIAG, 0): EvSeq.constant(one),
                       (ANTI, 0): EvSeq.step(one, zero, 1)})
    y = TateOp(1, QQ, {(DIAG, 0): EvSeq(one, one, 0, [QQ.from_int(2)]),
                       (ANTI, 0): EvSeq.step(one, zero, 0)})
    assert x == y and x.lines != y.lines
    rng = random.Random(17)
    pool = [TateOp.zero(1, QQ), TateOp.identity(1, QQ), x, y,
            *(random_trace_class(rng, QQ) for _ in range(3))]
    for _ in range(200):
        left, right = rng.choice(pool), rng.choice(pool)
        start = rng.randint(-3, 3)
        window = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        seq = EvSeq(left, right, start, window)
        _assert_canonical(seq, left, right, start, window)
        assert EvSeq.of(left, right, start, window) == seq


def _split_presentation(a, rng):
    """a's lines and cells as constructor input, each cell split into two
    summands: c*v stays a cell, (1-c)*v rides on a zero-limit line (zeros
    elsewhere on it) that normalization folds back into the correction."""
    c = a.field.from_int(rng.choice([2, 3]))
    scaled = lambda v, s: v.scale(s) if isinstance(v, TateOp) else v * s
    corr = {cell: scaled(v, c) for cell, v in a.corr.items()}
    rest: dict[int, dict[int, object]] = {}
    for (i, j), v in a.corr.items():
        rest.setdefault(i - j, {})[j] = scaled(v, a.field.one() - c)
    zero = a.entry_zero()
    lines = dict(a.lines)
    for off, cols in rest.items():
        lo = min(cols)
        window = [cols.get(j, zero) for j in range(lo, max(cols) + 1)]
        lines[(DIAG, off)] = EvSeq(zero, zero, lo, window)
    return list(lines.items()), list(corr.items())


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_normalization_does_not_depend_on_input_order(field):
    rng = random.Random(f"input order {field}")
    for level in (1, 2, 3):
        for _ in range(10 if level < 3 else 4):
            a = random_op_level_n(rng, field, level)
            lines, corr = _split_presentation(a, rng)
            shuffled_lines, shuffled_corr = lines[:], corr[:]
            rng.shuffle(shuffled_lines)
            rng.shuffle(shuffled_corr)
            for ls, cs in ((lines[::-1], corr[::-1]), (shuffled_lines, shuffled_corr)):
                b = TateOp(level, field, dict(ls), dict(cs))
                assert op_to_json(b) == op_to_json(a)
                assert b == a


def test_invalid_operator_rejected():
    with pytest.raises(InvalidOperatorError):
        TateOp(1, QQ, {(ANTI, 0): EvSeq.constant(QQ.one())})
    with pytest.raises(InvalidOperatorError):
        TateOp(1, QQ, {(ANTI, 2): EvSeq.step(QQ.zero(), QQ.one(), 0)})


def test_init_rejects_unknown_orientation_and_non_integer_coordinates():
    with pytest.raises(ValueError, match="orientation"):
        TateOp(1, QQ, {("diagonal", 0): EvSeq.constant(QQ.one())})
    with pytest.raises(TypeError):
        TateOp(1, QQ, {(DIAG, 1.5): EvSeq.constant(QQ.one())})
    with pytest.raises(TypeError):
        TateOp(1, QQ, corr={(0.7, 0): QQ.one()})
    with pytest.raises(TypeError):
        TateOp(1, QQ, corr={(0, 0.7): QQ.one()})


def test_init_names_a_wrong_entry_type():
    # an entry or line of the wrong type raises TypeError naming that type,
    # not AttributeError from deep in the normalization
    with pytest.raises(TypeError, match="expected Scalar, got int"):
        TateOp(1, QQ, corr={(0, 0): 3})
    with pytest.raises(TypeError, match="expected Scalar, got int"):
        TateOp(1, QQ, {(DIAG, 0): EvSeq.constant(3)})
    with pytest.raises(TypeError, match="expected EvSeq, got tuple"):
        TateOp(1, QQ, {(DIAG, 0): (1, 2)})
    with pytest.raises(TypeError, match="expected TateOp, got int"):
        TateOp(2, QQ, corr={(0, 0): 3})


def test_lattice_index_is_an_integer():
    # StandardLattice reads m with operator.index, so a float index raises
    # TypeError instead of giving a lattice with a fractional exponent
    with pytest.raises(TypeError):
        StandardLattice(0.5)
    assert StandardLattice(True).m == 1 and type(StandardLattice(True).m) is int
    a = TateOp.mul(parse_laurent("t^-1"))
    with pytest.raises(TypeError):
        double_lattice_factorization(a, StandardLattice(0.5), StandardLattice(1))


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
            for i in column_support(a, j):
                assert i >= fact.L2_prime.m
        # a(L1') inside L2
        for j in range(fact.L1_prime.m, fact.L1_prime.m + 10):
            for i in column_support(a, j):
                assert i >= m2
        # the induced matrix is the actual window
        assert fact.matrix == a.window_matrix(fact.rows[0], fact.rows[1],
                                              fact.cols[0], fact.cols[1])


def test_scale_and_dispatch():
    a = TateOp.mul(parse_laurent("t + 1"))
    s = QQ.from_fraction(3, 2)
    assert a.scale(s) == TateOp.mul(parse_laurent("3/2*t + 3/2"))
    with pytest.raises(TypeError, match="expected Scalar, got int"):
        a.scale(3)
    assert (a - a).is_zero()
    assert commutator(a, a).is_zero()


def test_operators_are_laurent_morphisms():
    # columns have finite support and finite vectors map to finite vectors
    rng = random.Random(55)
    for _ in range(100):
        a = random_op(rng, QQ)
        for j in range(-6, 7):
            rows = column_support(a, j)
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
        plus, minus = split_i(a, 1)
        assert plus + minus == a


def _random_bounds(rng):
    """(row_lo, row_hi, col_lo, col_hi), each bound infinite about a third of the time."""
    def bound(inf):
        return inf if rng.random() < 0.35 else rng.randint(-6, 6)
    return bound(NEG_INF), bound(POS_INF), bound(NEG_INF), bound(POS_INF)


def test_restrict_matches_dense_oracle():
    rng = random.Random(81)
    crossings = 0
    for _ in range(200):
        field = PrimeField(5) if rng.random() < 0.4 else QQ
        a, da = _random_primitive(rng, field)
        for _ in range(rng.randint(1, 2)):
            b, db = _random_primitive(rng, field)
            c, dc = _random_primitive(rng, field)
            a, da = a + b * c, dense_add(da, dense_compose(db, dc, field), field)
        orients = {orient for orient, _ in a.lines}
        crossings += orients == {DIAG, ANTI}
        bounds = _random_bounds(rng)
        assert_matches(a.restrict(*bounds), dense_restrict(da, *bounds), WIDTH, margin=12)
    assert crossings >= 20


def test_restrict_level2_entries():
    rng = random.Random(82)
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            a = random_op_level2(rng, field)
            row_lo, row_hi, col_lo, col_hi = _random_bounds(rng)
            cut = a.restrict(row_lo, row_hi, col_lo, col_hi)
            for i in range(-8, 9):
                for j in range(-8, 9):
                    inside = row_lo <= i < row_hi and col_lo <= j < col_hi
                    assert cut.entry(i, j) == (a.entry(i, j) if inside else a.entry_zero())


def test_restrict_examples():
    a = TateOp.identity() + TateOp.ind_to_pro_flip()
    assert a.restrict() == a
    assert a.restrict(row_lo=0) == TateOp.proj_plus(0) + TateOp.ind_to_pro_flip()
    # the flip's rows are >= 0, so only the identity survives below row 0
    assert a.restrict(row_hi=0) == TateOp.proj_minus(0)
    assert a.restrict(row_lo=2, row_hi=2).is_zero()
    box = a.restrict(-2, 2, -2, 2)
    assert not box.lines
    assert box.corr == {(-2, -2): QQ.one(), (-1, -1): QQ.one(), (0, 0): QQ.one(),
                        (1, 1): QQ.one(), (0, -1): QQ.one(), (1, -2): QQ.one()}


def _stored_index(rng, op):
    """A multi-index that meets a stored nonzero piece of op at each level
    while there is one, and continues at random below where there is not."""
    index = []
    for _ in range(op.level):
        pieces = [(cell, v) for cell, v in op.corr.items()]
        for (orient, off), seq in op.lines.items():
            j = rng.randint(seq.window_start - 1, seq.window_end())
            pieces.append(((j + off if orient == DIAG else off - j, j), seq.value(j)))
        pieces = [(cell, v) for cell, v in pieces if not v.is_zero()]
        if not pieces:
            index += [(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(op.level)]
            break
        cell, op = rng.choice(pieces)
        index.append(cell)
    return tuple(index)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_level3_add_and_compose_against_nested_entries(field):
    # every entry read straight off the presentations, nowhere composed; the
    # indices follow stored pieces of the operands and the results
    rng = random.Random(31)
    checked = sums = products = pairs = 0
    while pairs < 8:
        a, b = random_op_level_n(rng, field, 3), random_op_level_n(rng, field, 3)
        total, product = a + b, a * b
        if pairs >= 2 and product.is_zero():
            continue  # past the first two pairs, keep only nonzero products
        pairs += 1
        for _ in range(40):
            index = _stored_index(rng, rng.choice([a, b, total, product, product]))
            want = nested_entry(a, index) + nested_entry(b, index)
            assert nested_entry(total, index) == want, (index, op_to_json(a), op_to_json(b))
            sums += not want.is_zero()
            want = nested_product_entry(a, b, index)
            assert nested_entry(product, index) == want, (index, op_to_json(a), op_to_json(b))
            products += not want.is_zero()
            checked += 1
    assert sums >= checked // 4 and products >= checked // 4
