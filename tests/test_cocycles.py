"""Corner cocycle, residues, Hochschild functional, Lie blocks."""

import importlib
import random

import pytest
from fractions import Fraction

from tateops import (ANTI, COCYCLE_TO_RESIDUE_SIGN, DIAG, HOCHSCHILD_TO_RESIDUE_SIGN,
                     BlockOp, EvSeq, FieldMismatchError, LaurentPoly, LevelMismatchError,
                     LieAlgebraData, LieAlgebraError, NotTraceClassError,
                     PrimeField, QQ, TateOp, ad_block,
                     block_cocycle, commutator, corner, cubical_membership,
                     hochschild_residue, kac_moody_grid, lie_from_json,
                     parse_laurent, residue, residue_oracle, sl2, tate_cocycle,
                     trace)
from tateops.random_ops import (random_generator_op, random_laurent, random_op,
                                random_op_level2, random_scalar, random_trace_class)
from tateops.serial import op_to_json, scalar_to_json

from dense_oracle import (dense_compose, dense_mul, dense_proj_minus,
                          dense_proj_plus, dense_trace)

# the module, whose package attribute ``tateops.trace`` is the function
trace_module = importlib.import_module("tateops.trace")


def test_corner_examples():
    ident = TateOp.identity()
    assert corner(ident, "pm").is_zero()
    assert corner(ident, "mp").is_zero()
    a = TateOp.mul(parse_laurent("t^-1"))
    mp = corner(a, "mp")
    assert not mp.lines and mp.corr == {(-1, 0): QQ.one()}
    rng = random.Random(1)
    for _ in range(100):
        x = random_op(rng, QQ)
        total = (corner(x, "pp") + corner(x, "pm")
                 + corner(x, "mp") + corner(x, "mm"))
        assert total == x
        from tateops import ideal_membership
        assert ideal_membership(corner(x, "pm")).trace_class
        assert ideal_membership(corner(x, "mp")).trace_class
    with pytest.raises(ValueError):
        corner(ident, "xy")


def test_sign_constants_derived_from_oracle():
    """The two pinned signs are forced by residue(t^-1, t) = 1."""
    f, g = parse_laurent("t^-1"), parse_laurent("t")
    assert residue_oracle(f, g) == QQ.one()
    raw_cocycle = tate_cocycle(TateOp.mul(f), TateOp.mul(g))
    assert raw_cocycle == QQ.from_int(-1)
    assert COCYCLE_TO_RESIDUE_SIGN * raw_cocycle.value == Fraction(1)
    raw_hh = trace(commutator(TateOp.proj_plus(0), TateOp.mul(f)) * TateOp.mul(g))
    assert raw_hh == QQ.from_int(-1)
    assert HOCHSCHILD_TO_RESIDUE_SIGN * raw_hh.value == Fraction(1)
    # independent dense recomputation of the raw corner value
    W = 16
    a, b = dense_mul(f, W), dense_mul(g, W)
    pp, pm = dense_proj_plus(QQ, 0, W), dense_proj_minus(QQ, 0, W)
    a_pm = dense_compose(dense_compose(pp, a, QQ), pm, QQ)
    a_mp = dense_compose(dense_compose(pm, a, QQ), pp, QQ)
    b_pm = dense_compose(dense_compose(pp, b, QQ), pm, QQ)
    b_mp = dense_compose(dense_compose(pm, b, QQ), pp, QQ)
    dense_raw = dense_trace(dense_compose(a_pm, b_mp, QQ), QQ) \
        - dense_trace(dense_compose(b_pm, a_mp, QQ), QQ)
    assert dense_raw == raw_cocycle


def test_cocycle_antisymmetry_and_monomial_grid():
    rng = random.Random(5)
    for _ in range(60):
        a = random_op(rng, QQ)
        assert tate_cocycle(a, a).is_zero()
    for m in range(-6, 7):
        for n in range(-6, 7):
            val = tate_cocycle(TateOp.mul(parse_laurent(f"t^{m}")),
                               TateOp.mul(parse_laurent(f"t^{n}")))
            if m + n != 0:
                assert val.is_zero()
            else:
                assert val == QQ.from_int(m)


def test_residue_examples():
    g = parse_laurent("t^7 - 2*t^-3")
    assert residue(parse_laurent("1"), g).is_zero()
    assert residue(parse_laurent("t^-1"), parse_laurent("t")) == QQ.one()
    assert residue(parse_laurent("t^-3"), parse_laurent("t^3")) == QQ.from_int(3)
    f = parse_laurent("t^-2 + t^-1")  # t^-2 (1 + t)
    assert residue_oracle(f, parse_laurent("t^2")) == QQ.from_int(2)
    assert residue(f, parse_laurent("t^2")) == QQ.from_int(2)


def test_residue_oracle_examples():
    assert residue_oracle(parse_laurent("t^-1"), parse_laurent("t")) == QQ.one()
    assert residue_oracle(parse_laurent("t^2"), parse_laurent("t^5")).is_zero()


def test_residue_matches_oracle_randomly():
    rng = random.Random(6)
    for _ in range(200):
        f = random_laurent(rng, QQ, span=8)
        g = random_laurent(rng, QQ, span=8)
        assert residue(f, g) == residue_oracle(f, g)
        # integration by parts
        assert residue(f, g) + residue(g, f) == QQ.zero()


def test_residue_in_characteristic_p():
    f5 = PrimeField(5)
    rng = random.Random(7)
    for _ in range(60):
        f = random_laurent(rng, f5, span=6)
        g = random_laurent(rng, f5, span=6)
        assert residue(f, g) == residue_oracle(f, g)
    # d/dt t^5 = 0 mod 5, so res(t^-5 d(t^5)) = 0 in F_5
    t5 = LaurentPoly.monomial(f5, 5, f5.one())
    tm5 = LaurentPoly.monomial(f5, -5, f5.one())
    assert residue(tm5, t5).is_zero()


def _assert_lie_cocycle_identity(rng, field, cases):
    for _ in range(cases):
        a = random_op(rng, field)
        b = random_op(rng, field)
        d = random_op(rng, field)
        total = (tate_cocycle(commutator(a, b), d)
                 + tate_cocycle(commutator(b, d), a)
                 + tate_cocycle(commutator(d, a), b))
        assert total.is_zero()


def test_lie_cocycle_identity():
    _assert_lie_cocycle_identity(random.Random(8), QQ, 100)


def test_lie_cocycle_identity_over_gf5():
    # fails on a GF(p) Scalar.__sub__ that subtracts in the wrong order,
    # which the QQ run above cannot see
    _assert_lie_cocycle_identity(random.Random("lie cocycle GF5"), PrimeField(5), 100)


def test_hochschild_residue():
    assert hochschild_residue(TateOp.identity(), TateOp.mul(parse_laurent("t"))) \
        .is_zero()
    assert hochschild_residue(TateOp.mul(parse_laurent("t^-1")),
                              TateOp.mul(parse_laurent("t"))) == QQ.one()
    rng = random.Random(9)
    for _ in range(50):
        f = random_laurent(rng, QQ, span=6)
        g = random_laurent(rng, QQ, span=6)
        assert hochschild_residue(TateOp.mul(f), TateOp.mul(g)) == residue(f, g)
        lhs = hochschild_residue(TateOp.mul(f), TateOp.mul(g)) \
            + hochschild_residue(TateOp.mul(g), TateOp.mul(f))
        assert lhs.is_zero()


def test_hochschild_residue_level_1_makes_no_membership_test(monkeypatch):
    rng = random.Random(19)
    polys = [(parse_laurent("t^-3 + t^2"), parse_laurent("t^3 - t^-1"))]
    polys += [(random_laurent(rng, QQ, span=6), random_laurent(rng, QQ, span=6))
              for _ in range(30)]
    ops = [(random_op(rng, QQ), random_op(rng, QQ)) for _ in range(40)]
    calls = []
    _count_calls(monkeypatch, trace_module, "_is_trace_class", calls)
    # [P+, a] is trace-class at level 1, so it is summed against b untested
    for f, g in polys:
        value = hochschild_residue(TateOp.mul(f), TateOp.mul(g))
        assert value == residue(f, g) == residue_oracle(f, g)
    values = [hochschild_residue(a, b) for a, b in ops]
    assert calls == []
    for (a, b), value in zip(ops, values):
        bracket = corner(a, "pm") - corner(a, "mp")
        assert value == trace(bracket * b).times_int(HOCHSCHILD_TO_RESIDUE_SIGN)
    with pytest.raises(LevelMismatchError):
        hochschild_residue(TateOp.identity(1, QQ), TateOp.identity(2, QQ))


def test_lie_algebra_validation():
    with pytest.raises(LieAlgebraError):
        LieAlgebraData(QQ, ("x", "y"), {(0, 1): {0: QQ.one()}})  # not antisymmetric
    good = LieAlgebraData(QQ, ("x", "y"), {(0, 1): {0: QQ.one()},
                                           (1, 0): {0: -QQ.one()}})
    assert good.dimension == 2
    with pytest.raises(LieAlgebraError):
        good.index("z")
    # a bracket violating Jacobi: [x,y]=z, [y,z]=x, [x,z]=x
    with pytest.raises(LieAlgebraError):
        LieAlgebraData(QQ, ("x", "y", "z"), {
            (0, 1): {2: QQ.one()}, (1, 0): {2: -QQ.one()},
            (1, 2): {0: QQ.one()}, (2, 1): {0: -QQ.one()},
            (0, 2): {0: QQ.one()}, (2, 0): {0: -QQ.one()},
        })


def test_lie_algebra_data_names_a_wrong_constant_type():
    with pytest.raises(TypeError, match="expected Scalar, got int"):
        LieAlgebraData(QQ, ["a", "b"], {(0, 1): {0: 3}})


def test_block_op_names_a_wrong_block_type():
    with pytest.raises(TypeError, match="expected TateOp, got int"):
        BlockOp([[3]])
    with pytest.raises(TypeError, match="expected TateOp, got str"):
        BlockOp([[TateOp.identity(), TateOp.zero()], [TateOp.zero(), "x"]])


def test_ad_block_examples():
    lie = sl2(QQ)
    zeros = LaurentPoly.zero(QQ)
    e_vec = [parse_laurent("1"), zeros, zeros]
    out = ad_block("h", 0, lie).apply(e_vec)
    assert out == [parse_laurent("2"), zeros, zeros]
    f_vec = [zeros, zeros, parse_laurent("t^-1")]
    out = ad_block("e", 1, lie).apply(f_vec)
    assert out == [zeros, parse_laurent("1"), zeros]
    rng = random.Random(10)
    for _ in range(40):
        x = rng.choice(lie.labels)
        y = rng.choice(lie.labels)
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        lhs = ad_block(x, m, lie) * ad_block(y, n, lie) \
            - ad_block(y, n, lie) * ad_block(x, m, lie)
        i, j = lie.index(x), lie.index(y)
        rhs = BlockOp.zero(lie.dimension, QQ)
        for k in range(lie.dimension):
            c = lie.bracket_coeff(i, j, k)
            if not c.is_zero():
                rhs = rhs + _scale_block(ad_block(lie.labels[k], m + n, lie), c)
        assert lhs == rhs


def _scale_block(block: BlockOp, s) -> BlockOp:
    return BlockOp([[op.scale(s) for op in row] for row in block.blocks])


def test_kac_moody_pattern_sl2():
    lie = sl2(QQ)
    kill = QQ.from_int(4)
    for m in range(-4, 5):
        for n in range(-4, 5):
            val = block_cocycle(ad_block("e", m, lie), ad_block("f", n, lie))
            if m + n != 0:
                assert val.is_zero()
            else:
                assert val == kill.times_int(m)
    # antisymmetry and the h-h channel
    a = ad_block("h", 2, lie)
    assert block_cocycle(a, a).is_zero()
    assert block_cocycle(a, ad_block("h", -2, lie)) == QQ.from_int(16)
    for n in range(-3, 4):
        assert block_cocycle(ad_block("h", 0, lie), ad_block("e", n, lie)).is_zero()


def test_block_cocycle_bilinear_antisymmetric():
    lie = sl2(QQ)
    rng = random.Random(14)
    picks = [(rng.choice(lie.labels), rng.randint(-3, 3)) for _ in range(8)]
    blocks = [ad_block(x, m, lie) for x, m in picks]
    for a in blocks[:4]:
        for b in blocks[4:]:
            assert block_cocycle(a, b) + block_cocycle(b, a) == QQ.zero()
    a, b, c = blocks[0], blocks[1], blocks[2]
    assert block_cocycle(a + b, c) == block_cocycle(a, c) + block_cocycle(b, c)
    assert block_cocycle(c, a + b) == block_cocycle(c, a) + block_cocycle(c, b)


def test_kac_moody_grid_helper():
    lie = sl2(QQ)
    cells = kac_moody_grid(lie, 1)
    assert len(cells) == 9 * 9
    nonzero = [c for c in cells if not c.value.is_zero()]
    assert all(c.m + c.n == 0 and c.m != 0 for c in nonzero)


def test_lie_from_json_matches_builtin():
    from tateops import lie_from_json
    doc = {
        "labels": ["e", "h", "f"],
        "brackets": [
            {"left": "h", "right": "e", "out": {"e": "2"}},
            {"left": "h", "right": "f", "out": {"f": "-2"}},
            {"left": "e", "right": "f", "out": {"h": "1"}},
        ],
    }
    lie = lie_from_json(doc, QQ)
    builtin = sl2(QQ)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert lie.bracket_coeff(i, j, k) == builtin.bracket_coeff(i, j, k)
    from tateops.serial import SchemaError
    with pytest.raises(SchemaError):
        lie_from_json({"labels": ["x", "x"]}, QQ)
    with pytest.raises(LieAlgebraError):
        # antisymmetric completion still catches a Jacobi failure
        lie_from_json({"labels": ["x", "y", "z"], "brackets": [
            {"left": "x", "right": "y", "out": {"z": "1"}},
            {"left": "y", "right": "z", "out": {"x": "1"}},
            {"left": "x", "right": "z", "out": {"x": "1"}},
        ]}, QQ)


def _mixed_block(rng, field):
    """A zero block, an anti line, a block of correction cells or a general
    level-1 operator, each about as often."""
    kind = rng.randrange(4)
    if kind == 0:
        return TateOp.zero(1, field)
    if kind == 1:
        seq = EvSeq.of(random_scalar(rng, field, zero_ok=False), field.zero(),
                       rng.randint(-3, 3), [random_scalar(rng, field) for _ in range(2)])
        return TateOp(1, field, {(ANTI, rng.randint(-4, 4)): seq})
    if kind == 2:
        return TateOp(1, field, corr={(rng.randint(-4, 4), rng.randint(-4, 4)):
                                          random_scalar(rng, field) for _ in range(3)})
    return random_op(rng, field)


def _random_block_op(rng, field, r, dense):
    """An r x r BlockOp; with dense=True every block is a nonzero general
    operator, otherwise each block is drawn by _mixed_block."""
    def block():
        if not dense:
            return _mixed_block(rng, field)
        op = random_op(rng, field)
        while op.is_zero():
            op = random_op(rng, field)
        return op
    return BlockOp([[block() for _ in range(r)] for _ in range(r)])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_cocycle_matches_dense_block_products(field, r):
    rng = random.Random(40 + r)
    kinds = set()
    for case in range(12):
        dense = case % 2 == 0
        a = _random_block_op(rng, field, r, dense)
        b = _random_block_op(rng, field, r, dense)
        kinds.update((op.is_zero(), any(o == ANTI for o, _ in op.lines), bool(op.corr))
                     for x in (a, b) for row in x.blocks for op in row)
        expected = (a.corner("pm") * b.corner("mp")).block_trace() \
            - (b.corner("pm") * a.corner("mp")).block_trace()
        assert block_cocycle(a, b) == expected
    # zero blocks, blocks with anti lines and blocks with cells all occur
    assert all(any(kind[k] for kind in kinds) for k in range(3))


def _sparse_block_op(rng, field, r, gen):
    """An r x r BlockOp whose blocks are zero with probability 1/2 and
    otherwise drawn from gen."""
    return BlockOp([[gen(rng, field) if rng.random() < 0.5 else TateOp.zero(1, field)
                     for _ in range(r)] for _ in range(r)])


def _dense_sum(ops, field):
    total = TateOp.zero(1, field)
    for op in ops:
        total = total + op
    return total


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_sparse_block_op_matches_dense_view(field):
    """Every BlockOp operation, checked block by block against the same
    operation written on the dense `blocks` view with TateOp arithmetic."""
    rng = random.Random(50)
    r = 3
    idx = range(r)
    zeros_seen = 0
    for _ in range(8):
        a = _sparse_block_op(rng, field, r, random_op)
        b = _sparse_block_op(rng, field, r, random_op)
        A, B = a.blocks, b.blocks
        zeros_seen += sum(op.is_zero() for row in A + B for op in row)
        assert BlockOp(A) == a and BlockOp(B) == b
        assert (a + b).blocks == tuple(tuple(A[i][j] + B[i][j] for j in idx) for i in idx)
        assert (a - b).blocks == tuple(tuple(A[i][j] - B[i][j] for j in idx) for i in idx)
        assert (-a).blocks == tuple(tuple(-A[i][j] for j in idx) for i in idx)
        assert (a * b).blocks == tuple(
            tuple(_dense_sum((A[i][k] * B[k][j] for k in idx), field) for j in idx)
            for i in idx)
        assert (a == b) == all(A[i][j] == B[i][j] for i in idx for j in idx)
        assert a - a == BlockOp.zero(r, field)
        if any(not op.is_zero() for row in B for op in row):
            assert a + b != a
        vec = [random_laurent(rng, field) for _ in idx]
        expected = []
        for i in idx:
            acc = LaurentPoly.zero(field)
            for j in idx:
                acc = acc + A[i][j].apply(vec[j])
            expected.append(acc)
        assert a.apply(vec) == expected
        for quadrant in ("pp", "pm", "mp", "mm"):
            assert a.corner(quadrant).blocks == tuple(
                tuple(corner(A[i][j], quadrant) for j in idx) for i in idx)
        # the corner cocycle from dense corner products, traced after composing
        pm_mp = [(corner(X[k][l], "pm") * corner(Y[l][k], "mp"))
                 for X, Y in ((A, B), (B, A)) for k in idx for l in idx]
        first = [trace(op) for op in pm_mp[:r * r]]
        second = [trace(op) for op in pm_mp[r * r:]]
        expected_cocycle = field.zero()
        for v in first:
            expected_cocycle = expected_cocycle + v
        for v in second:
            expected_cocycle = expected_cocycle - v
        assert block_cocycle(a, b) == expected_cocycle
        t = _sparse_block_op(rng, field, r, random_trace_class)
        T = t.blocks
        expected_trace = field.zero()
        for k in idx:
            expected_trace = expected_trace + trace(T[k][k])
        assert t.block_trace() == expected_trace
    assert zeros_seen >= 8 * 2 * r * r // 4


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_block_op_subtraction_stores_what_adding_the_negation_stores(field):
    rng = random.Random(f"block subtraction {field}")
    stored = lambda x: [[op_to_json(op) for op in row] for row in x.blocks]
    for _ in range(8):
        a = _sparse_block_op(rng, field, 3, random_op)
        b = _sparse_block_op(rng, field, 3, random_op)
        for x, y in ((a, b), (b, a), (a, a), (a, -a), (a, a + b)):
            assert stored(x - y) == stored(x + (-y))


def _killing_form(lie, i, j):
    """tr(ad x_i ad x_j) = sum over k, l of c_il^k c_jk^l, read densely."""
    r = lie.dimension
    total = lie.field.zero()
    for k in range(r):
        for l in range(r):
            total = total + lie.bracket_coeff(i, l, k) * lie.bracket_coeff(j, k, l)
    return total


@pytest.mark.parametrize("lie", [
    sl2(PrimeField(7)),
    lie_from_json({"labels": ["x", "y"],
                   "brackets": [{"left": "x", "right": "y", "out": {"y": "1"}}]}, QQ),
], ids=["sl2-GF7", "affine-line"])
def test_kac_moody_grid_is_killing_form_times_m(lie):
    zero = lie.field.zero()
    cells = kac_moody_grid(lie, 2)
    assert len(cells) == lie.dimension ** 2 * 25
    for cell in cells:
        kill = _killing_form(lie, lie.index(cell.x), lie.index(cell.y))
        expected = kill.times_int(cell.m) if cell.m + cell.n == 0 else zero
        assert cell.value == expected, cell


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends name to calls."""
    original = getattr(module, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counting)


def _count_meeting_pairs(monkeypatch, module, calls):
    """Replace module._product_sum by a wrapper that appends "_product_sum"
    to calls for each pair of nonzero factors, and checks that a pair with a
    zero factor sums to the field's shared zero."""
    original = module._product_sum

    def counting(x, y):
        value = original(x, y)
        if x.is_zero() or y.is_zero():
            assert value is x.field.zero()
        else:
            calls.append("_product_sum")
        return value

    monkeypatch.setattr(module, "_product_sum", counting)


@pytest.mark.parametrize("grid", [2, 6])
def test_kac_moody_grid_corners_each_shift_twice(monkeypatch, grid):
    import tateops.cocycles as cocycles
    calls = []
    _count_calls(monkeypatch, cocycles, "corner", calls)
    _count_calls(monkeypatch, cocycles, "ad_block", calls)
    _count_calls(monkeypatch, BlockOp, "_of", calls)
    kac_moody_grid(sl2(QQ), grid)
    # the pm and mp corner of each of the 2g+1 shifts, and no ad block or
    # other BlockOp at all
    assert calls == ["corner"] * 2 * (2 * grid + 1)


def test_kac_moody_grid_joins_meeting_shifts_only(monkeypatch):
    import tateops.cocycles as cocycles
    lie, grid = sl2(QQ), 6
    # the (t^m pm, t^n mp) pairs with both corners nonzero, read off dense
    # corners of the shifts alone
    shifts = range(-grid, grid + 1)
    meeting = sum(not corner(TateOp.shift(m, 1, QQ), "pm").is_zero()
                  and not corner(TateOp.shift(n, 1, QQ), "mp").is_zero()
                  for m in shifts for n in shifts)
    assert meeting == 36
    calls = []
    _count_meeting_pairs(monkeypatch, cocycles, calls)
    _count_calls(monkeypatch, trace_module, "_is_trace_class", calls)
    cells = kac_moody_grid(lie, grid)
    assert len(cells) == lie.dimension ** 2 * 13 * 13
    assert calls == ["_product_sum"] * meeting
    # K(x, y) * c(t^m, t^n) is nonzero on 3 basis pairs times 12 shift pairs,
    # and every other cell is the shared zero
    assert sum(cell.value is not lie.field.zero() for cell in cells) == 36


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_block_cocycle_sums_cross_pairs_only(monkeypatch, field):
    import tateops.cocycles as cocycles
    rng = random.Random(73)
    r = 3
    pairs = [(_random_block_op(rng, field, r, True), _random_block_op(rng, field, r, True))
             for _ in range(20)]

    def stored(a, quadrant):
        blocks = a.blocks
        return {(k, l) for k in range(r) for l in range(r)
                if not corner(blocks[k][l], quadrant).is_zero()}

    # the meeting (x_pm block, transposed y_mp block) pairs of the two cross
    # products a_pm b_mp and b_pm a_mp, read off dense corners
    meeting = sum(len({(l, k) for k, l in stored(x, "pm")} & stored(y, "mp"))
                  for a, b in pairs for x, y in ((a, b), (b, a)))
    expected = [(a.corner("pm") * b.corner("mp")).block_trace()
                - (b.corner("pm") * a.corner("mp")).block_trace() for a, b in pairs]
    calls = []
    _count_meeting_pairs(monkeypatch, cocycles, calls)
    assert [block_cocycle(a, b) for a, b in pairs] == expected
    assert len(calls) == meeting


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_zero_block_op_cocycle_reads_no_block(monkeypatch, field):
    import tateops.cocycles as cocycles

    def fail(*args):
        raise AssertionError("a zero BlockOp has no block to read")

    dense_zero = BlockOp([[TateOp.zero(1, field)] * 3 for _ in range(3)])
    other = ad_block("e", 1, sl2(field))
    monkeypatch.setattr(cocycles, "corner", fail)
    monkeypatch.setattr(cocycles, "trace_product", fail)
    for zero in (BlockOp.zero(3, field), dense_zero):
        assert block_cocycle(zero, zero) == field.zero()
        assert block_cocycle(zero, other) == field.zero()
        assert block_cocycle(other, zero) == field.zero()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_corner_serializes_like_projection_products(field):
    rng = random.Random(31)
    for level, gen in ((1, random_op), (2, random_op_level2)):
        plus = TateOp.proj_plus(0, level, field)
        minus = TateOp.proj_minus(0, level, field)
        sides = {"pp": (plus, plus), "pm": (plus, minus),
                 "mp": (minus, plus), "mm": (minus, minus)}
        for _ in range(300):
            a = gen(rng, field)
            for quadrant, (left, right) in sides.items():
                assert op_to_json(corner(a, quadrant)) == op_to_json(left * a * right)


def test_tate_cocycle_composes_nothing(monkeypatch):
    import tateops.cocycles as cocycles
    calls = []
    original = TateOp.__mul__

    def counting_mul(self, other):
        calls.append(self.level)
        return original(self, other)

    monkeypatch.setattr(TateOp, "__mul__", counting_mul)
    _count_calls(monkeypatch, trace_module, "_is_trace_class", calls)
    _count_meeting_pairs(monkeypatch, cocycles, calls)
    # t^5 - t + t^2 has no negative exponent, so its mp corner is zero and
    # only one corner pair meets; with t^-2 in place of t^2 both do
    for f, g, pairs in (("t^-5 + 2*t^-1 + 3 + t^4", "t^5 - t + t^2", 1),
                        ("t^-5 + 2*t^-1 + 3 + t^4", "t^5 - t + t^-2", 2)):
        f, g = parse_laurent(f), parse_laurent(g)
        a, b = TateOp.mul(f), TateOp.mul(g)
        assert sum(not corner(x, "pm").is_zero() and not corner(y, "mp").is_zero()
                   for x, y in ((a, b), (b, a))) == pairs
        calls.clear()
        value = tate_cocycle(a, b)
        # each meeting level-1 corner pair is summed once, with no product
        # and no membership test
        assert calls == ["_product_sum"] * pairs
        assert value.times_int(COCYCLE_TO_RESIDUE_SIGN) == residue_oracle(f, g)
    # positive control: at level 2 an outer corner need not be trace-class,
    # so each corner pair is tested once, and here summed by trace_product
    rank_one = TateOp(1, QQ, corr={(0, 0): QQ.one()})
    a2, b2 = (TateOp(2, QQ, {(DIAG, m): EvSeq.constant(rank_one)}) for m in (2, -2))
    calls.clear()
    value = tate_cocycle(a2, b2)
    assert calls == ["_is_trace_class"] * 2
    assert value == tate_cocycle(TateOp.shift(2), TateOp.shift(-2))


def test_lie_validation_reads_only_nonzero_constants():
    # one non-Jacobi triple among many labels: [x,y]=z, [y,z]=x, [x,z]=x
    labels = [f"u{k}" for k in range(40)] + ["x", "y", "z"]
    x, y, z = 40, 41, 42
    one = QQ.one()
    bad = {(x, y): {z: one}, (y, x): {z: -one}, (y, z): {x: one}, (z, y): {x: -one},
           (x, z): {x: one}, (z, x): {x: -one}}
    with pytest.raises(LieAlgebraError, match="Jacobi"):
        LieAlgebraData(QQ, labels, bad)
    with pytest.raises(LieAlgebraError, match="antisymmetric"):
        LieAlgebraData(QQ, labels, {(x, y): {z: one}, (y, x): {z: one}})
    with pytest.raises(LieAlgebraError, match="out of range"):
        LieAlgebraData(QQ, ("x",), {(0, 1): {0: one}})
    # sl_2 embedded among the spectator labels is a Lie algebra
    e, h, f = x, y, z
    two = QQ.from_int(2)
    lie = LieAlgebraData(QQ, labels, {(h, e): {e: two}, (e, h): {e: -two},
                                      (h, f): {f: -two}, (f, h): {f: two},
                                      (e, f): {h: one}, (f, e): {h: -one}})
    assert lie.bracket_coeff(h, e, e) == two
    assert lie.bracket_coeff(0, 1, 2).is_zero()


def _lie(field, labels, brackets):
    """A Lie algebra over field from (left, right, out label, (num, den)) brackets."""
    return lie_from_json({"labels": labels, "brackets": [
        {"left": x, "right": y, "out": {k: scalar_to_json(field.from_fraction(*c))}}
        for x, y, k, c in brackets]}, field)


def _so3(field):
    return _lie(field, ["x", "y", "z"],
                [("x", "y", "z", (1, 1)), ("y", "z", "x", (1, 1)), ("z", "x", "y", (1, 1))])


def _solvable4(field):
    # a acts on the Heisenberg algebra <b, c, d> with [b, c] = 3/2 d central
    return _lie(field, ["a", "b", "c", "d"],
                [("a", "b", "b", (1, 1)), ("a", "c", "c", (-1, 1)), ("b", "c", "d", (3, 2))])


def _cell_by_cell_cases():
    """Each algebra over QQ and GF(5) at grids 2, 0, 1 and 3, and sl2 over
    GF(2), whose trace form vanishes identically; the last field says
    whether the table has a nonzero cell."""
    for grid in (2, 0, 1, 3):
        for make, name in ((sl2, "sl2"), (_so3, "so3"), (_solvable4, "solvable4")):
            for field, fname in ((QQ, "QQ"), (PrimeField(5), "GF5")):
                suffix = "" if grid == 2 else f"-grid{grid}"
                yield pytest.param(make, field, grid, grid > 0, id=f"{name}-{fname}{suffix}")
    yield pytest.param(sl2, PrimeField(2), 2, False, id="sl2-GF2")


@pytest.mark.parametrize("make, field, grid, nonzero", _cell_by_cell_cases())
def test_kac_moody_grid_matches_block_cocycle_cell_by_cell(make, field, grid, nonzero):
    lie = make(field)
    shifts = range(-grid, grid + 1)
    expected = [(x, y, m, n, block_cocycle(ad_block(x, m, lie), ad_block(y, n, lie)))
                for x in lie.labels for y in lie.labels for m in shifts for n in shifts]
    assert [tuple(cell) for cell in kac_moody_grid(lie, grid)] == expected
    assert any(not value.is_zero() for *_, value in expected) == nonzero


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_level_1_off_diagonal_corners_are_trace_class(field):
    # the join sums level-1 corner pairs without a membership test
    rng = random.Random(62)
    for gen in (random_op, random_trace_class, random_generator_op):
        for _ in range(60):
            op = gen(rng, field)
            for quadrant in ("pm", "mp"):
                assert cubical_membership(corner(op, quadrant)).trace_class


def test_level_2_outer_corner_need_not_be_trace_class():
    # one outer cell (0, -1) holding the identity: its outer pm corner is
    # itself, and the identity is not trace-class one level down, so
    # tate_cocycle must keep trace_product's membership test
    ident = TateOp.identity(1, QQ)
    a = TateOp(2, QQ, corr={(0, -1): ident})
    b = TateOp(2, QQ, corr={(-1, 0): ident})
    assert corner(a, "pm") == a and corner(b, "mp") == b
    assert not cubical_membership(corner(a, "pm")).trace_class
    with pytest.raises(NotTraceClassError):
        tate_cocycle(a, b)
    # [P+, a] = a_pm - a_mp = a is not trace-class either, so the Hochschild
    # trace of a against b or the identity is undefined
    for other in (b, TateOp.identity(2, QQ)):
        with pytest.raises(NotTraceClassError):
            hochschild_residue(a, other)


def test_tate_cocycle_checks_level_and_field():
    with pytest.raises(LevelMismatchError, match="level 1 vs 2"):
        tate_cocycle(TateOp.identity(1, QQ), TateOp.identity(2, QQ))
    with pytest.raises(FieldMismatchError):
        tate_cocycle(TateOp.identity(1, QQ), TateOp.identity(1, PrimeField(5)))
    with pytest.raises(FieldMismatchError):
        tate_cocycle(TateOp.shift(1, 1, QQ), TateOp.shift(-1, 1, PrimeField(5)))


def test_block_op_rejects_other_operands():
    a = BlockOp.zero(2, QQ)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError, match="expected BlockOp, got TateOp"):
            op(a, TateOp.zero())
    assert a != TateOp.zero() and a != BlockOp.zero(2, PrimeField(5))
    assert a != BlockOp.zero(3, QQ) and a == BlockOp.zero(2, QQ)


def test_block_cocycle_checks_size_and_field():
    a = ad_block("e", 1, sl2(QQ))
    for other in (BlockOp.zero(2, QQ), ad_block("f", -1, sl2(PrimeField(5))),
                  BlockOp.zero(3, PrimeField(5))):
        with pytest.raises(ValueError, match="block dimension or field mismatch"):
            block_cocycle(a, other)
        with pytest.raises(ValueError, match="block dimension or field mismatch"):
            block_cocycle(other, a)

