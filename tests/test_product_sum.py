"""The bounded pair sum behind the corner cocycles.

``trace._product_sum(x, y, i_lo, i_hi, k_lo, k_hi)`` sums x(i, k) y(k, i)
over a box without cutting either factor.  Over the boxes of the pm and mp
corners it must equal the whole-plane sum of the cut corners and an
entry-by-entry sum over a window that covers every nonzero term, for
operators of every shape, also conjugated by shifts up to 10^6.  The line
sum under it, ``EvSeq.sum`` of the ``operators._paired`` product, must
equal the explicit sum over any interval.  The cocycle stays antisymmetric
and satisfies the Lie cocycle identity at offsets up to 10^6.  Cost is
pinned by counting work, not by timing: the residue and the cocycles of
t^-N and t^N do the same operations at N = 2 and N = 2 * 10^5.
"""

import importlib
import operator
import random

import pytest

from tateops import (ANTI, DIAG, EvSeq, PrimeField, QQ, TateOp, cli, commutator, corner,
                     hochschild_residue, kac_moody_grid, parse_laurent, residue, sl2,
                     tate_cocycle)
from tateops.cocycles import _CORNERS, _kac_moody_factors
from tateops.operators import _paired, NEG_INF, POS_INF
from tateops.random_ops import random_laurent, random_op, random_scalar, random_trace_class

from dense_oracle import box_pair_sum

# read off the module, whose package attribute ``tateops.trace`` is the function
_product_sum = importlib.import_module("tateops.trace")._product_sum

PM, MP = _CORNERS["pm"], _CORNERS["mp"]
FAR = 10 ** 6
FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(5), id="GF5")]


def _anti_line(rng, field, c=None, at=None):
    """One anti line (ANTI, c) with a nonzero left tail and right tail 0, its
    window starting at column at."""
    seq = EvSeq(random_scalar(rng, field, zero_ok=False), field.zero(),
                rng.randint(-3, 3) if at is None else at,
                [random_scalar(rng, field) for _ in range(rng.randint(0, 3))])
    return TateOp(1, field, {(ANTI, rng.randint(-4, 4) if c is None else c): seq})


def _crossing(rng, field):
    """A diagonal with nonzero limits and an anti line that crosses it."""
    d = rng.randint(-3, 3)
    seq = EvSeq(random_scalar(rng, field, zero_ok=False),
                random_scalar(rng, field, zero_ok=False), rng.randint(-3, 3),
                [random_scalar(rng, field) for _ in range(rng.randint(0, 3))])
    anti = _anti_line(rng, field, c=d + 2 * rng.randint(-3, 3))
    return TateOp(1, field, {(DIAG, d): seq}) + anti


def _operator(rng, field):
    kind = rng.randrange(6)
    if kind == 0:
        return random_op(rng, field)
    if kind == 1:
        return random_trace_class(rng, field)
    if kind == 2:
        return TateOp.mul(random_laurent(rng, field, span=5))
    if kind == 3:
        return TateOp.ind_to_pro_flip(field).scale(random_scalar(rng, field, zero_ok=False))
    if kind == 4:
        return _anti_line(rng, field)
    return _crossing(rng, field)


def _facing(rng, op):
    """An operator whose lines and cells sit on the transposes of op's, with
    fresh values and windows, so that its pieces meet op's."""
    field = op.field
    lines = {}
    for orient, off in op.lines:
        right = random_scalar(rng, field) if orient == DIAG else field.zero()
        lines[(orient, -off if orient == DIAG else off)] = EvSeq(
            random_scalar(rng, field, zero_ok=False), right, rng.randint(-4, 4),
            [random_scalar(rng, field) for _ in range(rng.randint(0, 3))])
    corr = {(k, i): random_scalar(rng, field) for (i, k) in op.corr}
    return TateOp(1, field, lines, corr)


def _pair(rng, field, shift):
    """x and y, each conjugated by a shift drawn from shift(), where y faces
    x before conjugation; half the time both take the same shift, so that
    their anti lines still face each other after it."""
    x = _operator(rng, field)
    y = _facing(rng, x) + _operator(rng, field)
    sx = shift()
    sy = sx if rng.random() < 0.5 else shift()
    return _conjugated(x, sx), _conjugated(y, sy)


def _conjugated(op, s):
    """t^-s op t^s, whose entry (i, k) is op(i + s, k + s)."""
    return TateOp.shift(-s, 1, op.field) * op * TateOp.shift(s, 1, op.field)


def _far_shift(rng):
    return rng.choice([0, rng.randint(-5, 5), FAR, -FAR, FAR - 3, rng.randint(-FAR, FAR)])


def _reach(op):
    """The largest |coordinate| among line offsets, window ends and cells."""
    coords = [0]
    for (_, off), seq in op.lines.items():
        coords += [off, seq.window_start, seq.window_end()]
    coords += [c for cell in op.corr for c in cell]
    return max(map(abs, coords))


@pytest.mark.parametrize("field", FIELDS)
def test_corner_boxes_match_entry_by_entry_sums(field):
    # every nonzero term x(i, k) y(k, i) of a corner box lies within
    # 3 (reach x + reach y) + 2 of the origin: on a cell, at a crossing, on
    # a diagonal pair's columns [-d, 0) or between two anti windows
    rng = random.Random(2901)
    for _ in range(100):
        x, y = _pair(rng, field, lambda: rng.randint(-4, 4))
        width = 3 * (_reach(x) + _reach(y)) + 2
        for box in (PM, MP):
            assert _product_sum(x, y, *box) == box_pair_sum(x, y, box, width), (x, y, box)


@pytest.mark.parametrize("field", FIELDS)
def test_corner_boxes_match_cut_corners_at_far_shifts(field):
    rng = random.Random(2902)
    for _ in range(100):
        x, y = _pair(rng, field, lambda: _far_shift(rng))
        for box, (qx, qy) in ((PM, ("pm", "mp")), (MP, ("mp", "pm"))):
            assert _product_sum(x, y, *box) == _product_sum(corner(x, qx), corner(y, qy))
        assert tate_cocycle(x, y) == (
            _product_sum(corner(x, "pm"), corner(y, "mp"))
            - _product_sum(corner(y, "pm"), corner(x, "mp")))


@pytest.mark.parametrize("field", FIELDS)
def test_anti_pairs_with_windows_far_apart_match_cut_corners(field):
    # two anti lines on one offset meet along the whole stretch between
    # their windows, here across the corner boundary; cutting the corners
    # folds such a stretch into one cell per column, so the windows stay
    # within 2000 of the origin
    rng = random.Random(2903)
    near = 2000
    for _ in range(30):
        c = rng.randint(-5, 5)
        x, y = (_anti_line(rng, field, c=c,
                           at=rng.choice([0, near, -near, rng.randint(-near, near)]))
                for _ in range(2))
        for box, (qx, qy) in ((PM, ("pm", "mp")), (MP, ("mp", "pm"))):
            assert _product_sum(x, y, *box) == _product_sum(corner(x, qx), corner(y, qy))


def _integral_anti_line(field, c, at, values):
    """The anti line (ANTI, c) with left tail 1, right tail 0 and the integer
    window values from column at on."""
    window = [field.from_int(v) for v in values]
    return TateOp(1, field, {(ANTI, c): EvSeq(field.one(), field.zero(), at, window)})


@pytest.mark.parametrize("field", FIELDS)
def test_whole_plane_anti_pair_sums_the_stretch_in_window_work(field, work_counter):
    # y's window, reflected through c, lies distance columns left of x's,
    # and both left tails are 1 all along the stretch between them
    c = 3
    x = _integral_anti_line(field, c, 0, (2, -1, 4))
    works = []
    for distance in (10, FAR):
        y = _integral_anti_line(field, c, c + distance, (3, 0, -2))
        work_counter.clear()
        value = _product_sum(x, y)
        works.append(dict(work_counter))
        # the explicit sum over every column k where both can be nonzero
        sx, sy = x.lines[(ANTI, c)], y.lines[(ANTI, c)]
        explicit = sum(int(sx.value(k).value) * int(sy.value(c - k).value)
                       for k in range(c - sy.window_end() + 1, sx.window_end()))
        assert value == field.from_int(explicit)
    assert works[0] == works[1]


def _explicit_paired_sum(a, b, fn, orient, off, lo, hi):
    total = None
    for j in range(lo, hi):
        v = fn(a.value(j + off if orient == DIAG else off - j), b.value(j))
        total = v if total is None else total + v
    return total


@pytest.mark.parametrize("field", FIELDS)
def test_paired_sum_matches_the_explicit_sum(field):
    rng = random.Random(2905)

    def seq():
        return EvSeq(random_scalar(rng, field), random_scalar(rng, field), rng.randint(-6, 6),
                     [random_scalar(rng, field) for _ in range(rng.randint(0, 4))])

    zero = field.zero()
    for _ in range(400):
        a, b = seq(), seq()
        orient, off = rng.choice([DIAG, ANTI]), rng.randint(-6, 6)
        lo = rng.randint(-14, 14)
        hi = lo + rng.randint(0, 28)
        expected = _explicit_paired_sum(a, b, operator.mul, orient, off, lo, hi) or zero
        product = _paired(a, b, operator.mul, orient, off)
        assert product.sum(lo, hi, zero) == expected
        # an empty or reversed interval sums to zero
        assert product.sum(hi, lo, zero) is zero
        # an infinite interval sums when the tail products there vanish; every
        # window lies left of column 40
        b0 = EvSeq(b.left, zero, b.window_start, b.window)
        expected = _explicit_paired_sum(a, b0, operator.mul, orient, off, lo, 40) or zero
        assert _paired(a, b0, operator.mul, orient, off).sum(lo, POS_INF, zero) == expected


def test_a_nonzero_tail_over_an_infinite_stretch_raises():
    # no caller reaches it: on the whole plane one factor is trace-class
    ident = TateOp.identity(1, QQ)
    with pytest.raises(ValueError, match="infinite stretch"):
        _product_sum(ident, ident)
    with pytest.raises(ValueError, match="infinite stretch"):
        _product_sum(ident, ident, 0, POS_INF, NEG_INF, POS_INF)
    assert _product_sum(ident, ident, *PM).is_zero()


@pytest.mark.parametrize("field", FIELDS)
def test_cocycle_antisymmetry_and_lie_identity_at_far_offsets(field):
    rng = random.Random(2906)
    zero = field.zero()
    for _ in range(25):
        s = rng.choice([FAR, -FAR, rng.randint(-FAR, FAR)])
        a, b, c = (_conjugated(_operator(rng, field), s) for _ in range(3))
        assert tate_cocycle(a, b) == -tate_cocycle(b, a)
        assert tate_cocycle(a, a) is zero
        cyclic = (tate_cocycle(commutator(a, b), c) + tate_cocycle(commutator(b, c), a)
                  + tate_cocycle(commutator(c, a), b))
        assert cyclic == zero


def _laurent_pair(n, extra):
    f = f"t^-{n}" + (" + t^-3" if extra else "")
    g = f"t^{n}" + (" + t^3" if extra else "")
    return parse_laurent(f), parse_laurent(g)


@pytest.mark.parametrize("extra", [False, True], ids=["monomials", "with-t^3"])
@pytest.mark.parametrize("name", ["residue", "hochschild_residue", "tate_cocycle"])
def test_residue_work_does_not_grow_with_the_exponent(work_counter, name, extra):
    works, values = [], []
    for n in (2, 200_000):
        f, g = _laurent_pair(n, extra)
        if name == "residue":
            call = lambda: residue(f, g)
        else:
            fn = hochschild_residue if name == "hochschild_residue" else tate_cocycle
            a, b = TateOp.mul(f), TateOp.mul(g)
            call = lambda: fn(a, b)
        work_counter.clear()
        values.append(call())
        works.append(dict(work_counter))
    assert works[0] == works[1] and works[0]
    sign = -1 if name == "tate_cocycle" else 1
    assert values == [QQ.from_int(sign * (n + 3 * extra)) for n in (2, 200_000)]


def test_cli_residue_at_a_far_exponent(capsys):
    assert cli.main(["residue", "t^-200000", "t^200000"]) == 0
    assert capsys.readouterr().out == "200000\n"


def test_kac_moody_tables_reject_a_negative_grid():
    lie = sl2(QQ)
    for fn in (_kac_moody_factors, kac_moody_grid):
        with pytest.raises(ValueError, match="grid must be >= 0, got -1"):
            fn(lie, -1)
    assert len(kac_moody_grid(lie, 0)) == 9
