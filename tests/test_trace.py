"""Trace via lattice factorization: examples, independence, vanishing, additivity."""

import random
from functools import partial

import pytest

from tateops import (ANTI, DIAG, EvSeq, InsufficientWindowError, NotTraceClassError,
                     PrimeField, QQ, TateOp, certificate, ideal_membership,
                     op_to_json, parse_laurent, restrict_and_quotient, trace,
                     trace_oracle, trace_product)
from tateops.random_ops import (random_op, random_op_level_n, random_scalar,
                                random_trace_class, random_trace_class_level_n)

from dense_oracle import (dense_compose, dense_mul, dense_proj_plus, dense_trace,
                          nested_trace_oracle, window_agrees, window_trace)


def test_trace_examples():
    assert trace(TateOp.zero()).is_zero()
    assert trace(TateOp(1, QQ, corr={(0, 0): QQ.one()})) == QQ.one()
    halfline = TateOp(1, QQ, {(ANTI, 0): EvSeq.step(QQ.one(), QQ.zero(), 1)})
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


def test_certificate_rejects_exactly_what_trace_rejects():
    # outer lines trace-class, but the entry at (0, 0) is not
    inner_identity = TateOp(2, QQ, corr={(0, 0): TateOp.identity(1, QQ)})
    for fn in (trace, certificate):
        with pytest.raises(NotTraceClassError):
            fn(inner_identity)
    rng = random.Random(23)
    seen = set()
    for _ in range(60):
        for gen in (random_op, random_trace_class, partial(random_op_level_n, level=2),
                    partial(random_trace_class_level_n, level=2)):
            a = gen(rng, QQ)
            outcomes = []
            for fn in (trace, certificate):
                try:
                    fn(a)
                except NotTraceClassError:
                    outcomes.append(True)
                else:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1], (gen.__name__, op_to_json(a))
            seen.add((a.level, outcomes[0]))
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_oracle_window_validation():
    far = TateOp(1, QQ, corr={(9, 9): QQ.one()})
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
            certificate(a, n_m, np_m)
            assert window_trace(a, n_m, np_m) == value
        if mem.kill_column is not None:
            with pytest.raises(ValueError):
                certificate(a, base_n, mem.kill_column - 1)


def test_certificate_contents():
    a = TateOp(1, QQ, corr={(2, 2): QQ.from_int(3), (-1, -1): QQ.one()})
    cert = certificate(a)
    assert cert.N.m == min(-1, 3, 0)
    assert cert.N_prime.m == 3
    assert cert.window_size() == cert.N_prime.m - cert.N.m
    with pytest.raises(ValueError):
        certificate(a, n_m=0)  # does not contain the image row -1
    with pytest.raises(ValueError):
        certificate(a, n_prime_m=1)  # does not kill column 2
    assert window_agrees(a, cert.window_matrix, -1, 3, -1, 3)


def test_certificate_rejects_a_float_lattice_index():
    a = TateOp(1, QQ, corr={(0, 0): QQ.one(), (1, 1): QQ.one()})
    for n_m, n_prime_m in ((-0.5, 2), (0, 2.0), (-1.0, None)):
        with pytest.raises(TypeError):
            certificate(a, n_m, n_prime_m)
    assert certificate(a, -1, 2).window_size() == 3


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
    a = TateOp(1, QQ, corr={(0, 0): QQ.one(), (-1, -1): QQ.from_int(2)})
    rq = restrict_and_quotient(a, 0)
    assert rq.sub_ok
    assert trace(rq.restriction) == QQ.one()
    assert trace(rq.quotient) == QQ.from_int(2)
    assert trace(rq.restriction) + trace(rq.quotient) == trace(a)

    bad = restrict_and_quotient(TateOp.mul(parse_laurent("t^-1")), 0)
    assert not bad.sub_ok

    assert restrict_and_quotient(TateOp.mul(parse_laurent("t")), 0).sub_ok


def test_restrict_sub_ok_matches_column_scan():
    # a(t^m O) lies in t^m O iff no column j >= m has a nonzero entry in a
    # row below m.  Every window, offset and cell of these operators lies in
    # [-12, 12], so columns past 19 hold only diagonal right tails, in rows
    # >= 7 > m, and columns m..19 have no nonzero entry below row -32.
    rng = random.Random(31)
    counts = {True: 0, False: 0}
    for k in range(150):
        a = random_op(rng, QQ) if k % 3 else random_trace_class(rng, QQ)
        for (_, off), seq in a.lines.items():
            assert abs(off) <= 12 and -12 <= seq.window_start <= seq.window_end() <= 12
        assert all(abs(i) <= 12 and abs(j) <= 12 for (i, j) in a.corr)
        nonzero = [(i, j) for j in range(-6, 20) for i in range(-34, 6)
                   if not a.entry(i, j).is_zero()]
        for m in range(-6, 7):
            want = not any(j >= m and i < m for (i, j) in nonzero)
            assert restrict_and_quotient(a, m).sub_ok == want, (op_to_json(a), m)
            counts[want] += 1
    assert min(counts.values()) > 100


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
    a = TateOp.proj_plus(0) * TateOp(
        1, QQ, corr={(1, 1): QQ.from_int(4), (-2, -2): QQ.one(), (1, -2): QQ.from_int(7)})
    rq = restrict_and_quotient(a, 0)
    assert rq.sub_ok
    assert trace(rq.restriction) + trace(rq.quotient) == trace(a)


def test_flip_trace_is_zero():
    flip = TateOp.ind_to_pro_flip()
    # odd anti-diagonal: no crossing cells at all
    assert trace(flip).is_zero()
    assert trace_oracle(flip, 8).is_zero()


def test_trace_forwards_overrides_at_level_two():
    # trace takes no lattice; every pair certificate accepts at level 2 has
    # an induced window whose entry traces sum to trace(a)
    rank_one = TateOp(2, QQ, corr={(0, 0): TateOp(1, QQ, corr={(0, 0): QQ.one()})})
    assert trace(rank_one) == QQ.one()
    with pytest.raises(ValueError):
        certificate(rank_one, 10**9, -10**9)
    certificate(rank_one, -3, 4)
    assert window_trace(rank_one, -3, 4) == QQ.one()
    # N = t^1 O holds the image (row 5) and N' = t^3 O is killed (column 2):
    # the pair certifies at level 1 and at level 2 alike
    cell = TateOp(1, QQ, corr={(5, 2): QQ.one()})
    outer = TateOp(2, QQ, corr={(5, 2): TateOp(1, QQ, corr={(0, 0): QQ.one()})})
    for a in (cell, outer):
        assert certificate(a, 1).N_prime.m == 3
        certificate(a, 1, 3)
        assert trace(a).is_zero() and window_trace(a, 1, 3).is_zero()
    rng = random.Random(12)
    for _ in range(20):
        a = random_trace_class_level_n(rng, QQ, 2)
        row, kill = ideal_membership(a).bounding_row, a.kill_column()
        hi = (kill if kill is not None else 0) + rng.randint(0, 3)
        lo = (hi if row is None else min(row, hi)) - rng.randint(0, 3)
        value = trace(a)
        # a pair certifies exactly when N contains N', the image and the
        # kernel; then its window sums to the trace
        for n_m in range(lo - 1, hi + 3):
            for n_prime_m in range(hi - 2, hi + 2):
                if (n_m <= n_prime_m and (row is None or n_m <= row)
                        and (kill is None or n_prime_m >= kill)):
                    certificate(a, n_m, n_prime_m)
                    assert window_trace(a, n_m, n_prime_m) == value
                else:
                    with pytest.raises(ValueError):
                        certificate(a, n_m, n_prime_m)


def _random_level3(rng, field, trace_class):
    """A level-3 operator with level-2 entries; trace-class when asked."""
    entry = ((lambda: random_trace_class_level_n(rng, field, 2)) if trace_class
             else (lambda: random_op_level_n(rng, field, 2)))
    z = TateOp.zero(2, field)
    lines = {}
    if rng.random() < 0.7:
        lines[(ANTI, rng.randint(-2, 2))] = EvSeq(entry(), z, rng.randint(-1, 1), [entry()])
    if not trace_class and rng.random() < 0.5:
        lines[(DIAG, rng.randint(-1, 1))] = EvSeq(entry(), entry(), 0, [entry()])
    corr = {(rng.randint(-2, 2), rng.randint(-2, 2)): entry()
            for _ in range(rng.randint(0, 2))}
    return TateOp(3, field, lines, corr)


def _transposed_pattern(a):
    """A finite operator meeting each stored cell of a at its transpose:
    the transposed correction cells and line windows of a, each entry
    replaced by its own transposed pattern, and by 1 at level 1."""
    if not isinstance(a, TateOp):
        return a.field.one()
    corr = {(k, i): _transposed_pattern(v) for (i, k), v in a.corr.items()}
    for (orient, off), seq in a.lines.items():
        for k in range(seq.window_start, seq.window_end()):
            i = k + off if orient == DIAG else off - k
            corr[(k, i)] = _transposed_pattern(seq.value(k))
    return TateOp(a.level, a.field, corr=corr)


_GENERATORS = {
    1: (random_op, random_trace_class),
    2: (partial(random_op_level_n, level=2), partial(random_trace_class_level_n, level=2)),
    3: (lambda rng, field: _random_level3(rng, field, False),
        lambda rng, field: _random_level3(rng, field, True)),
}


def _diagonal_cell(field, indices, value):
    """The finite operator whose one nonzero entry is value, at the diagonal
    multi-index ((i, i) for i in indices), outermost variable first."""
    i, *rest = indices
    entry = _diagonal_cell(field, rest, value) if rest else value
    return TateOp(len(indices), field, corr={(i, i): entry})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [2, 3])
def test_trace_matches_nested_diagonal_sum(level, field):
    rng = random.Random(40 + level)
    _, trace_class = _GENERATORS[level]
    cases = {2: 40, 3: 20}[level]
    nonzero = 0
    for k in range(cases):
        a = trace_class(rng, field)
        if k % 2:
            # most random operators trace to zero; a diagonal cell seldom does
            a = a + _diagonal_cell(field, [rng.randint(-3, 3) for _ in range(level)],
                                   random_scalar(rng, field, zero_ok=False))
        want = nested_trace_oracle(a, 6)
        assert trace(a) == want, op_to_json(a)
        nonzero += not want.is_zero()
    assert nonzero >= cases // 2
    # a window that misses the diagonal support, at the outer or the inner
    # variable, or a diagonal line with a nonzero limit, is reported
    one = field.one()
    for a, half_width in ((_diagonal_cell(field, [4] + [0] * (level - 1), one), 3),
                          (_diagonal_cell(field, [0] * (level - 1) + [-5], one), 4),
                          (TateOp.identity(level, field), 9)):
        with pytest.raises(InsufficientWindowError):
            nested_trace_oracle(a, half_width)


def _outcome(fn):
    try:
        return fn()
    except NotTraceClassError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_trace_product_matches_trace_of_product(level, field):
    rng = random.Random(100 + level)
    general, trace_class = _GENERATORS[level]
    cases = {1: 80, 2: 60, 3: 20}[level]
    nonzero = rejected = 0
    for which in ("x", "y", "neither"):
        for _ in range(cases):
            x = (trace_class if which == "x" else general)(rng, field)
            y = (trace_class if which == "y" else general)(rng, field)
            if which != "neither":
                # a shift meets the diagonal lines and cells, the transposed
                # pattern every stored piece, so that many values are nonzero
                tc = x if which == "x" else y
                other = TateOp.shift(rng.choice([-1, 0, 1]), level, field)
                if rng.random() < 0.7:
                    other = other + _transposed_pattern(tc)
                x, y = (x, y + other) if which == "x" else (x + other, y)
            got = _outcome(lambda: trace_product(x, y))
            assert got == _outcome(lambda: trace(x * y)), (which, op_to_json(x), op_to_json(y))
            if which != "neither":
                nonzero += not got.is_zero()
            else:
                rejected += isinstance(got, tuple)
    assert nonzero >= cases // 4
    assert 0 < rejected < cases


def _line_free(rng, field, level, keys, meet=None):
    """A line-free trace-class operator with a nonzero entry at each key: a
    scalar at level 1, a trace-class operator one level down above it, or
    there the transposed pattern of ``meet``'s entry at the transposed key."""
    def entry(i, k):
        if level == 1:
            return random_scalar(rng, field, zero_ok=False)
        if meet is not None and (k, i) in meet.corr:
            return _transposed_pattern(meet.corr[k, i])
        while True:
            e = random_trace_class(rng, field)
            if not e.is_zero():
                return e
    return TateOp(level, field, corr={(i, k): entry(i, k) for (i, k) in keys})


def _line(rng, field, level):
    """One line: a shift (diagonal) or an anti line vanishing on the right."""
    if rng.random() < 0.5:
        return TateOp.shift(rng.randint(-1, 1), level, field)
    one = field.one() if level == 1 else TateOp.identity(level - 1, field)
    zero = field.zero() if level == 1 else TateOp.zero(level - 1, field)
    off = rng.randint(-2, 2)
    return TateOp(level, field, {(ANTI, off): EvSeq.step(one, zero, rng.randint(-1, 1))})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("level", [1, 2])
def test_trace_product_of_line_free_operators(level, field):
    # line-free factors pair their cells by transposed key alone; a line on
    # either side brings back the pairing through whole entries
    rng = random.Random(200 + level)
    nonzero = 0
    for meet in ("fully", "partly", "not at all"):
        for _ in range(12):
            xs = sorted({(rng.randint(-3, 3), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 4))})
            back = [(k, i) for (i, k) in xs]
            ys = {"fully": back,
                  "partly": back[:len(back) // 2] + [(rng.randint(-3, 3), 9)],
                  "not at all": [(k + 10, i) for (k, i) in back]}[meet]
            x = _line_free(rng, field, level, xs)
            y = _line_free(rng, field, level, ys, meet=x)
            got = trace_product(x, y)
            assert got == trace(x * y), (meet, op_to_json(x), op_to_json(y))
            if meet == "not at all":
                assert got.is_zero()
            nonzero += not got.is_zero()
            for x2, y2 in ((x, y + _line(rng, field, level)),
                           (x + _line(rng, field, level), y)):
                assert trace_product(x2, y2) == trace(x2 * y2), \
                    (meet, op_to_json(x2), op_to_json(y2))
    assert nonzero >= 12


@pytest.mark.parametrize("level", [1, 2])
def test_trace_product_of_line_free_operators_reads_no_entry(level, monkeypatch):
    # when neither factor stores a line, down to level 1, the pairing is by
    # cell keys alone: no entry is read
    def finite(cells):
        return TateOp(1, QQ, corr={key: QQ.from_int(v) for key, v in cells.items()})
    if level == 1:
        x = finite({(0, 1): 2, (1, 1): 3, (2, -1): 5})
        y = finite({(1, 0): 7, (1, 1): 11, (0, 0): 13})
    else:
        x = TateOp(2, QQ, corr={(0, 1): finite({(0, 0): 2, (1, 2): 3}),
                                (3, 3): finite({(4, 4): 5})})
        y = TateOp(2, QQ, corr={(1, 0): finite({(0, 0): 7, (2, 1): 11}),
                                (2, 2): finite({(0, 0): 13})})
    want = trace(x * y)
    assert not want.is_zero()

    def no_entry(self, i, j):
        raise AssertionError(f"entry({i}, {j}) read on a line-free factor")
    monkeypatch.setattr(TateOp, "entry", no_entry)
    assert trace_product(x, y) == want
    assert trace_product(y, x) == want
