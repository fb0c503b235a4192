"""One stored form per operator: wherever a diagonal and an anti line cross,
the diagonal carries the whole entry, so any two presentations of one entry
function store the same lines and cells.  They serialize identically, hash
equal, and get the same ideal flags and certifying indices, which are
checked against the entries themselves (dense_oracle.entry_flags and
dense_oracle.entry_indices).  Every stored value is the entry at its
place, so ``entry`` and the dense windows read one piece per place; they
are checked against the sum of the pieces (dense_oracle.window_agrees)."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_add, entry_flags, entry_indices, window_agrees
from tateops import (ANTI, DIAG, EvSeq, PrimeField, QQ, StandardLattice, TateOp, certificate,
                     cubical_membership, double_lattice_factorization, ideal_membership)
from tateops.random_ops import (random_op_level_n, random_scalar,
                                random_trace_class_level_n)
from tateops.serial import op_to_json

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])


def _operator(rng, field, level):
    """A random level-n operator, trace-class half the time."""
    if rng.random() < 0.5:
        return random_trace_class_level_n(rng, field, level)
    return random_op_level_n(rng, field, level)


def _entry(rng, field, level, nonzero=False):
    """A random entry of a level-n operator, nonzero when asked."""
    if level == 1:
        return random_scalar(rng, field, zero_ok=not nonzero)
    e = _operator(rng, field, level - 1)
    return TateOp.identity(level - 1, field) if nonzero and e.is_zero() else e


def _crossing_op(rng, field, level):
    """A diagonal and an anti line that cross at the anti window's last
    column, where half the time their values cancel."""
    zero = TateOp.zero(level, field).entry_zero()
    e, f, g = (_entry(rng, field, level, True) for _ in range(3))
    d, j = rng.randint(-3, 3), rng.randint(-3, 3)
    left, right = rng.choice([(zero, e), (e, zero), (e, e)])
    window = [_entry(rng, field, level) for _ in range(rng.randint(0, 2))]
    window.append(-g if rng.random() < 0.5 else f)
    return TateOp(level, field, {(DIAG, d): EvSeq(left, right, j, [g]),
                                 (ANTI, 2 * j + d): EvSeq(f, zero, j + 1 - len(window), window)})


def _presentation(a, rng):
    """a's lines and cells given another way: at each crossing of a
    diagonal with an anti line a random entry moves from the diagonal to
    the anti line, a random entry moves off a line into a cell on it, and
    both dicts are filled in a random order."""
    lines, corr = dict(a.lines), dict(a.corr)
    for orient, d in a.lines:
        for other, c in a.lines:
            if orient == DIAG and other == ANTI and (c - d) % 2 == 0:
                j, s = (c - d) // 2, _entry(rng, a.field, a.level)
                lines[(DIAG, d)] = lines[(DIAG, d)].with_added(j, -s)
                lines[(ANTI, c)] = lines[(ANTI, c)].with_added(j, s)
    if lines:
        orient, off = rng.choice(sorted(lines))
        seq = lines[(orient, off)]
        j, s = rng.randint(seq.window_start - 2, seq.window_end() + 1), _entry(rng, a.field, a.level)
        lines[(orient, off)] = seq.with_added(j, -s)
        corr[(j + off if orient == DIAG else off - j, j)] = s
    line_items, cell_items = list(lines.items()), list(corr.items())
    rng.shuffle(line_items)
    rng.shuffle(cell_items)
    return dict(line_items), dict(cell_items)


def test_level2_crossing_split_two_ways_is_one_operator():
    # A stores the identity at the crossing (0, 0) on the diagonal and its
    # negative on the anti line; B stores nothing there.  Before the crossing
    # rule A kept the identity as a stored value, so I_1^+ read False for A
    # and True for B
    one, flip, zero = TateOp.identity(1, QQ), TateOp.ind_to_pro_flip(QQ), TateOp.zero(1, QQ)
    a = TateOp(2, QQ, {(DIAG, 0): EvSeq(zero, flip, 0, [one]),
                       (ANTI, 0): EvSeq(flip, zero, 0, [-one])})
    b = TateOp(2, QQ, {(DIAG, 0): EvSeq(zero, flip, 1), (ANTI, 0): EvSeq(flip, zero, 0)})
    assert a == b and hash(a) == hash(b) and op_to_json(a) == op_to_json(b)
    assert cubical_membership(a) == cubical_membership(b)
    assert cubical_membership(a).in_plus == (True, True)


def test_certifying_indices_at_a_cancelling_crossing():
    # the two lines cancel at their crossing, so the least nonzero row is -2
    # and the first column of zeros is 2, not the crossing's -3 and 3
    one, zero = QQ.one(), QQ.zero()
    bounded = TateOp(1, QQ, {(DIAG, 0): EvSeq.step(zero, one, -3),
                             (ANTI, -6): EvSeq.step(-one, zero, -2)})
    discrete = TateOp(1, QQ, {(DIAG, 0): EvSeq.step(one, zero, 3),
                              (ANTI, 4): EvSeq(one, zero, 2, [-one])})
    assert ideal_membership(bounded).bounding_row == -2
    assert ideal_membership(discrete).kill_column == 2
    assert entry_indices(bounded)[0] == -2 and entry_indices(discrete)[1] == 2


@FIELDS
@pytest.mark.parametrize("level", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_presentations_of_one_operator_agree(level, field, seed):
    # two presentations that split crossings differently, put values of a
    # line into cells on it and fill the dicts in other orders build one
    # stored form: the same JSON, hash, ideal flags and indices
    rng = random.Random(seed)
    a = _crossing_op(rng, field, level) + _operator(rng, field, level)
    for b in (TateOp(level, field, *_presentation(a, rng)) for _ in range(2)):
        assert op_to_json(b) == op_to_json(a)
        assert b == a and hash(b) == hash(a)
        assert cubical_membership(b) == cubical_membership(a)
        assert ideal_membership(b) == ideal_membership(a)


@FIELDS
@pytest.mark.parametrize("level", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_box_readers_match_the_sum_of_the_pieces(level, field, seed):
    # entry, window_matrix, a factorization's matrix and a certificate's
    # window, on operators with a diagonal/anti crossing, against the sum
    # of the stored pieces through each place
    rng = random.Random(seed)
    a = _crossing_op(rng, field, level) + _operator(rng, field, level)
    box = range(-7, 8)
    assert window_agrees(a, a.window_matrix(-7, 8, -7, 8), -7, 8, -7, 8)
    assert all(window_agrees(a, ((a.entry(i, j),),), i, i + 1, j, j + 1)
               for i in box for j in box)
    fact = double_lattice_factorization(a, StandardLattice(rng.randint(-3, 3)),
                                        StandardLattice(rng.randint(-3, 3)))
    assert window_agrees(a, fact.matrix, *fact.rows, *fact.cols)
    t = random_trace_class_level_n(rng, field, level)
    cert = certificate(t)
    assert window_agrees(t, cert.window_matrix, cert.N.m, cert.N_prime.m,
                         cert.N.m, cert.N_prime.m)


@FIELDS
def test_cubical_membership_reads_the_entries(field):
    # flags from the stored values against flags read from the entries, on
    # operators whose crossings are given split two ways
    rng = random.Random(f"entry flags {field}")
    seen = set()
    for level in (1, 2, 3):
        for _ in range(10 if level < 3 else 4):
            a = _crossing_op(rng, field, level) + _operator(rng, field, level)
            for op in (a, TateOp(level, field, *_presentation(a, rng))):
                want = [entry_flags(op, k) for k in range(1, level + 1)]
                report = cubical_membership(op)
                assert list(zip(report.in_plus, report.in_minus)) == want
                seen.update((level, k, flags) for k, flags in enumerate(want, 1))
    # the variable below the outer one is seen in and out of both ideals
    for level, k in ((2, 1), (3, 2)):
        flags = {f for lv, kk, f in seen if (lv, kk) == (level, k)}
        assert {p for p, _ in flags} == {m for _, m in flags} == {True, False}


@FIELDS
def test_certifying_indices_match_a_dense_scan(field):
    # bounding_row and kill_column are the least nonzero row and one past the
    # last nonzero column, also where two lines cancel at their crossing
    rng = random.Random(f"indices {field}")
    seen = set()
    for level in (1, 2, 3):
        for _ in range(30 if level < 3 else 10):
            x = _crossing_op(rng, field, level)
            for op in (x, x + _operator(rng, field, level)):
                mem = ideal_membership(op)
                row, kill = entry_indices(op)
                if mem.bounded:
                    assert mem.bounding_row == row
                if mem.discrete:
                    assert mem.kill_column == kill
                seen.add((level, mem.bounded, mem.discrete))
    assert all((level, True, False) in seen and (level, False, True) in seen
               for level in (1, 2, 3))


def test_far_cell_and_far_crossing_on_a_constant_diagonal():
    # a windowless constant line takes a far value as a one-entry window, so
    # neither operator fills a window out to the column 10^9
    far = 10**9
    one, zero, five = QQ.one(), QQ.zero(), QQ.from_int(5)
    box = range(far - 3, far + 4)
    diagonal = {(j, j): one for j in box}
    anti_tail = {(2 * far - j, j): one for j in box if j < far}
    for build, dense in (
            (lambda: TateOp.identity() + TateOp(1, QQ, corr={(far, far): five}),
             dense_add(diagonal, {(far, far): five}, QQ)),
            (lambda: TateOp(1, QQ, {(DIAG, 0): EvSeq.constant(one),
                                    (ANTI, 2 * far): EvSeq(one, zero, far, [five])}),
             dense_add(dense_add(diagonal, anti_tail, QQ), {(far, far): five}, QQ))):
        start = time.perf_counter()
        op = build()
        assert time.perf_counter() - start < 0.1
        assert len(op.lines[(DIAG, 0)].window) == 1
        assert all(len(seq.window) <= 1 for seq in op.lines.values())
        for i in box:
            for j in box:
                assert op.entry(i, j) == dense.get((i, j), zero)
