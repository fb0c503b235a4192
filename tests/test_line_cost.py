"""Cost follows a line's steps, not the distance between them.

An EvSeq stores a line as its steps, so a run of one value costs one step
however long it is.  Each pin runs a near and a far case of one shape and
asserts that both do the same work, counted by ``work_counter``, and that
the far case's ``tracemalloc`` peak is within 2x of the near one's.  A
line stored as a dense window would materialize every entry between its
step and a far crossing, cell or cut, so its work and memory would grow
with the distance.  So would a cocycle that cut a level-n corner, which
folds a line into one cell per column, before summing it.
"""

import contextlib
import io
import json
import tracemalloc

import pytest

from tateops import (ANTI, DIAG, EvSeq, QQ, TateOp, cli, hochschild_residue,
                     tate_cocycle)


def _cost(work_counter, call):
    """(counts, tracemalloc peak in bytes, result) of one call."""
    work_counter.clear()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict(work_counter), peak, result


def _assert_same_cost(work_counter, near, far):
    """near and far do the same work within 2x of the same peak, and return
    the near and far results."""
    near_work, near_peak, near_result = _cost(work_counter, near)
    far_work, far_peak, far_result = _cost(work_counter, far)
    assert near_work == far_work and near_work
    assert far_peak <= 2 * near_peak, (near_peak, far_peak)
    return near_result, far_result


def test_a_far_crossing_costs_what_a_near_one_does(work_counter):
    # the anti line's nonzero left tail crosses the diagonal at column 0,
    # s columns left of its step; the crossing rule moves that one value
    one, zero, ident = QQ.one(), QQ.zero(), TateOp.identity()
    anti = {s: TateOp(1, QQ, {(ANTI, 0): EvSeq.step(one, zero, s)}) for s in (1, 10 ** 6)}
    near, far = _assert_same_cost(work_counter, lambda: ident + anti[1],
                                  lambda: ident + anti[10 ** 6])
    assert far.entry(0, 0) == near.entry(0, 0) == QQ.from_int(2)


def test_a_far_cell_on_a_step_line_composes_like_a_near_one(work_counter):
    ops = {s: TateOp.proj_plus(0) + TateOp(1, QQ, corr={(s, s): QQ.from_int(2)})
           for s in (10, 10 ** 5)}
    near, far = _assert_same_cost(work_counter, lambda: ops[10] * ops[10],
                                  lambda: ops[10 ** 5] * ops[10 ** 5])
    assert near.entry(10, 10) == far.entry(10 ** 5, 10 ** 5) == QQ.from_int(9)


def test_a_far_cell_file_reads_like_a_near_one(work_counter, tmp_path):
    # diag 0 = step(0, 1, 0) plus one cell at (c, c), which folds onto it
    paths = {}
    for c in (3, 3 * 10 ** 6):
        paths[c] = tmp_path / f"cell_{c}.json"
        paths[c].write_text(json.dumps({
            "level": 1,
            "lines": [{"orientation": "diag", "offset": 0, "left_limit": 0,
                       "right_limit": 1, "window_start": 0, "window": []}],
            "correction": [{"row": c, "col": c, "value": 5}]}))

    def ideals(c):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["ideals", str(paths[c])]) == 0
        return out.getvalue()

    near, far = _assert_same_cost(work_counter, lambda: ideals(3), lambda: ideals(3 * 10 ** 6))
    assert near == far == ("bounded=true discrete=false trace_class=false\n"
                           "bounding_row=0 kill_column=none\n")


def test_a_wide_cut_of_a_step_line_costs_what_a_narrow_one_does(work_counter):
    seq, zero = EvSeq.step(QQ.one(), QQ.zero(), 0), QQ.zero()
    bounds = {side: (-side // 2, side // 2) for side in (10, 10 ** 6)}
    near, far = _assert_same_cost(work_counter, lambda: seq.restrict(*bounds[10], zero),
                                  lambda: seq.restrict(*bounds[10 ** 6], zero))
    assert (near.left, near.starts, near.right) == (zero, (-5, 0), zero)
    assert (far.left, far.starts, far.right) == (zero, (-500000, 0), zero)


def _corner_cell(level):
    """The level-n operator whose one nonzero entry, at the origin of every
    variable, is 1."""
    cell = TateOp(1, QQ, corr={(0, 0): QQ.one()})
    for n in range(2, level + 1):
        cell = TateOp(n, QQ, corr={(0, 0): cell})
    return cell


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("fn, sign", [(tate_cocycle, 1), (hochschild_residue, -1)],
                         ids=["tate_cocycle", "hochschild_residue"])
def test_a_far_level_n_corner_sums_like_a_near_one(work_counter, fn, sign, level):
    # a = (DIAG, N) and b = (DIAG, -N), each a constant line of one cell one
    # level down: a's pm corner and b's mp corner hold N columns each, which
    # meet in N places, each a trace of 1
    cell = _corner_cell(level - 1)
    pairs = {n: tuple(TateOp(level, QQ, {(DIAG, d): EvSeq.constant(cell)}) for d in (n, -n))
             for n in (10, 10 ** 5)}
    fn(*pairs[10])  # makes the shared zero operators that both cases read
    near, far = _assert_same_cost(work_counter, lambda: fn(*pairs[10]),
                                  lambda: fn(*pairs[10 ** 5]))
    assert (near, far) == (QQ.from_int(sign * 10), QQ.from_int(sign * 10 ** 5))
