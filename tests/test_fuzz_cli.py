"""Fuzzing the command line with small generated operator and Lie documents.

Every document, well-formed or not, must end in a documented exit code: 0
success, 2 parse error or 3 precondition failure, never a traceback and
never 4, and each case must finish within the hypothesis deadline.  Line
offsets, window starts and cells are drawn from small values mixed with
values up to +-10^9: a line is stored as its steps, so a cell folded onto
it or a crossing far from its step costs the same as a near one.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from tateops import cli

FUZZ = settings(max_examples=30, deadline=timedelta(seconds=2))

junk = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=2), st.just({}))
coordinate = st.one_of(st.integers(-5, 5), st.integers(-10 ** 9, 10 ** 9))
rationals = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"))
residues = st.builds(lambda v: {"mod": 5, "val": v}, st.integers(-9, 9))
bad_scalars = st.one_of(
    junk, st.integers(-9, 9).map(lambda n: f"{n}/0"),
    st.fixed_dictionaries({"mod": st.sampled_from([4, 1, -5]), "val": st.integers(-9, 9)}))


def _op_docs(level: int, scalars):
    """Level-n operator documents over one field: entries are scalars at
    level 1 and level-(n-1) documents above."""
    entry = scalars if level == 1 else _op_docs(level - 1, scalars)
    line = st.fixed_dictionaries({
        "orientation": st.sampled_from(["diag", "anti"]),
        "offset": coordinate, "left_limit": entry, "right_limit": entry,
        "window_start": coordinate, "window": st.lists(entry, max_size=3)})
    cell = st.fixed_dictionaries({"row": coordinate, "col": coordinate, "value": entry})
    return st.fixed_dictionaries({"level": st.just(level),
                                  "lines": st.lists(line, max_size=2),
                                  "correction": st.lists(cell, max_size=3)})


def _without(doc: dict):
    """The document with one of its keys dropped."""
    return st.sampled_from(sorted(doc)).map(lambda k: {q: v for q, v in doc.items() if q != k})


def _damaged(doc: dict):
    """The document with one top-level key dropped, retyped or added."""
    return st.one_of(
        _without(doc),
        st.tuples(st.sampled_from(sorted(doc)),
                  st.one_of(junk, st.sampled_from([0, 3, "1", "vertical"]))).map(
            lambda kv: {**doc, kv[0]: kv[1]}),
        st.just({**doc, "extra": 1}))


well_formed = st.one_of(*(_op_docs(level, scalars) for level in (1, 2)
                          for scalars in (rationals, residues)))
op_docs = st.one_of(
    well_formed, well_formed,
    well_formed.flatmap(_damaged),
    _op_docs(1, st.one_of(rationals, residues, bad_scalars)),
    _op_docs(1, rationals).map(lambda d: {**d, "lines": [{**line, "orientation": "vertical"}
                                                         for line in d["lines"]]}),
    junk)


def _lie_docs(names):
    """Lie documents over the labels names, brackets drawn among them."""
    label = st.sampled_from(names) if names else st.just("e")
    bracket = st.fixed_dictionaries({
        "left": label, "right": label,
        "out": st.dictionaries(label, rationals, max_size=2)})
    return st.fixed_dictionaries({"labels": st.just(names),
                                  "brackets": st.lists(bracket, max_size=4)})


well_formed_lie = st.lists(st.sampled_from(["e", "h", "f", "x"]), unique=True,
                           max_size=4).flatmap(_lie_docs)
lie_docs = st.one_of(
    well_formed_lie, well_formed_lie,
    well_formed_lie.flatmap(lambda d: st.one_of(
        _without(d),
        junk.map(lambda j: {**d, "brackets": [{"left": "e", "right": "e", "out": j}]}),
        st.just({**d, "labels": d["labels"] * 2}),
        bad_scalars.map(lambda b: {**d, "brackets": [{"left": "e", "right": "e",
                                                      "out": {"e": b}}]}))),
    junk)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, argv, **docs) -> None:
    """Write each document to its own file, put the paths in argv and run
    the command line in process."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(workdir / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.format(**paths) for arg in argv])
    assert code in (0, 2, 3), (code, argv, docs, err.getvalue())
    assert (code == 0) != bool(err.getvalue())


@FUZZ
@given(op_docs, st.sampled_from([[], ["--format", "tabular"]]))
def test_fuzz_ideals(workdir, doc, fmt):
    _run(workdir, ["ideals", "{a}", *fmt], a=doc)


@FUZZ
@given(op_docs)
def test_fuzz_trace(workdir, doc):
    _run(workdir, ["trace", "{a}"], a=doc)


@FUZZ
@given(op_docs, op_docs)
def test_fuzz_cocycle(workdir, a, b):
    _run(workdir, ["cocycle", "{a}", "{b}"], a=a, b=b)


@FUZZ
@given(lie_docs, st.integers(0, 2), st.booleans())
def test_fuzz_kacmoody_lie_file(workdir, doc, grid, nonzero):
    _run(workdir, ["kacmoody", "--lie-file", "{lie}", "--grid", str(grid),
                   *(["--nonzero"] if nonzero else [])], lie=doc)
