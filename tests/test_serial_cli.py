"""Serialization round-trips and the command-line interface."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from dense_oracle import laurent_from_pairs
import tateops
from tateops import (kac_moody_grid, lie_from_json, PrimeField, QQ, Scalar, TateOp, cli,
                     dump_op, load_op, level2_flip, parse_laurent, trace)
from tateops.serial import SchemaError, op_from_json, op_to_json, scalar_from_json
from tateops.random_ops import random_op, random_op_level_n


def test_round_trip_level1():
    rng = random.Random(1)
    for _ in range(100):
        op = random_op(rng, QQ)
        text = dump_op(op)
        back = load_op(text)
        assert back == op
        assert dump_op(back) == text  # bit-exact


def test_round_trip_level2_and_fp():
    rng = random.Random(2)
    for _ in range(40):
        op = random_op_level_n(rng, QQ, 2)
        assert load_op(dump_op(op)) == op
    f7 = PrimeField(7)
    op = TateOp.mul(laurent_from_pairs(f7, [(0, 3), (2, 6)]))
    text = dump_op(op)
    assert '"mod": 7' in text
    assert load_op(text) == op
    phi = level2_flip(QQ)
    assert load_op(dump_op(phi)) == phi


@pytest.mark.parametrize("level", [2, 3])
def test_round_trip_fp_level_n_without_field(level):
    # the projection's nested zero entries carry no scalar of their own
    op = TateOp.proj_plus(0, level, PrimeField(5))
    text = dump_op(op)
    back = load_op(text)
    assert back.field == PrimeField(5)
    assert back == op
    assert dump_op(back) == text


def test_zero_operator_round_trip():
    z = TateOp.zero(1, QQ)
    assert load_op(dump_op(z)) == z


def test_schema_validation():
    with pytest.raises(SchemaError):
        load_op("{not json")
    with pytest.raises(SchemaError):
        op_from_json({"level": 0, "lines": [], "correction": []})
    with pytest.raises(SchemaError):
        op_from_json({"level": 1, "lines": [], "correction": [], "bogus": 1})
    with pytest.raises(SchemaError):
        op_from_json({"level": 1,
                      "lines": [{"orientation": "vertical", "offset": 0,
                                 "left_limit": "0", "right_limit": "0",
                                 "window_start": 0, "window": []}],
                      "correction": []})
    with pytest.raises(SchemaError):
        scalar_from_json({"mod": 7})
    with pytest.raises(SchemaError):
        # mixed fields in one document
        op_from_json({"level": 1, "lines": [],
                      "correction": [{"row": 0, "col": 0, "value": "1"},
                                     {"row": 1, "col": 1,
                                      "value": {"mod": 5, "val": 1}}]})


# child interpreters import tateops from the same tree as this one
_SRC = os.path.dirname(os.path.dirname(tateops.__file__))
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _run(*args, expect: int = 0):
    proc = subprocess.run([sys.executable, "-m", "tateops.cli", *args],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_cli_residue():
    assert _run("residue", "t^-1", "t") == "1\n"
    assert _run("residue", "t^-3", "t^3") == "3\n"
    # oracle: coeff_{-1} of (3t^-2 + 1/2 - t^5)(2t + t^-2) = 6
    assert _run("residue", "3*t^-2 + 1/2 - t^5", "t^2 - t^-1").strip() == "6"
    _run("residue", "t^", "t", expect=2)


def test_cli_residue_cost_follows_stored_cells(capsys):
    # no corner is cut: t^-20000 and t^20000 meet along a stretch of 20000
    # columns of the pm corner's box, and that stretch costs one product
    # times its length, the same at every exponent
    start = time.perf_counter()
    assert cli.main(["residue", "t^-20000", "t^20000"]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == "20000\n"


def test_cli_residue_two_term_cost(capsys):
    start = time.perf_counter()
    assert cli.main(["residue", "t^-20000 + t^-3", "t^20000 + t^3"]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == "20003\n"


def test_cli_kacmoody_many_labels_cost(tmp_path, capsys):
    # 24 labels and no brackets: the Jacobi check reads nonzero constants only
    lie_file = tmp_path / "abelian24.json"
    lie_file.write_text(json.dumps({"labels": [f"x{k}" for k in range(24)],
                                    "brackets": []}))
    start = time.perf_counter()
    assert cli.main(["kacmoody", "--lie-file", str(lie_file), "--grid", "0"]) == 0
    assert time.perf_counter() - start < 5.0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 24 * 24 and all(row.endswith("\t0") for row in rows)


def test_cli_kacmoody_cost_follows_structure_constants(tmp_path, capsys):
    # 96 labels and no brackets: every ad block is a zero BlockOp, so the
    # 9216 cells store no block and trace nothing
    lie_file = tmp_path / "abelian96.json"
    lie_file.write_text(json.dumps({"labels": [f"x{k}" for k in range(96)],
                                    "brackets": []}))
    start = time.perf_counter()
    assert cli.main(["kacmoody", "--lie-file", str(lie_file), "--grid", "0"]) == 0
    assert time.perf_counter() - start < 5.0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 96 * 96 and all(row.endswith("\t0") for row in rows)


def test_cli_kacmoody_grid_6_output_frozen(capsys):
    # the whole sl2 table at grid 6, byte for byte
    assert cli.main(["kacmoody", "--grid", "6"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 9 * 13 * 13
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c4d6bc1b964ae50c1975645494d4ea82f66d0783df30bae7977e6bfaceb94639"


def _brackets(*triples):
    return [{"left": x, "right": y, "out": out} for x, y, out in triples]


# QQ Lie files for the printer: sl2 with e and f rescaled so that [e, f] is
# -1/3 h, whose trace form prints as fractions; so3; a solvable algebra
# acting on a Heisenberg algebra; and an abelian one, whose table is zero
_PRINTED_LIE_FILES = {
    "sl2-rescaled": {"labels": ["f", "e", "h"], "brackets": _brackets(
        ("h", "e", {"e": "2"}), ("h", "f", {"f": "-2"}), ("e", "f", {"h": "-1/3"}))},
    "so3": {"labels": ["x", "y", "z"], "brackets": _brackets(
        ("x", "y", {"z": "1"}), ("y", "z", {"x": "1"}), ("z", "x", {"y": "1"}))},
    "solvable4": {"labels": ["a", "b", "c", "d"], "brackets": _brackets(
        ("a", "b", {"b": "1"}), ("a", "c", {"c": "-1"}), ("b", "c", {"d": "3/2"}))},
    "abelian": {"labels": ["u", "v"], "brackets": []},
}


@pytest.mark.parametrize("grid", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(_PRINTED_LIE_FILES))
def test_cli_kacmoody_prints_kac_moody_grid(tmp_path, capsys, name, grid):
    # the printer works from the factors K and c, kac_moody_grid from the
    # same factors through cells; the two must print the same table
    doc = _PRINTED_LIE_FILES[name]
    lie_file = tmp_path / "lie.json"
    lie_file.write_text(json.dumps(doc))
    cells = kac_moody_grid(lie_from_json(doc, QQ), grid)
    assert any(not cell.value.is_zero() for cell in cells) == (grid > 0 and name != "abelian")
    for flag in ([], ["--nonzero"]):
        assert cli.main(["kacmoody", "--lie-file", str(lie_file), "--grid", str(grid),
                         *flag]) == 0
        assert capsys.readouterr().out == "".join(
            f"{x}\t{y}\t{m}\t{n}\t{value}\n" for x, y, m, n, value in cells
            if not (flag and value.is_zero()))


def test_cli_kacmoody_formats_each_distinct_value_once(monkeypatch, capsys):
    import tateops.cocycles as cocycles
    formatted = []
    original = Scalar.__str__

    def counting(self):
        formatted.append(self)
        return original(self)

    def no_cell(*args):
        raise AssertionError("the printer builds no KacMoodyCell")

    monkeypatch.setattr(Scalar, "__str__", counting)
    monkeypatch.setattr(cocycles, "KacMoodyCell", no_cell)
    assert cli.main(["kacmoody", "--grid", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 9 * 13 * 13
    # one Scalar.__str__ per distinct printed value: the shared zero and the
    # K(x, y) * m of the 36 nonzero cells, not one per line
    assert len(formatted) == len({row.rsplit("\t", 1)[1] for row in rows}) <= 37


_SL2_BRACKET = {"left": "h", "right": "e", "out": {"e": "2"}}


@pytest.mark.parametrize("doc, path", [
    (["e", "h"], "$: Lie algebra document must be an object"),
    ({"brackets": []}, "$: missing key 'labels'"),
    ({"labels": "abc"}, "$.labels: expected an array"),
    ({"labels": 5}, "$.labels: expected an array"),
    ({"labels": [1, 2]}, "$.labels[0]: expected a string"),
    ({"labels": ["e", "h", "e"]}, "$.labels[2]: duplicate basis label 'e'"),
    ({"labels": ["e", "h"], "brackets": {"left": "h"}}, "$.brackets: expected an array"),
    ({"labels": ["e", "h"], "brackets": [_SL2_BRACKET, 7]},
     "$.brackets[1]: bracket must be an object"),
    ({"labels": ["e", "h"], "brackets": [{"left": "h", "out": {}}]},
     "$.brackets[0]: missing key 'right'"),
    ({"labels": ["e", "h"], "brackets": [{"left": ["h"], "right": "e", "out": {}}]},
     "$.brackets[0].left: unknown basis label ['h']"),
    ({"labels": ["e", "h"], "brackets": [{"left": "h", "right": "e", "out": 2}]},
     "$.brackets[0].out: expected an object"),
    ({"labels": ["e", "h"], "brackets": [{"left": "h", "right": "e", "out": {"q": "1"}}]},
     "$.brackets[0].out: unknown basis label 'q'"),
    ({"labels": ["e", "h"], "brackets": [{"left": "h", "right": "e", "out": {"e": "1/0"}}]},
     "$.brackets[0].out['e']: bad rational"),
    # JSON text, written as is: deep enough that a full repr would recurse past
    # the default limit, and too deep to decode
    ('{"labels": %s}' % ("[" * 1500 + "]" * 1500), "$.labels[0]: expected a string"),
    ('{"labels": %s}' % ("[" * 3000 + "]" * 3000), "$: document is nested too deeply"),
    ("[" * 100_000, "$: document is nested too deeply"),
], ids=["document-not-object", "missing-labels", "labels-string", "labels-not-array",
        "labels-not-strings", "duplicate-label", "brackets-not-array",
        "bracket-not-object", "missing-right", "left-not-label", "out-not-object",
        "out-unknown-label", "out-bad-scalar", "labels-nested-1500",
        "labels-nested-too-deeply", "bracket-flood"])
def test_cli_lie_file_schema_faults_exit_2(tmp_path, capsys, doc, path):
    lie_file = tmp_path / "bad.json"
    lie_file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["kacmoody", "--lie-file", str(lie_file), "--grid", "0"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad Lie algebra file: " + path), captured.err


@pytest.mark.parametrize("brackets", [
    # [x,y]=z, [y,z]=x, [x,z]=x violates Jacobi
    [{"left": "x", "right": "y", "out": {"z": "1"}},
     {"left": "y", "right": "z", "out": {"x": "1"}},
     {"left": "x", "right": "z", "out": {"x": "1"}}],
    # [x,y] and [y,x] both given as z
    [{"left": "x", "right": "y", "out": {"z": "1"}},
     {"left": "y", "right": "x", "out": {"z": "1"}}],
    # a scalar over Z/4, which is no field
    [{"left": "x", "right": "y", "out": {"z": {"mod": 4, "val": 1}}}],
], ids=["jacobi", "antisymmetry", "non-prime-modulus"])
def test_cli_lie_file_invalid_constants_exit_3(tmp_path, brackets):
    lie_file = tmp_path / "bad.json"
    lie_file.write_text(json.dumps({"labels": ["x", "y", "z"], "brackets": brackets}))
    _run("kacmoody", "--lie-file", str(lie_file), "--grid", "0", expect=3)


def test_cli_trace_and_ideals(tmp_path):
    op = TateOp(1, QQ, corr={(0, 0): QQ.one(), (3, 3): QQ.from_fraction(1, 2)})
    path = tmp_path / "op.json"
    path.write_text(dump_op(op))
    out = _run("trace", str(path))
    assert out.splitlines()[0] == "3/2"
    assert "certificate" in out

    ident = tmp_path / "ident.json"
    ident.write_text(dump_op(TateOp.identity()))
    out = _run("ideals", str(ident))
    assert "bounded=false discrete=false" in out
    _run("trace", str(ident), expect=3)

    flip = tmp_path / "flip.json"
    flip.write_text(dump_op(TateOp.ind_to_pro_flip()))
    out = _run("ideals", str(flip))
    assert "trace_class=true" in out

    out = _run("ideals", str(ident), "--format", "tabular")
    assert out.strip() == "false\tfalse\tfalse\tnone\tnone"

    lvl2 = tmp_path / "lvl2.json"
    lvl2.write_text(dump_op(level2_flip(QQ)))
    out = _run("ideals", str(lvl2))
    assert "variable=1 in_plus=true in_minus=true" in out
    assert "trace_class=true" in out

    _run("trace", str(tmp_path / "missing.json"), expect=2)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff{")  # not UTF-8
    _run("trace", str(latin1), expect=2)
    bad = tmp_path / "bad.json"
    bad.write_text("{\"level\": []}")
    _run("ideals", str(bad), expect=2)


def test_cli_trace_cost_follows_stored_cells(tmp_path, capsys):
    # two cells 20000 columns apart: the certificate window is 20006 wide,
    # but the trace reads only the one diagonal cell
    op = TateOp(1, QQ, corr={(-20000, 5): QQ.one(), (0, 0): QQ.from_int(3)})
    path = tmp_path / "spread.json"
    path.write_text(dump_op(op))
    start = time.perf_counter()
    assert cli.main(["trace", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == (
        "3\ncertificate N=t^-20000*O N'=t^6*O window=20006x20006\n")


def test_cli_ideals_cost_follows_stored_cells(tmp_path, capsys):
    # a correction cell far out on the identity line is folded into a
    # 300001-entry window, which canonicalization strips in linear time
    n = 300_000
    line = {"orientation": "diag", "offset": 0, "left_limit": "1", "right_limit": "1",
            "window_start": 0, "window": []}
    doc = {"level": 1, "lines": [line],
           "correction": [{"row": n, "col": n, "value": "1"}]}
    path = tmp_path / "far_cell.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["ideals", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == (
        "bounded=false discrete=false trace_class=false\n"
        "bounding_row=none kill_column=none\n")


def _nested_diagonal_text(level: int) -> str:
    """A level-n document whose every level is one diagonal line: left limit
    0, right limit the document one level down, window_start 1."""
    text = '"1"'
    for n in range(1, level + 1):
        zero = '"0"' if n == 1 else '{"level": %d, "lines": [], "correction": []}' % (n - 1)
        text = ('{"level": %d, "lines": [{"orientation": "diag", "offset": 0, '
                '"left_limit": %s, "right_limit": %s, "window_start": 1, '
                '"window": []}], "correction": []}' % (n, zero, text))
    return text


def test_cli_ideals_nested_diagonal_cost(tmp_path, capsys):
    # canonicalizing each line compares its zero left limit with the level
    # below; with the zero fast path of == the cost is linear in the level
    path = tmp_path / "nested40.json"
    path.write_text(_nested_diagonal_text(40))
    start = time.perf_counter()
    assert cli.main(["ideals", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 41
    assert out[0] == "variable=1 in_plus=true in_minus=false"
    assert out[-1] == "trace_class=false"


@pytest.mark.parametrize("command", ["trace", "ideals"])
def test_cli_unreachable_level_exits_2(tmp_path, capsys, command):
    # no entries, so nothing nests: a level beyond the recursion limit
    # would make every per-variable loop run that many times
    path = tmp_path / "deep_claim.json"
    path.write_text('{"level": %d, "lines": [], "correction": []}' % 10 ** 30)
    start = time.perf_counter()
    assert cli.main([command, str(path)]) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.level" in captured.err


def test_cli_nested_level_330_loads(tmp_path):
    # level 330 is as deep as this shape decodes under the console-script
    # entry point; the level limit must not reject it
    path = tmp_path / "nested330.json"
    path.write_text(_nested_diagonal_text(330))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from tateops.cli import main; sys.exit(main())",
                           "ideals", str(path)], capture_output=True, text=True,
                          timeout=60, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert len(out) == 331 and out[-1] == "trace_class=false"


def _deep_correction_text(level: int) -> str:
    """A level-n document with one correction cell per level: 3n containers."""
    text = '"1"'
    for n in range(1, level + 1):
        text = '{"level": %d, "correction": [{"row": 0, "col": 0, "value": %s}]}' % (n, text)
    return text


@pytest.mark.parametrize("command, text, code", [
    ("ideals", _nested_diagonal_text(330), 0),
    ("trace", _deep_correction_text(400), 2),
    ("ideals", _deep_correction_text(400), 2),
    ("trace", _deep_correction_text(334), 2),
], ids=["330-loads", "400-trace-exits-2", "400-ideals-exits-2", "334-trace-exits-2"])
def test_cli_nesting_cap_under_python_m(tmp_path, command, text, code):
    # python -m stacks a few more start-up frames than the console script;
    # the nesting cap, not the caller's stack depth, decides what loads
    path = tmp_path / "nested.json"
    path.write_text(text)
    out = _run(command, str(path), expect=code).splitlines()
    assert len(out) == (331 if code == 0 else 0)


def _window_nested_text(level: int) -> str:
    """A level-n document whose every level is one diagonal line with zero
    limits and the document one level down as its only window entry: 4n
    containers, the most an operator document nests per level."""
    text = '"1"'
    for n in range(1, level + 1):
        zero = '{"level": %d, "lines": [], "correction": []}' % (n - 1) if n > 1 else '"0"'
        text = ('{"level": %d, "lines": [{"orientation": "diag", "offset": 0, '
                '"left_limit": %s, "right_limit": %s, "window_start": 0, '
                '"window": [%s]}], "correction": []}' % (n, zero, zero, text))
    return text


def _deep_correction_doc(level: int, claim=None) -> dict:
    """_deep_correction_text as Python objects; every level claims ``claim``
    when it is given."""
    doc = "1"
    for n in range(1, level + 1):
        doc = {"level": claim or n, "correction": [{"row": 0, "col": 0, "value": doc}]}
    return doc


def test_load_op_nesting_cap():
    limit = sys.getrecursionlimit()

    def nest(n, text):  # load with only ~20 frames left below the recursion limit
        return nest(n - 1, text) if n else load_op(text)

    assert nest(limit - len(inspect.stack(0)) - 20, _nested_diagonal_text(330)).level == 330
    # the deepest nesting the level cap admits decodes from a deep caller too
    deepest = nest(limit - len(inspect.stack(0)) - 20, _window_nested_text(333))
    assert deepest.level == 333 and trace(deepest) == QQ.one()
    assert sys.getrecursionlimit() == limit
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_op(_deep_correction_text(334))
    assert sys.getrecursionlimit() == limit
    # documents decoded elsewhere get the same cap, checked before descending
    with pytest.raises(SchemaError, match=r"^\$\.level: .*nested too deeply"):
        op_from_json(_deep_correction_doc(600))
    with pytest.raises(SchemaError, match=r"^\$\.correction\[0\]\.value: entry level 2"):
        op_from_json(_deep_correction_doc(5000, claim=2))
    assert sys.getrecursionlimit() == limit
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_op("[" * 100_000)
    assert time.perf_counter() - start < 1.0
    # brackets inside strings, escaped quotes included, are not nesting
    shallow = '{"level": 1, "lines": [], "correction": [], "note": "\\"%s"}' % ("[{" * 1500)
    with pytest.raises(SchemaError, match="unknown keys"):
        load_op(shallow)
    # a string that never closes, escaped quotes and all, is rejected in
    # linear time
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_op('"' + '\\"' * 50000 + "[" * 1001)
    assert time.perf_counter() - start < 1.0


def test_load_op_restores_recursion_limit_across_threads():
    # each load raises the process-wide limit and restores it; interleaved
    # loads must neither cut another's headroom nor leave the limit raised
    deep, shallow = _nested_diagonal_text(330), _nested_diagonal_text(2)
    limit, interval = sys.getrecursionlimit(), sys.getswitchinterval()
    errors = []

    def work(k):
        try:
            for _ in range(6):
                assert load_op(deep if k % 2 else shallow).level == (330 if k % 2 else 2)
        except Exception as exc:  # reported below, with the thread's result
            errors.append(exc)

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and sys.getrecursionlimit() == limit


def test_cli_trace_large_prime_modulus(tmp_path, capsys):
    # 2^61 - 1: primality is decided without trial division up to sqrt(p)
    path = tmp_path / "mersenne.json"
    path.write_text(json.dumps(_cell_doc(value={"mod": 2 ** 61 - 1, "val": 1})))
    start = time.perf_counter()
    assert cli.main(["trace", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.splitlines()[0] == f"1 mod {2 ** 61 - 1}"


def _cell_doc(**overrides):
    cell = {"row": 0, "col": 0, "value": "1", **overrides}
    return {"level": 1, "lines": [], "correction": [cell]}


def _line_doc(**fields):
    line = {"orientation": "anti", "offset": 0, "window_start": 0, "window": [], **fields}
    return {"level": 1, "lines": [line], "correction": []}


@pytest.mark.parametrize("argv, code, message", [
    (["trace", _cell_doc(value="1/0")], 2, "$.correction[0].value"),
    (["trace", _line_doc(right_limit="0")], 2, "$.lines[0]: missing key 'left_limit'"),
    (["trace", _cell_doc(row="x")], 2, "$.correction[0].row"),
    (["trace", _line_doc(left_limit="1", right_limit="1")], 3, "nonzero right tail"),
    (["trace", _cell_doc(value=True)], 2, "$.correction[0].value"),
    (["kacmoody", "--grid", "-1"], 2, "--grid"),
], ids=["zero-denominator", "missing-limit", "non-integer-row", "anti-right-tail",
        "bool-scalar", "negative-grid"])
def test_cli_malformed_input_exit_codes(tmp_path, capsys, argv, code, message):
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / "op.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    assert cli.main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, text, message", [
    (["trace"], json.dumps(_cell_doc(value={"pad": "x" * 10**6})),
     "$.correction[0].value: bad scalar document {'pad': 'xxx"),
    (["kacmoody", "--grid", "0", "--lie-file"], '{"labels": %s}' % ("[" * 1500 + "]" * 1500),
     "bad Lie algebra file: $.labels[0]: expected a string, got [[["),
    (["kacmoody", "--grid", "0", "--lie-file"],
     json.dumps({"labels": ["e", "x" * 10**6], "brackets": [
         {"left": "e", "right": "x" * 10**6, "out": {"x" * 10**6: "1/0"}}]}),
     "bad Lie algebra file: $.brackets[0].out['xxx"),
], ids=["megabyte-value", "labels-nested-1500", "megabyte-lie-label"])
def test_cli_schema_error_quotes_are_bounded(tmp_path, capsys, argv, text, message):
    # the offending value is quoted cut short, on one short stderr line
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err, captured.err[:300]
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300


@pytest.mark.parametrize("command", ["trace", "ideals"])
def test_cli_deeply_nested_file_exits_2(tmp_path, capsys, command):
    # a level-400 operator, one cell per level, nests 1200 JSON containers:
    # deeper than any document may be, so it is a schema error and not a
    # traceback; so is a text too deep to decode at all, and either is quick
    path = tmp_path / "deep.json"
    for text in (_deep_correction_text(400), "[" * 100_000):
        path.write_text(text)
        start = time.perf_counter()
        assert cli.main([command, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err


def test_cli_cocycle(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dump_op(TateOp.mul(parse_laurent("t^-1"))))
    b.write_text(dump_op(TateOp.mul(parse_laurent("t"))))
    assert _run("cocycle", str(a), str(b)) == "-1\n"


def test_cli_kacmoody_determinism(tmp_path):
    out1 = _run("kacmoody", "--lie", "sl2", "--grid", "2", "--nonzero")
    out2 = _run("kacmoody", "--lie", "sl2", "--grid", "2", "--nonzero")
    assert out1 == out2
    rows = [line.split("\t") for line in out1.strip().splitlines()]
    assert ["e", "f", "1", "-1", "4"] in rows
    assert ["h", "h", "2", "-2", "16"] in rows
    _run("kacmoody", "--lie", "e8", expect=2)
    # structure constants from a file: the 1-dim abelian algebra has zero cocycle
    lie_file = tmp_path / "abelian.json"
    lie_file.write_text(json.dumps({"labels": ["x"], "brackets": []}))
    out = _run("kacmoody", "--lie-file", str(lie_file), "--grid", "1", "--nonzero")
    assert out == ""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": ["x", "y"], "brackets": [
        {"left": "x", "right": "y", "out": {"q": "1"}}]}))
    _run("kacmoody", "--lie-file", str(bad), expect=2)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff{")  # not UTF-8
    _run("kacmoody", "--lie-file", str(latin1), expect=2)


def test_cli_demo_and_selftest():
    out = _run("demo", "qp", "--prime", "5")
    assert "not_sliced=true" in out
    assert "q=1 bounded=false discrete=false" in out
    out = _run("demo", "fpt", "--prime", "2")
    assert "ok=true" in out
    assert _run("demo", "fpt", "--prime", "5") == "sliced_split_checks=50 field=GF(5) ok=true\n"
    assert _run("selftest", "--quick") == (
        "PASS split_level1 cases=25\nPASS trace_matches_oracle cases=25\n"
        "PASS commutator_vanishing cases=25\nPASS residue_matches_oracle cases=25\n"
        "PASS level2_split_and_words cases=5\nfailures=0\n")
    _run("demo", "qp", "--prime", "6", expect=2)
    out = _run("selftest", "--quick", "--seed", "3")
    assert "failures=0" in out
    # determinism across runs with a fixed seed
    assert out == _run("selftest", "--quick", "--seed", "3")


def test_cli_selftest_failure_names_suite_seed_and_case(monkeypatch, capsys):
    monkeypatch.setattr(cli, "trace", lambda op, *args: QQ.from_int(12345))
    assert cli.main(["selftest", "--quick", "--seed", "3"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert "FAIL trace_matches_oracle seed=3 case=0" in err
    assert "FAIL commutator_vanishing seed=3 case=0" in err
    assert "PASS split_level1 cases=25" in err[0]
    assert err[-1] == "failures=2"


def test_cli_selftest_fails_under_python_O():
    # the cases return verdicts instead of asserting, so a wrong trace is
    # still caught when -O strips assert statements
    code = ("import sys; from tateops import QQ, cli; "
            "cli.trace = lambda op: QQ.from_int(12345); "
            "sys.exit(cli.main(['selftest', '--quick', '--seed', '3']))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=_ENV)
    assert proc.returncode == 4
    err = proc.stderr.splitlines()
    assert "FAIL trace_matches_oracle seed=3 case=0" in err
    assert err[-1] == "failures=2"


def test_document_schema_shape():
    doc = op_to_json(TateOp.ind_to_pro_flip())
    assert doc["level"] == 1
    line = doc["lines"][0]
    assert set(line) == {"orientation", "offset", "left_limit", "right_limit",
                         "window_start", "window"}
    assert line["orientation"] == "anti"
    assert json.dumps(doc)  # serializable
