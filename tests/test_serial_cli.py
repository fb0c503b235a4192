"""Serialization round-trips and the command-line interface."""

import json
import random
import subprocess
import sys
import time

import pytest

from dense_oracle import laurent_from_pairs
from tateops import (PrimeField, QQ, TateOp, cli, dump_op, load_op, level2_flip,
                     parse_laurent)
from tateops.serial import SchemaError, op_from_json, op_to_json, scalar_from_json
from tateops.random_ops import random_op, random_op_level2


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
        op = random_op_level2(rng, QQ)
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


def _run(*args, expect: int = 0):
    proc = subprocess.run([sys.executable, "-m", "tateops.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_cli_residue():
    assert _run("residue", "t^-1", "t") == "1\n"
    assert _run("residue", "t^-3", "t^3") == "3\n"
    # oracle: coeff_{-1} of (3t^-2 + 1/2 - t^5)(2t + t^-2) = 6
    assert _run("residue", "3*t^-2 + 1/2 - t^5", "t^2 - t^-1").strip() == "6"
    _run("residue", "t^", "t", expect=2)


def test_cli_trace_and_ideals(tmp_path):
    op = TateOp.from_finite(QQ, {(0, 0): QQ.one(), (3, 3): QQ.from_fraction(1, 2)})
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
    bad = tmp_path / "bad.json"
    bad.write_text("{\"level\": []}")
    _run("ideals", str(bad), expect=2)


def test_cli_trace_cost_follows_stored_cells(tmp_path, capsys):
    # two cells 20000 columns apart: the certificate window is 20006 wide,
    # but the trace reads only the one diagonal cell
    op = TateOp.from_finite(QQ, {(-20000, 5): QQ.one(), (0, 0): QQ.from_int(3)})
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


def test_cli_demo_and_selftest():
    out = _run("demo", "qp", "--prime", "5")
    assert "not_sliced=true" in out
    assert "q=1 bounded=false discrete=false" in out
    out = _run("demo", "fpt", "--prime", "2")
    assert "ok=true" in out
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


def test_document_schema_shape():
    doc = op_to_json(TateOp.ind_to_pro_flip())
    assert doc["level"] == 1
    line = doc["lines"][0]
    assert set(line) == {"orientation", "offset", "left_limit", "right_limit",
                         "window_start", "window"}
    assert line["orientation"] == "anti"
    assert json.dumps(doc)  # serializable
