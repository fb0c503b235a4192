"""The stdout contract of the file-reading commands, frozen byte for byte.

Seeded operator files (levels 1-3 over Q and GF(5), the flip and a few
multiplication operators) go through `trace`, `ideals` (both formats) and
`cocycle`, and seeded Laurent pairs through `residue`, all via `cli.main`.
The sha256 of every exit code and stdout, in order, is pinned: a change to
normalization, equality or field handling must leave what users read alone.
So are the documents the seeded generators draw, which `selftest` and
`demo fpt` check.
"""

import hashlib
import json
import random

import pytest

from tateops import PrimeField, QQ, TateOp, cli, dump_op, level2_flip, op_to_json
from tateops.random_ops import (random_laurent, random_op, random_op_level_n,
                                random_trace_class, random_trace_class_level_n)


def _operators():
    """(name, operator) pairs from one seeded stream."""
    rng = random.Random("cli contract")
    ops = []
    for field in (QQ, PrimeField(5)):
        ops += [("op", random_op(rng, field)) for _ in range(3)]
        ops += [("tc", random_trace_class(rng, field)) for _ in range(3)]
        ops.append(("mul", TateOp.mul(random_laurent(rng, field, span=4))))
        ops.append(("op2", random_op_level_n(rng, field, 2)))
        ops.append(("tc2", random_trace_class_level_n(rng, field, 2)))
        ops.append(("op3", random_op_level_n(rng, field, 3)))
    ops.append(("flip", TateOp.ind_to_pro_flip(QQ)))
    ops.append(("flip2", level2_flip(QQ)))
    return ops


def _calls(tmp_path):
    rng = random.Random("cli contract calls")
    level1 = []
    calls = []
    for k, (name, op) in enumerate(_operators()):
        file = tmp_path / f"{k:02d}_{name}.json"
        file.write_text(dump_op(op))
        path = str(file)
        if op.level == 1:
            level1.append(path)
        calls += [["trace", path], ["ideals", path], ["ideals", "--format", "tabular", path]]
    # neighbours in the list, wrapping round; two pairs mix Q and GF(5) and exit 3
    calls += [["cocycle", a, b] for a, b in zip(level1, level1[1:] + level1[:1])]
    for _ in range(8):
        f, g = random_laurent(rng, QQ, span=6), random_laurent(rng, QQ, span=6)
        calls.append(["residue", "--", str(f), str(g)])
    return calls


def test_cli_stdout_contract_frozen(tmp_path, capsys):
    transcript = []
    for argv in _calls(tmp_path):
        code = cli.main(argv)
        out = capsys.readouterr().out
        transcript.append(f"{argv[0]} exit={code}\n{out}")
    text = "".join(transcript)
    codes = [line for line in text.splitlines() if " exit=" in line]
    assert len(codes) == 89
    # every outcome class appears: answers, and non-trace-class refusals
    assert any(c.endswith("exit=0") for c in codes)
    assert any(c.endswith("exit=3") for c in codes)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2db32ab95b547be02cc4993ce29ab58b5d41c2cba6279e962e44c1db83516c76"


@pytest.mark.parametrize("field, digest", [
    (QQ, "b481a57ff14b82c50b8921f9ae7916a09b866b766afd59cb5b691315da895dd6"),
    (PrimeField(5), "8d78c3285a28488ca241deb553ea7b73b58a2cc6f2abaf10c4ff6ecef32a5844"),
], ids=["QQ", "GF5"])
def test_seeded_generators_frozen(field, digest):
    # random_op and random_trace_class draw the same operators, seed by seed
    docs = [op_to_json(gen(random.Random(seed), field))
            for gen in (random_op, random_trace_class) for seed in range(200)]
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest
