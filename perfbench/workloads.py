"""Seeded inputs, call lists and independent checks for the three workloads.

A workload is built from a seed into a list of `Call`s.  Each call issues one
public tateops entry point (`cli.main` with generated argv and files, or a
library call on operators loaded from generated files) and carries the
expected value the generator computed without the engine (see oracle.py).
The engine modules arrive as the `api` argument; this file imports nothing
from tateops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import oracle
from oracle import ANTI, DIAG, Doc, Line

GF7 = 7
GF5 = 5
NONZERO = [n for n in range(-9, 10) if n]


@dataclass
class Call:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    expected: Any


def rand_scalar(rng: random.Random, p: Optional[int]):
    if p is None:
        return Fraction(rng.choice(NONZERO), rng.randint(1, 4))
    return rng.randint(1, p - 1)


def cli_call(api, kind: str, argv: list[str], expected: list[str] | None) -> Call:
    """`tateops <argv>` in-process; the output is (exit code, stdout lines)."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = api.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue().splitlines()

    return Call(kind, run, lambda got, exp: got == (0, exp), expected)


class Inputs:
    """Writes generated documents into the work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, doc: Any) -> str:
        path = self.dir / f"in{self.count:04d}.json"
        self.count += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# ----------------------------------------------------------------- kacmoody


def kacmoody(api, rng: random.Random, inputs: Inputs, tiny: bool) -> tuple[list, list | None]:
    """sl2 in a seeded basis: e and f rescaled by nonzero integers a and b,
    labels in a seeded order.  The table must be K(x, y) * m * delta(m + n)
    with K the trace form tr(ad x ad y) of the structure constants."""
    grid = 1 if tiny else 6
    a, b = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
    labels = ["e", "h", "f"]
    rng.shuffle(labels)
    brackets = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": a * b}}
    doc = {"labels": labels,
           "brackets": [{"left": x, "right": y, "out": {k: str(v) for k, v in out.items()}}
                        for (x, y), out in brackets.items()]}
    path = inputs.write(doc)

    def ad(x):
        """ad(x) as a matrix over the label order: column l is [x, x_l]."""
        table = {}
        for (u, v), out in brackets.items():
            for k, c in out.items():
                table[(u, v, k)] = table.get((u, v, k), 0) + c
                table[(v, u, k)] = table.get((v, u, k), 0) - c
        return [[Fraction(table.get((x, l, k), 0)) for l in labels] for k in labels]

    def killing(x, y):
        ax, ay = ad(x), ad(y)
        r = len(labels)
        return sum(ax[k][l] * ay[l][k] for k in range(r) for l in range(r))

    expected = [f"{x}\t{y}\t{m}\t{n}\t{killing(x, y) * m * (m + n == 0)}"
                for x in labels for y in labels
                for m in range(-grid, grid + 1) for n in range(-grid, grid + 1)]
    argv = ["kacmoody", "--lie-file", path, "--grid", str(grid)]
    warm = cli_call(api, "kacmoody", ["kacmoody", "--lie-file", path, "--grid", "1"], None)
    return [cli_call(api, "kacmoody", argv, expected)], [warm.run]


# -------------------------------------------------------------- trace-files


def finite_box(rng, p, n: int) -> Doc:
    """n cells in a side x side box containing the origin row/column range,
    with both diagonal corners set so the certificate window is exactly side."""
    side = math.isqrt(2 * n - 1) + 1
    lo = -rng.randrange(side)
    cells = {(lo, lo): rand_scalar(rng, p),
             (lo + side - 1, lo + side - 1): rand_scalar(rng, p)}
    while len(cells) < n:
        cells[(lo + rng.randrange(side), lo + rng.randrange(side))] = rand_scalar(rng, p)
    return Doc(1, [], cells)


def two_cells(rng, p, spread: int) -> Doc:
    """Two diagonal cells `spread` apart; certificate window spread + 1."""
    lo = -rng.randrange(spread + 1)
    return Doc(1, [], {(lo, lo): rand_scalar(rng, p),
                       (lo + spread, lo + spread): rand_scalar(rng, p)})


def anti_window(rng, p, spread: int, entries: int) -> Doc:
    """A flip-like anti line (left tail, `entries` window values) plus two
    diagonal cells, placed so the certificate window is exactly `spread`."""
    kill = -rng.randrange(9)
    off = 2 * kill - 1 - spread
    window = [rand_scalar(rng, p) for _ in range(entries)]
    line = Line(ANTI, off, rand_scalar(rng, p), 0, kill - entries, window)
    doc = Doc(1, [line], {})
    while len(doc.corr) < 2:
        d = rng.randrange(kill - spread, kill)
        if not line.holds(d, d):
            doc.corr[(d, d)] = rand_scalar(rng, p)
    return doc


def general_level1(rng, p) -> Doc:
    """Two or three lines with seeded limits (anti lines keep a zero right
    tail, as operators must) plus correction cells off every line."""
    doc = Doc(1, [], {})
    keys = set()
    lines, cells = rng.randint(2, 3), rng.randint(1, 3)
    while len(doc.lines) < lines:
        orient, off = rng.choice([DIAG, ANTI]), rng.randint(-5, 5)
        if (orient, off) in keys:
            continue
        keys.add((orient, off))
        if orient == ANTI:
            left, right = rand_scalar(rng, p), 0
        else:
            left, right = [(rand_scalar(rng, p), 0), (0, rand_scalar(rng, p)),
                           (rand_scalar(rng, p), rand_scalar(rng, p))][rng.randrange(3)]
        window = [rand_scalar(rng, p) for _ in range(rng.randint(0, 3))]
        doc.lines.append(Line(orient, off, left, right, rng.randint(-4, 4), window))
    while len(doc.corr) < cells:
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        if not doc.on_a_line(i, j):
            doc.corr[(i, j)] = rand_scalar(rng, p)
    return doc


def laurent(rng, p, terms: int, span: int) -> dict:
    exps = rng.sample(range(-span, span + 1), terms)
    return {e: rand_scalar(rng, p) for e in exps}


def laurent_text(f: dict) -> str:
    out = []
    for e, c in sorted(f.items()):
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {abs(c)}*t^{e}")
    return " ".join(out).lstrip("+ ")


def residue_sum(f: dict, g: dict, p):
    """res(f dg) = sum over k of k * f_{-k} * g_k."""
    return oracle.reduce(sum(k * f.get(-k, 0) * c for k, c in g.items()), p)


def mul_doc(f: dict) -> Doc:
    return Doc(1, [Line(DIAG, e, c, c, 0, []) for e, c in sorted(f.items())], {})


DATA_SIZES = (16, 32, 64, 128, 256)
SPREADS = (100, 200, 300, 400)
LAURENT_SIZES = ((8, 16), (16, 24), (24, 32))


def trace_files(api, rng: random.Random, inputs: Inputs, tiny: bool) -> tuple[list, list | None]:
    data_sizes = (16,) if tiny else DATA_SIZES
    spreads = (20,) if tiny else SPREADS
    laurent_sizes = LAURENT_SIZES[:1] if tiny else LAURENT_SIZES
    fields = (None, GF7)
    calls = []

    def trace_and_ideals(doc, p):
        path = inputs.write(oracle.to_json(doc, p))
        expected = [oracle.scalar_text(oracle.nested_trace(doc, p), p),
                    oracle.certificate_line(doc)]
        calls.append(cli_call(api, "trace", ["trace", path], expected))
        calls.append(cli_call(api, "ideals", ["ideals", path], oracle.ideal_lines(doc)))

    for n in data_sizes:
        for p in fields:
            trace_and_ideals(finite_box(rng, p, n), p)
    for k, spread in enumerate(spreads):
        p, q = fields[k % 2], fields[1 - k % 2]
        trace_and_ideals(two_cells(rng, p, spread), p)
        trace_and_ideals(anti_window(rng, q, spread, spread // 4), q)
    for k in range(2 if tiny else 8):
        p = fields[k % 2]
        doc = general_level1(rng, p)
        path = inputs.write(oracle.to_json(doc, p))
        tabular = k % 4 >= 2
        argv = ["ideals", path] + (["--format", "tabular"] if tabular else [])
        calls.append(cli_call(api, "ideals", argv, oracle.ideal_lines(doc, tabular)))
    for terms, span in laurent_sizes:
        for p in fields:
            f, g = laurent(rng, p, terms, span), laurent(rng, p, terms, span)
            paths = [inputs.write(oracle.to_json(mul_doc(h), p)) for h in (f, g)]
            expected = [oracle.scalar_text(-residue_sum(f, g, p), p)]
            calls.append(cli_call(api, "cocycle", ["cocycle"] + paths, expected))
        f, g = laurent(rng, None, terms, span), laurent(rng, None, terms, span)
        expected = [oracle.scalar_text(residue_sum(f, g, None), None)]
        calls.append(cli_call(api, "residue",
                              ["residue", laurent_text(f), laurent_text(g)], expected))
    return calls, None


# ------------------------------------------------------------------- level3


class LevelGen:
    """Seeded level-n documents over GF(5) with bounded size.

    Shapes (how many lines and cells, orientations, limit patterns, offsets
    and window starts) come from `shape`, a stream that is the same for
    every seed; the seeded stream `values` picks the scalars.  A pass then
    costs nearly the same on every seed: with shapes drawn per seed the cost
    of 50 rounds varied by ~20% between seeds, because a few heavy level-3
    operators dominate it.
    """

    def __init__(self, shape: random.Random, values: random.Random):
        self.rng = shape
        self.values = values

    def scalar(self):
        return self.values.randint(1, GF5 - 1)

    def _cells(self, doc: Doc, count: int, entry, diagonal: bool = False):
        while len(doc.corr) < count:
            i = self.rng.randint(-3, 3)
            j = i if diagonal and not doc.corr else self.rng.randint(-3, 3)
            if not doc.on_a_line(i, j) and (i, j) not in doc.corr:
                doc.corr[(i, j)] = entry()

    def trace_class(self, level: int) -> Doc:
        """Anti line with a trace-class left tail and zero right tail, plus
        cells (one on the diagonal); every entry trace-class one level down."""
        rng = self.rng
        entry = self.scalar if level == 1 else (lambda: self.trace_class(level - 1))
        zero = Doc(level, [], {}).entry_zero()
        doc = Doc(level, [], {})
        if rng.random() < 0.6:
            window = [entry() for _ in range(rng.randint(0, 1 if level > 1 else 2))]
            doc.lines.append(Line(ANTI, rng.randint(-3, 3), entry(), zero,
                                  rng.randint(-2, 2), window))
        self._cells(doc, rng.randint(1, 2), entry, diagonal=True)
        return doc

    def general(self, level: int) -> Doc:
        """One or two lines with seeded limits plus cells; entries general."""
        rng = self.rng
        entry = self.scalar if level == 1 else (lambda: self.general(level - 1))
        zero = Doc(level, [], {}).entry_zero()
        doc = Doc(level, [], {})
        keys = set()
        for _ in range(rng.randint(1, 2)):
            orient, off = rng.choice([DIAG, ANTI]), rng.randint(-2, 2)
            if (orient, off) in keys:
                continue
            keys.add((orient, off))
            if orient == ANTI:
                left, right = entry(), zero
            else:
                left, right = [(entry(), zero), (zero, entry()),
                               (entry(), entry())][rng.randrange(3)]
            window = [entry() for _ in range(rng.randint(0, 1))]
            doc.lines.append(Line(orient, off, left, right, rng.randint(-2, 2), window))
        self._cells(doc, rng.randint(0, 1), entry)
        return doc


def level3(api, rng: random.Random, inputs: Inputs, tiny: bool) -> tuple[list, list | None]:
    gen = LevelGen(random.Random("level3 shapes"), rng)
    p = GF5
    rounds = {2: 1, 3: 1} if tiny else {2: 30, 3: 20}
    calls = []

    def load(doc):
        path = inputs.write(oracle.to_json(doc, p))
        # The field must be given: an empty nested document (a zero entry)
        # would otherwise load over Q and clash with the GF(5) entries.
        return api.serial.load_op(Path(path).read_text(encoding="utf-8"),
                                  api.fields.PrimeField(p))

    def out_doc(op):
        return oracle.from_json(api.serial.op_to_json(op))

    def same_values(got: Doc, factors: list, samples) -> bool:
        return all(oracle.chain_value([[got]], idx, p) == oracle.chain_value(factors, idx, p)
                   for idx in samples)

    for level, count in rounds.items():
        for _ in range(count):
            a_doc, b_doc = gen.general(level), gen.general(level)
            t_docs = [gen.trace_class(level) for _ in range(2)]
            a, b = load(a_doc), load(b_doc)
            t1, t2 = (load(d) for d in t_docs)

            samples = oracle.sample_indices(rng, [[a_doc], [b_doc]], level, 12)
            calls.append(Call(
                "compose", lambda a=a, b=b: a * b,
                lambda got, exp: same_values(out_doc(got), exp[0], exp[1]),
                ([[a_doc], [b_doc]], samples)))

            for i in range(1, level + 1):
                samples = oracle.sample_indices(rng, [[a_doc]], level, 12)
                calls.append(Call(
                    "split_i", lambda a=a, i=i: _split_with_sum(api, a, i),
                    lambda got, exp: _check_split(api, got, exp, p),
                    (a_doc, i, samples)))

            for op, doc in ((a, a_doc), (t1, t_docs[0])):
                calls.append(Call(
                    "cubical_membership",
                    lambda op=op: api.cubical.cubical_membership(op),
                    lambda got, exp: (got.in_plus, got.in_minus, got.trace_class) == exp,
                    _expected_flags(doc)))

            calls.append(Call(
                "trace_n", lambda t=t1: str(api.cubical.trace_n(t)),
                lambda got, exp: got == exp,
                oracle.scalar_text(oracle.nested_trace(t_docs[0], p), p)))

            samples = oracle.sample_indices(rng, [[t_docs[0]], [t_docs[1]]], level, 12)
            calls.append(Call(
                "word_factorization",
                lambda w=[t1, t2]: api.cubical.word_factorization(w),
                lambda got, exp: (got.finite_at_all_levels
                                  and same_values(out_doc(got.product), exp[0], exp[1])),
                ([[t_docs[0]], [t_docs[1]]], samples)))

    return calls, None


def _split_with_sum(api, a, i: int):
    """split_i with the sum check the library promises: plus + minus == a."""
    plus, minus = api.cubical.split_i(a, i)
    return plus, minus, plus + minus == a


def _check_split(api, got, exp, p) -> bool:
    plus, minus, sums_back = got
    doc, i, samples = exp
    plus, minus = (oracle.from_json(api.serial.op_to_json(x)) for x in (plus, minus))
    if not (sums_back and oracle.flags(plus, i)[0] and oracle.flags(minus, i)[1]):
        return False
    for idx in samples:
        value = oracle.chain_value([[doc]], idx, p)
        keep = idx[doc.level - i][0] >= 0
        if oracle.chain_value([[plus]], idx, p) != (value if keep else 0):
            return False
        if oracle.chain_value([[minus]], idx, p) != (0 if keep else value):
            return False
    return True


def _expected_flags(doc: Doc):
    pm = [oracle.flags(doc, i) for i in range(1, doc.level + 1)]
    plus, minus = tuple(f[0] for f in pm), tuple(f[1] for f in pm)
    return plus, minus, all(plus) and all(minus)


BUILDERS = {"kacmoody": kacmoody, "trace-files": trace_files, "level3": level3}


def build(name: str, api, seed: int, workdir: Path, tiny: bool = False):
    """(calls, warm-up functions) for a workload; the same seed gives the same
    inputs.  Unless the workload names its own, the warm-up issues the first
    call of each kind."""
    rng = random.Random(f"{name}:{seed}")
    calls, warm = BUILDERS[name](api, rng, Inputs(workdir), tiny)
    if warm is None:
        first = {}
        for call in calls:
            first.setdefault(call.kind, call)
        warm = [call.run for call in first.values()]
    return calls, warm
