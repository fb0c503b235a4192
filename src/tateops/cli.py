"""Command-line front door.

Subcommands: residue, trace, ideals, cocycle, kacmoody, demo, selftest.
Output is exact and machine parseable, one result per line; identical inputs
give byte-identical output.  Exit codes: 0 success, 2 parse error, 3
precondition failure (including operator data that defines no operator), 4
internal invariant breach.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .cocycles import (_kac_moody_factors, lie_from_json, LieAlgebraError, residue,
                       residue_oracle, sl2, tate_cocycle)
from .counterexamples import check_not_sliced, QpEndo, qp_ideal_membership
from .cubical import cubical_membership, split_i, word_factorization
from .fields import NotPrimeError, PrimeField, QQ
from .laurent import LaurentParseError, parse_laurent
from .operators import ideal_membership, InvalidOperatorError, TateOp
from .random_ops import (random_laurent, random_op, random_op_level_n,
                         random_trace_class, random_trace_class_level_n)
from .serial import _decode, load_op, SchemaError
from .trace import certificate, NotTraceClassError, trace, trace_oracle
from fractions import Fraction

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_op(path: str) -> TateOp:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_op(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except SchemaError as exc:
        raise CliError(EXIT_PARSE, f"bad operator file {path}: {exc}") from exc


def _cmd_residue(args) -> list[str]:
    return [str(residue(parse_laurent(args.f), parse_laurent(args.g)))]


def _cmd_trace(args) -> list[str]:
    op = _read_op(args.op)
    try:
        out = [str(trace(op))]
        if op.level == 1:
            cert = certificate(op)
            out.append(f"certificate N={cert.N} N'={cert.N_prime} "
                       f"window={cert.window_size()}x{cert.window_size()}")
        return out
    except NotTraceClassError as exc:
        raise CliError(EXIT_PRECONDITION, f"not trace-class: {exc}") from exc


def _cmd_ideals(args) -> list[str]:
    op = _read_op(args.op)
    if op.level == 1:
        mem = ideal_membership(op)
        row = "none" if mem.bounding_row is None else str(mem.bounding_row)
        col = "none" if mem.kill_column is None else str(mem.kill_column)
        line = (f"bounded={str(mem.bounded).lower()} "
                f"discrete={str(mem.discrete).lower()} "
                f"trace_class={str(mem.trace_class).lower()}")
        if args.format == "tabular":
            return ["\t".join([str(mem.bounded).lower(), str(mem.discrete).lower(),
                               str(mem.trace_class).lower(), row, col])]
        return [line, f"bounding_row={row} kill_column={col}"]
    report = cubical_membership(op)
    out = []
    for i in range(report.n):
        out.append(f"variable={i + 1} in_plus={str(report.in_plus[i]).lower()} "
                   f"in_minus={str(report.in_minus[i]).lower()}")
    out.append(f"trace_class={str(report.trace_class).lower()}")
    return out


def _cmd_cocycle(args) -> list[str]:
    a = _read_op(args.op_a)
    b = _read_op(args.op_b)
    if a.level != 1 or b.level != 1:
        raise CliError(EXIT_PRECONDITION, "cocycle takes level-1 operators")
    if a.field != b.field:
        raise CliError(EXIT_PRECONDITION, "operands live over different fields")
    return [str(tate_cocycle(a, b))]


def _cmd_kacmoody(args) -> list[str]:
    if args.grid < 0:
        raise CliError(EXIT_PARSE, f"--grid must be >= 0, got {args.grid}")
    if args.lie_file is not None:
        try:
            with open(args.lie_file, "r", encoding="utf-8") as fh:
                lie = lie_from_json(_decode(fh.read()), QQ)
        except (OSError, UnicodeDecodeError, SchemaError) as exc:
            raise CliError(EXIT_PARSE, f"bad Lie algebra file: {exc}") from exc
        except LieAlgebraError as exc:
            raise CliError(EXIT_PRECONDITION, f"bad structure constants: {exc}") from exc
    elif args.lie == "sl2":
        lie = sl2(QQ)
    else:
        raise CliError(EXIT_PARSE, f"unknown Lie algebra {args.lie!r}; "
                       "ship structure constants via --lie-file")
    # Each line is x, y, m, n and K(x, y) * c(t^m, t^n), printed from the two
    # factors: each label pair, shift pair and distinct value is formatted
    # once, and only cells where both factors are nonzero are multiplied.  A
    # factor is nonzero exactly when it is not the shared zero, and a field
    # has no zero divisors, so a cell is zero exactly when a factor is.
    form, row = _kac_moody_factors(lie, args.grid)
    zero = lie.field.zero()
    zero_text = str(zero)
    text = {}
    heads = [(f"{m}\t{n}\t", c) for m, n, c in row]
    blank = [head + zero_text for head, _ in heads]
    out = []
    for a, x in enumerate(lie.labels):
        for b, y in enumerate(lie.labels):
            pair = f"{x}\t{y}\t"
            k = form.get((a, b))
            if k is None:
                if not args.nonzero:
                    out += [pair + tail for tail in blank]
                continue
            for (head, c), tail in zip(heads, blank):
                if c is not zero:
                    v = k * c
                    value = text.get(v)
                    if value is None:
                        value = text[v] = str(v)
                    out.append(pair + head + value)
                elif not args.nonzero:
                    out.append(pair + tail)
    return out


def _cmd_demo(args) -> list[str]:
    try:
        prime = int(args.prime)
        field_check = PrimeField(prime)
    except (ValueError, NotPrimeError) as exc:
        raise CliError(EXIT_PARSE, f"bad prime: {exc}") from exc
    out = []
    if args.what == "qp":
        for q in (Fraction(0), Fraction(1), Fraction(1, prime), Fraction(prime),
                  Fraction(prime + 1, prime)):
            flags = qp_ideal_membership(QpEndo(q, prime))
            out.append(f"q={q} bounded={str(flags.bounded).lower()} "
                       f"discrete={str(flags.discrete).lower()}")
        verdict = check_not_sliced(prime)
        out.append(f"not_sliced={str(verdict).lower()}")
        return out
    rng = random.Random(args.seed)
    checked = 0
    for _ in range(50):
        if not _split_holds(random_op(rng, field_check), 1):
            raise CliError(EXIT_INTERNAL, "sliced decomposition failed")
        checked += 1
    out.append(f"sliced_split_checks={checked} field=GF({prime}) ok=true")
    return out


def _split_holds(op: TateOp, i: int) -> bool:
    """Whether split_i(op, i) is a sliced decomposition: the parts sum to
    op, and plus lies in I_i^+ and minus in I_i^- (level 1: bounded, discrete)."""
    plus, minus = split_i(op, i)
    return (plus + minus == op and cubical_membership(plus).in_plus[i - 1]
            and cubical_membership(minus).in_minus[i - 1])


def _case_split_level1(rng) -> bool:
    return _split_holds(random_op(rng, QQ), 1)


def _case_trace_matches_oracle(rng) -> bool:
    op = random_trace_class(rng, QQ)
    return trace(op) == trace_oracle(op, 32)


def _case_commutator_vanishing(rng) -> bool:
    a = random_trace_class(rng, QQ)
    b = random_op(rng, QQ)
    return trace(a * b - b * a).is_zero()


def _case_residue_matches_oracle(rng) -> bool:
    f = random_laurent(rng, QQ, span=5)
    g = random_laurent(rng, QQ, span=5)
    return residue(f, g) == residue_oracle(f, g)


def _case_level2_split_and_words(rng) -> bool:
    op = random_op_level_n(rng, QQ, 2)
    if not (_split_holds(op, 1) and _split_holds(op, 2)):
        return False
    w = [random_trace_class_level_n(rng, QQ, 2) for _ in range(4)]
    return word_factorization(w).finite_at_all_levels


def _selftest_suites(quick: bool):
    """(name, case count, one-case function) per suite, in run order.  A case
    returns its verdict rather than asserting, so it checks under python -O."""
    n = 25 if quick else 100
    return [("split_level1", n, _case_split_level1),
            ("trace_matches_oracle", n, _case_trace_matches_oracle),
            ("commutator_vanishing", n, _case_commutator_vanishing),
            ("residue_matches_oracle", n, _case_residue_matches_oracle),
            ("level2_split_and_words", max(5, n // 5), _case_level2_split_and_words)]


def _cmd_selftest(args) -> list[str]:
    """Run every suite from one seeded stream; a failing suite stops at its
    first failing case and reports the seed and case index to replay it."""
    rng = random.Random(args.seed)
    out = []
    failures = 0
    for name, count, case in _selftest_suites(args.quick):
        failed = next((k for k in range(count) if not case(rng)), None)
        if failed is None:
            out.append(f"PASS {name} cases={count}")
        else:
            failures += 1
            out.append(f"FAIL {name} seed={args.seed} case={failed}")
    out.append(f"failures={failures}")
    if failures:
        raise CliError(EXIT_INTERNAL, "\n".join(out))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tateops",
        description="Exact operator algebra on Laurent-series spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residue", help="residue of f dg for Laurent polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn=_cmd_residue)

    p = sub.add_parser("trace", help="trace of a trace-class operator file")
    p.add_argument("op")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("ideals", help="ideal membership report for an operator file")
    p.add_argument("op")
    p.add_argument("--format", choices=["human", "tabular"], default="human")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("cocycle", help="corner 2-cocycle of two operator files")
    p.add_argument("op_a")
    p.add_argument("op_b")
    p.set_defaults(fn=_cmd_cocycle)

    p = sub.add_parser("kacmoody", help="loop-algebra cocycle table")
    p.add_argument("--lie", default="sl2")
    p.add_argument("--lie-file", default=None,
                   help="JSON structure-constants file (overrides --lie)")
    p.add_argument("--grid", type=int, default=3)
    p.add_argument("--nonzero", action="store_true",
                   help="only print nonzero cells")
    p.set_defaults(fn=_cmd_kacmoody)

    p = sub.add_parser("demo", help="counterexample demos")
    p.add_argument("what", choices=["qp", "fpt"])
    p.add_argument("--prime", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.fn(args)
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (LaurentParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotTraceClassError, NotPrimeError, InvalidOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return 0


if __name__ == "__main__":
    sys.exit(main())
