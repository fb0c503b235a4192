"""Seeded random generators for scalars, polynomials and operators.

Everything is driven by an explicit random.Random so property suites and the
selftest command are reproducible; the generated operators stay small enough
that exact arithmetic suites finish quickly.
"""

from __future__ import annotations

import random

from .fields import _accumulate, Field, PrimeField, Scalar
from .laurent import LaurentPoly
from .operators import ANTI, DIAG, EvSeq, TateOp


def random_scalar(rng: random.Random, field: Field, zero_ok: bool = True) -> Scalar:
    if isinstance(field, PrimeField):
        lo = 0 if zero_ok else 1
        return field.from_int(rng.randrange(lo, field.p))
    num = rng.randint(-6, 6)
    if not zero_ok and num == 0:
        num = 1
    den = rng.randint(1, 4)
    return field.from_fraction(num, den)


def random_laurent(rng: random.Random, field: Field, span: int = 8,
                   max_terms: int = 4) -> LaurentPoly:
    out: dict[int, Scalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        out[rng.randint(-span, span)] = random_scalar(rng, field)
    return LaurentPoly(field, out)


def _random_cells(rng: random.Random, field: Field) -> TateOp:
    """One to three random cells."""
    cells = {(rng.randint(-4, 4), rng.randint(-4, 4)): random_scalar(rng, field)
             for _ in range(rng.randint(1, 3))}
    return TateOp(1, field, corr=cells)


def _random_anti_line(rng: random.Random, field: Field) -> TateOp:
    """One anti-diagonal line with a random left limit and right limit 0."""
    seq = EvSeq.of(random_scalar(rng, field), field.zero(), rng.randint(-3, 3),
                   [random_scalar(rng, field) for _ in range(rng.randint(0, 3))])
    return TateOp(1, field, {(ANTI, rng.randint(-4, 4)): seq})


def random_generator_op(rng: random.Random, field: Field) -> TateOp:
    """One operator from the generator set {mul, shift, proj, finite, anti-line}."""
    kind = rng.choice(["mul", "shift", "proj_plus", "proj_minus", "finite", "anti"])
    if kind == "mul":
        return TateOp.mul(random_laurent(rng, field, span=3, max_terms=3))
    if kind == "shift":
        return TateOp.shift(rng.randint(-3, 3), 1, field)
    if kind == "proj_plus":
        return TateOp.proj_plus(rng.randint(-3, 3), 1, field)
    if kind == "proj_minus":
        return TateOp.proj_minus(rng.randint(-3, 3), 1, field)
    if kind == "finite":
        return _random_cells(rng, field)
    return _random_anti_line(rng, field)


def random_op(rng: random.Random, field: Field, terms: int = 3) -> TateOp:
    """A random sum of products of generators: a general member of the class."""
    total = TateOp.zero(1, field)
    for _ in range(rng.randint(1, terms)):
        prod = random_generator_op(rng, field)
        for _ in range(rng.randint(0, 1)):
            prod = prod * random_generator_op(rng, field)
        total = total + prod
    return total


def random_trace_class(rng: random.Random, field: Field) -> TateOp:
    """A random trace-class operator: finite diagonal pieces, anti-diagonal
    lines with vanishing right tail, finite corrections."""
    total = TateOp.zero(1, field)
    for _ in range(rng.randint(1, 3)):
        pick = rng.random()
        if pick < 0.4:
            total = total + _random_cells(rng, field)
        elif pick < 0.8:
            total = total + _random_anti_line(rng, field)
        else:
            seq = EvSeq.of(field.zero(), field.zero(), rng.randint(-3, 3),
                           [random_scalar(rng, field)
                            for _ in range(rng.randint(1, 3))])
            total = total + TateOp(1, field, {(DIAG, rng.randint(-3, 3)): seq})
    return total


def _lift_entries(rng, field, entry_source, level: int) -> TateOp:
    """Build a level-n operator whose entries come from entry_source()."""
    z = TateOp.zero(level - 1, field)
    lines: dict[tuple[str, int], EvSeq] = {}
    corr: dict[tuple[int, int], TateOp] = {}
    for _ in range(rng.randint(0, 2)):
        window = [entry_source() for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            seq = EvSeq.of(entry_source(), z, rng.randint(-2, 2), window)
            key = (ANTI, rng.randint(-3, 3))
        else:
            seq = EvSeq.of(z, z, rng.randint(-2, 2), window) if rng.random() < 0.5 \
                else EvSeq.of(entry_source(), entry_source(), rng.randint(-2, 2), window)
            key = (DIAG, rng.randint(-2, 2))
        _accumulate(lines, key, seq)
    for _ in range(rng.randint(0, 2)):
        corr[(rng.randint(-3, 3), rng.randint(-3, 3))] = entry_source()
    return TateOp(level, field, lines, corr)


def random_op_level_n(rng: random.Random, field: Field, level: int) -> TateOp:
    """A general valid level-n operator (outer anti tails vanish on the right)
    whose entries are random level-(n-1) operators."""
    if level == 1:
        return random_op(rng, field, terms=2)
    return _lift_entries(rng, field, lambda: random_op_level_n(rng, field, level - 1),
                         level)


def random_trace_class_level_n(rng: random.Random, field: Field, level: int) -> TateOp:
    """A trace-class level-n operator: outer flags (no diagonal limit, anti
    tails vanishing on the right) plus trace-class entries one level down."""
    if level == 1:
        return random_trace_class(rng, field)
    z = TateOp.zero(level - 1, field)
    tc = lambda: random_trace_class_level_n(rng, field, level - 1)
    lines: dict[tuple[str, int], EvSeq] = {}
    corr: dict[tuple[int, int], TateOp] = {}
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.6:
            seq = EvSeq.of(tc(), z, rng.randint(-2, 2),
                           [tc() for _ in range(rng.randint(0, 2))])
            lines_key = (ANTI, rng.randint(-3, 3))
        else:
            seq = EvSeq.of(z, z, rng.randint(-2, 2),
                           [tc() for _ in range(rng.randint(1, 2))])
            lines_key = (DIAG, rng.randint(-2, 2))
        _accumulate(lines, lines_key, seq)
    for _ in range(rng.randint(0, 2)):
        corr[(rng.randint(-3, 3), rng.randint(-3, 3))] = tc()
    return TateOp(level, field, lines, corr)
