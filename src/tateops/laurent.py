"""Finite-support Laurent polynomials, the computable dense subspace of k((t)).

A LaurentPoly is a sparse map exponent -> nonzero Scalar, all coefficients in
one field.  Operators in this package map finite support to finite support,
so no infinite tails are ever materialized and no truncation is needed.

The module also owns the exact textual syntax used by the command line:
terms ``c*t^n`` joined by ``+``/``-``, where ``c`` is a decimal integer or an
``a/b`` fraction, e.g. ``3*t^-2 + 1/2 - t^5``.  Parsing is whitespace
insensitive and exact.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from .fields import Field, FieldMismatchError, QQ, RationalField, Scalar


class LaurentParseError(ValueError):
    """The textual Laurent syntax could not be parsed."""


class LaurentPoly:
    __slots__ = ("field", "_coeffs")

    def __init__(self, field: Field, coeffs: Mapping[int, Scalar] | None = None):
        self.field = field
        clean: dict[int, Scalar] = {}
        for exp, c in (coeffs or {}).items():
            if c.field != field:
                raise FieldMismatchError("coefficient field differs from polynomial field")
            if not c.is_zero():
                clean[int(exp)] = c
        self._coeffs = clean

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, {})

    @classmethod
    def monomial(cls, field: Field, exp: int, coeff: Scalar | int = 1) -> "LaurentPoly":
        c = field.from_int(coeff) if isinstance(coeff, int) else coeff
        return cls(field, {exp: c})

    def coeff(self, n: int) -> Scalar:
        """Coefficient of t^n; the field zero when absent."""
        return self._coeffs.get(n, self.field.zero())

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def items(self) -> Iterator[tuple[int, Scalar]]:
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError("cannot mix Laurent polynomials over different fields")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            if exp in out:
                out[exp] = out[exp] + c
            else:
                out[exp] = c
        return LaurentPoly(self.field, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.field, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[int, Scalar] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return LaurentPoly(self.field, out)

    def scale(self, s: Scalar) -> "LaurentPoly":
        return LaurentPoly(self.field, {e: c * s for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Termwise t-derivative; over F_p the factor n reduces mod p."""
        return LaurentPoly(
            self.field, {e - 1: c.times_int(e) for e, c in self._coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.field, tuple(sorted(self._coeffs.items()))))

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        out = ""
        for exp, c in self.items():
            negative = isinstance(self.field, RationalField) and c.value < 0
            mag = -c if negative else c
            txt = str(mag)
            if exp == 0:
                term = txt
            else:
                t = "t" if exp == 1 else f"t^{exp}"
                term = t if txt == "1" else f"{txt}*{t}"
            if not out:
                out = f"-{term}" if negative else term
            else:
                out += f" - {term}" if negative else f" + {term}"
        return out


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])?
    (?:
        (?P<coeff>\d+(?:/\d+)?)
        (?:\*?(?P<tpart1>t(?:\^(?P<exp1>[+-]?\d+))?))?
      |
        (?P<tpart2>t(?:\^(?P<exp2>[+-]?\d+))?)
    )
    """,
    re.VERBOSE,
)


def parse_laurent(text: str, field: Field = QQ) -> LaurentPoly:
    """Parse the exact textual syntax, e.g. ``3*t^-2 + 1/2 - t^5``."""
    compact = "".join(text.split())
    if not compact:
        raise LaurentParseError("empty Laurent expression")
    if compact == "0":
        return LaurentPoly.zero(field)
    pos = 0
    first = True
    result = LaurentPoly.zero(field)
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if not m or m.end() == m.start():
            raise LaurentParseError(f"cannot parse {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise LaurentParseError(f"missing +/- between terms in {text!r}")
        negate = sign == "-"
        coeff_txt = m.group("coeff")
        if coeff_txt is not None:
            if "/" in coeff_txt:
                num, den = coeff_txt.split("/")
                coeff = field.from_fraction(int(num), int(den))
            else:
                coeff = field.from_int(int(coeff_txt))
            tpart, exp_txt = m.group("tpart1"), m.group("exp1")
        else:
            coeff = field.one()
            tpart, exp_txt = m.group("tpart2"), m.group("exp2")
        exp = 0
        if tpart is not None:
            exp = int(exp_txt) if exp_txt is not None else 1
        if negate:
            coeff = -coeff
        result = result + LaurentPoly.monomial(field, exp, coeff)
        pos = m.end()
        first = False
    return result
