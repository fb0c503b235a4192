"""Exact scalar arithmetic over the rationals or a prime field F_p.

Every value in the library is built from `Scalar`s.  A Scalar belongs to a
`Field` (either the rationals, backed by `fractions.Fraction`, or F_p with a
validated prime modulus) and all arithmetic is exact; there is no floating
point anywhere in this package.  Mixing scalars from different fields is an
error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


def _accumulate(terms: dict, key, v) -> None:
    """Add v into terms[key], or store it when key is new: the one
    accumulator for coefficients, correction cells and lines."""
    if key in terms:
        terms[key] = terms[key] + v
    else:
        terms[key] = v


def _subtract(terms: dict, key, v) -> None:
    """Subtract v from terms[key], or store -v when key is new: the one pass
    behind every ``-``, which negates only what the left operand lacks."""
    if key in terms:
        terms[key] = terms[key] - v
    else:
        terms[key] = -v


class FieldMismatchError(ValueError):
    """Arithmetic between scalars of different fields was attempted."""


class NotPrimeError(ValueError):
    """The modulus passed to PrimeField is not a prime number."""


# Deterministic Miller-Rabin over the primes 2..41 is exact below this bound
# (Sorenson and Webster, 2015); above it the test could accept a composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for n below MILLER_RABIN_BOUND, in O(log^3 n).

    Raises NotPrimeError for larger n, where the test is not known exact."""
    if n >= MILLER_RABIN_BOUND:
        raise NotPrimeError(
            f"{n} is at or above {MILLER_RABIN_BOUND}, the bound below which "
            "primality is decided exactly")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Base class for the two coefficient fields.

    There is one instance per field: ``RationalField()`` always returns the
    ``QQ`` singleton and ``PrimeField(p)`` the one instance made for p.  So
    field equality is identity, and the default ``==`` and hash are exact.
    Each field instance makes its zero and one once, when it is made, and
    ``zero()`` and ``one()`` return those shared scalars; sharing is safe
    because a Scalar is never mutated.  Every zero the library returns is
    the shared ``zero()``: ``from_int``, ``from_fraction`` and every
    operation whose value is 0 return it.  ``modulus`` is p for F_p and 0
    for the rationals, which reduce nothing."""

    __slots__ = ("_zero", "_one", "modulus")

    def _make_constants(self, modulus: int, zero, one) -> None:
        self.modulus = modulus
        self._zero = Scalar(self, zero)
        self._one = Scalar(self, one)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_int(self, n: int) -> "Scalar":
        raise NotImplementedError

    def from_fraction(self, numerator: int, denominator: int) -> "Scalar":
        raise NotImplementedError


class RationalField(Field):
    """The field of rational numbers with arbitrary-precision integers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
            cls._instance._make_constants(0, Fraction(0), Fraction(1))
        return cls._instance

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, Fraction(n)) if n else self._zero

    def from_fraction(self, numerator: int, denominator: int) -> "Scalar":
        value = Fraction(numerator, denominator)
        return Scalar(self, value) if value else self._zero

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """The prime field F_p; the modulus is checked for primality."""

    __slots__ = ("p",)
    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            if not _is_prime(p):
                raise NotPrimeError(f"{p} is not prime")
            inst = super().__new__(cls)
            inst.p = p
            inst._make_constants(p, 0, 1)
            cls._cache[p] = inst
        return inst

    def from_int(self, n: int) -> "Scalar":
        value = n % self.p
        return Scalar(self, value) if value else self._zero

    def from_fraction(self, numerator: int, denominator: int) -> "Scalar":
        if denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {denominator} is 0 mod {self.p}")
        value = numerator * pow(denominator % self.p, -1, self.p) % self.p
        return Scalar(self, value) if value else self._zero

    def __repr__(self):
        return f"GF({self.p})"


class Scalar:
    """An exact field element: a Fraction over QQ, a residue in [0, p) over F_p.

    Scalars are never mutated: nothing assigns to ``field`` or ``value``
    after construction.  That is what lets one instance be shared, also
    across threads, as each field's ``zero()`` and ``one()`` are.  Every
    operation whose value is 0 returns the shared zero, so ``x + zero``,
    ``zero + x`` and ``x - zero`` return ``x`` itself, and ``x * zero``,
    ``zero * x`` and ``-zero`` return ``zero``, at the cost of one identity
    test; every nonzero result is a new Scalar.  A zero built by hand, as
    ``Scalar(field, field.zero().value)``, still computes correctly: it
    only misses the short-cuts.  The operands are checked with one class-and-field test;
    the usual operators do exact field arithmetic, reducing mod the field's
    ``modulus`` when it is nonzero, and raise TypeError for an operand that
    is not a Scalar and FieldMismatchError when the operands live in
    different fields, shared zero or not.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: Union[Fraction, int]):
        self.field = field
        self.value = value

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")

    def is_zero(self) -> bool:
        return not self.value

    def __add__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            self._check(other)
        zero = field._zero
        if other is zero:
            return self
        if self is zero:
            return other
        value = self.value + other.value
        if field.modulus:
            value %= field.modulus
        return Scalar(field, value) if value else zero

    def __sub__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            self._check(other)
        if other is field._zero:
            return self
        value = self.value - other.value
        if field.modulus:
            value %= field.modulus
        return Scalar(field, value) if value else field._zero

    def __mul__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            self._check(other)
        zero = field._zero
        if self is zero or other is zero:
            return zero
        value = self.value * other.value
        if field.modulus:
            value %= field.modulus
        return Scalar(field, value) if value else zero

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by field zero")
        field = self.field
        if field.modulus:
            value = self.value * pow(other.value, -1, field.modulus) % field.modulus
        else:
            value = self.value / other.value
        return Scalar(field, value) if value else field._zero

    def __neg__(self) -> "Scalar":
        field = self.field
        if self is field._zero:
            return self
        value = -self.value
        if field.modulus:
            value %= field.modulus
        return Scalar(field, value) if value else field._zero

    def times_int(self, n: int) -> "Scalar":
        """Multiply by an integer; over F_p the integer reduces mod p."""
        return self * self.field.from_int(n)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"Scalar({self.field!r}, {self})"

    def __str__(self):
        if isinstance(self.field, PrimeField):
            return f"{self.value} mod {self.field.p}"
        frac: Fraction = self.value
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"


QQ = RationalField()
