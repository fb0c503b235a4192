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
    because a Scalar is never mutated."""

    __slots__ = ("_zero", "_one")

    def _make_constants(self) -> None:
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

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
            cls._instance._make_constants()
        return cls._instance

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, Fraction(n))

    def from_fraction(self, numerator: int, denominator: int) -> "Scalar":
        return Scalar(self, Fraction(numerator, denominator))

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
            inst._make_constants()
            cls._cache[p] = inst
        return inst

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, n % self.p)

    def from_fraction(self, numerator: int, denominator: int) -> "Scalar":
        if denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {denominator} is 0 mod {self.p}")
        inv = pow(denominator % self.p, -1, self.p)
        return Scalar(self, (numerator * inv) % self.p)

    def __repr__(self):
        return f"GF({self.p})"


class Scalar:
    """An exact field element: a Fraction over QQ, a residue in [0, p) over F_p.

    Scalars are never mutated: nothing assigns to ``field`` or ``value``
    after construction.  That is what lets one instance be shared, as each
    field's ``zero()`` and ``one()`` are, and what lets ``x + zero``,
    ``zero + x`` and ``x - zero`` return ``x`` itself and ``-zero`` return
    ``zero`` when ``zero`` is that shared zero; every other operation returns
    a new Scalar.  The usual operators do exact field arithmetic and raise
    FieldMismatchError when the operands live in different fields, shared
    zero or not.
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
        return self.value == 0

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        zero = self.field._zero
        if other is zero:
            return self
        if self is zero:
            return other
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, (self.value + other.value) % self.field.p)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other is self.field._zero:
            return self
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, (self.value - other.value) % self.field.p)
        return Scalar(self.field, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, (self.value * other.value) % self.field.p)
        return Scalar(self.field, self.value * other.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by field zero")
        if isinstance(self.field, PrimeField):
            inv = pow(other.value, -1, self.field.p)
            return Scalar(self.field, (self.value * inv) % self.field.p)
        return Scalar(self.field, self.value / other.value)

    def __neg__(self) -> "Scalar":
        if self is self.field._zero:
            return self
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, (-self.value) % self.field.p)
        return Scalar(self.field, -self.value)

    def times_int(self, n: int) -> "Scalar":
        """Multiply by an integer; over F_p the integer reduces mod p."""
        return self * self.field.from_int(n)

    def __eq__(self, other) -> bool:
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
