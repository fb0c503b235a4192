"""The p-adic endomorphism model where the bounded/discrete splitting fails.

Over finite abelian p-groups, the object "Q_p" = colim_i lim_j p^-i Z/p^j
has endomorphisms acting as multiplication by elements of Z[1/p].  A nonzero
multiplier q is injective with unbounded image: im(q) = Q_p lies in no
lattice p^m Z_p, and q kills no lattice.  So both ideals are {0}, and the
identity can never be written as a bounded plus a discrete endomorphism:
this space is not sliced, in contrast with F_p((t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import _is_prime, NotPrimeError


class NotPAdicError(ValueError):
    """The multiplier is not a p-integer fraction (denominator a power of p)."""


def _denominator_is_p_power(den: int, p: int) -> bool:
    while den % p == 0:
        den //= p
    return den == 1


@dataclass(frozen=True)
class QpEndo:
    """Multiplication by q in Z[1/p], an endomorphism of the model of Q_p."""

    q: Fraction
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise NotPrimeError(f"{self.p} is not prime")
        if not _denominator_is_p_power(self.q.denominator, self.p):
            raise NotPAdicError(
                f"{self.q} is not in Z[1/{self.p}]: denominator must be a power "
                f"of {self.p}")

    def __str__(self):
        return f"x -> {self.q} * x  on Q_{self.p}"


@dataclass(frozen=True)
class QpIdealFlags:
    bounded: bool
    discrete: bool


def qp_ideal_membership(e: QpEndo) -> QpIdealFlags:
    """Both ideals are {0}: a nonzero multiplier has image all of Q_p (inside
    no lattice p^m Z_p) and is injective (kills no lattice), so only the zero
    endomorphism is bounded or discrete."""
    is_zero = e.q == 0
    return QpIdealFlags(bounded=is_zero, discrete=is_zero)


_SAMPLES = 25  # check_not_sliced also sweeps k / p^(k mod 3) for 1 <= k < _SAMPLES


def check_not_sliced(p: int) -> bool:
    """Demonstrate mechanically that id = bounded + discrete is impossible.

    Sweeps sample multipliers to confirm the ideal flags force both summands
    of any decomposition of the identity to be zero, and 0 != 1.
    """
    zero = QpEndo(Fraction(0), p)
    flags = qp_ideal_membership(zero)
    if not (flags.bounded and flags.discrete):
        return False
    qs = [Fraction(1), Fraction(1, p), Fraction(p), Fraction(-1),
          Fraction(p + 1, p)]
    qs += [Fraction(k, p ** (k % 3)) for k in range(1, _SAMPLES)]
    for q in qs:
        flags = qp_ideal_membership(QpEndo(q, p))
        if flags.bounded or flags.discrete:
            return False
    # id = a + b with a bounded, b discrete would force a = b = 0, but the
    # identity multiplier is 1 != 0.
    return QpEndo(Fraction(1), p).q != 0
