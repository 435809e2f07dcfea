"""Exact arithmetic for rational multiples of pi.

Every sign and ordering decision in the toolkit (crossing signs, x-coordinate
orderings, over/under choices) reduces to integer arithmetic on angles of the
form (p/q)*pi.  Floating point never enters: the sign of sin(r*pi) for
rational r is (-1)**floor(r), and cosines of angles folded into [0, pi] are
ordered by reversing the order of the folded fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def fold(r: Fraction) -> Fraction:
    """Fold the multiplier r of the angle r*pi into [0, 1].

    cos(r*pi) is even and 2pi-periodic in the angle, so r is taken mod 2
    and then reflected (x -> 2 - x) into [0, 1].  On that interval cosine
    is injective, so folded fractions are canonical keys for x-coordinate
    comparisons.
    """
    r = r % 2
    return 2 - r if r > 1 else r


@dataclass(frozen=True)
class RationalAngle:
    """The angle (p/q)*pi with integer p and positive integer q.

    The pair is stored unreduced: crossing enumeration produces whole batches
    of angles over a common denominator, and reducing each one eagerly costs
    more than the integer work it saves.  All queries reduce lazily.
    """

    p: int
    q: int = 1

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be a positive integer")

    @classmethod
    def of(cls, value) -> "RationalAngle":
        """Coerce a Fraction, int or (p, q) pair into a RationalAngle."""
        if isinstance(value, RationalAngle):
            return value
        if isinstance(value, Fraction):
            return cls(value.numerator, value.denominator)
        if isinstance(value, int):
            return cls(value)
        p, q = value
        return cls(p, q)

    def fraction(self) -> Fraction:
        """The reduced multiplier p/q."""
        return Fraction(self.p, self.q)

    def folded(self) -> Fraction:
        """p/q folded into [0, 1] (see ``fold``)."""
        return fold(Fraction(self.p, self.q))


def _sign_sin_frac(p: int, q: int) -> int:
    """Sign of sin((p/q)*pi) for integers p, q with q > 0."""
    if p % q == 0:
        return 0
    return -1 if (p // q) % 2 else 1


def sign_sin(x: RationalAngle) -> int:
    """Sign of sin(x) in {-1, 0, +1}.

    Zero exactly when p/q is an integer; otherwise (-1)**floor(p/q), using
    exact floor division.
    """
    return _sign_sin_frac(x.p, x.q)


def sign_cos(x: RationalAngle) -> int:
    """Sign of cos(x), via the complementary angle (1/2 - p/q)*pi."""
    return _sign_sin_frac(x.q - 2 * x.p, 2 * x.q)


def compare_cos(x: RationalAngle, y: RationalAngle) -> int:
    """Order cos(x) against cos(y): -1 (LT), 0 (EQ) or +1 (GT).

    Both angles are folded into [0, pi], where cosine strictly decreases,
    so the result is the reversed exact comparison of the folded fractions.
    """
    fx, fy = x.folded(), y.folded()
    if fx == fy:
        return 0
    return 1 if fx < fy else -1
