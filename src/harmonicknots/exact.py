"""Exact arithmetic for rational multiples of pi.

Every sign and ordering decision in the toolkit (crossing signs, x-coordinate
orderings, over/under choices) reduces to integer arithmetic on angles
(p/q)*pi with integer p and positive integer q.  Floating point never
enters: the sign of sin((p/q)*pi) is (-1)**floor(p/q), and cosines of
angles over one denominator q are ordered by reversing the order of their
folded numerators.
"""

from __future__ import annotations


def fold(p: int, q: int) -> int:
    """Fold the angle (p/q)*pi into [0, pi]; return the new numerator.

    cos is even and 2pi-periodic, so p is taken mod 2q and then reflected
    (r -> 2q - r) into [0, q].  On that interval cosine is injective, so
    folded numerators over one q are canonical keys for x-coordinate
    comparisons, and a larger one means a smaller cosine.
    """
    r = p % (2 * q)
    return 2 * q - r if r > q else r


def sign_sin(p: int, q: int) -> int:
    """Sign of sin((p/q)*pi) in {-1, 0, +1}, for q > 0.

    Zero exactly when q divides p; otherwise (-1)**floor(p/q), using exact
    floor division.
    """
    if p % q == 0:
        return 0
    return -1 if (p // q) % 2 else 1
