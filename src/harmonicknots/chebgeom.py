"""Exact geometry of the plane Chebyshev curve x = T_a(t), y = T_b(t).

The (a-1)(b-1)/2 double points are parametrized by integer pairs (h, k)
with k/a + h/b < 1, at parameters t = cos((k/a + h/b)pi) and
s = cos((k/a - h/b)pi), both integer multiples of pi/(ab).  The
z-coordinate T_c(t) decides over/under and crossing signs, all computed
exactly through sine signs of rational angles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .exact import fold, sign_sin


class InvalidTripleError(ValueError):
    """The degrees are not pairwise coprime (or not normally ordered)."""


class DegenerateSignError(ValueError):
    """A sine factor vanished; only possible for non-coprime degrees."""


@dataclass(frozen=True)
class HarmonicTriple:
    """Pairwise coprime degrees (a, b, c) of the space curve
    (T_a(t), T_b(t), T_c(t)), with a < b.  c is unconstrained."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 1:
            raise InvalidTripleError("degrees must be positive integers")
        if self.a >= self.b:
            raise InvalidTripleError(
                f"expected a < b, got a={self.a}, b={self.b}")
        for x, y in ((self.a, self.b), (self.a, self.c), (self.b, self.c)):
            if gcd(x, y) != 1:
                raise InvalidTripleError(f"{x},{y} not coprime")

    @property
    def crossing_count(self) -> int:
        return (self.a - 1) * (self.b - 1) // 2


@dataclass(frozen=True)
class Crossing:
    """One double point of the plane projection.

    ``sign`` is the twist sign (+1 for a right twist, i.e. D > 0 for
    D = (z(t)-z(s)) x'(t) y'(t)); ``oriented_sign`` is the crossing sign of
    the oriented diagram, which the Alexander machinery needs.  ``x_order``
    ranks the crossing by decreasing x (symmetric partners share a rank),
    and ``y_level`` is the index j of the horizontal line y = cos(j pi / a)
    carrying the point.  The two passages sit at t = cos(t_num pi / ab) and
    s = cos(s_num pi / ab), with t_num = kb + ha and s_num = |kb - ha|,
    both already folded into [0, ab).
    """

    h: int
    k: int
    t_num: int
    s_num: int
    sign: int
    oriented_sign: int
    over_at_t: bool
    x_order: int
    y_level: int

    def mirrored(self) -> "Crossing":
        """The same double point of the mirror image: over/under and both
        signs flip."""
        return replace(self, sign=-self.sign,
                       oriented_sign=-self.oriented_sign,
                       over_at_t=not self.over_at_t)


def _sine_signs(K: HarmonicTriple, h: int, k: int) -> tuple[int, int, int, int]:
    """Signs of sin(ch/b pi), sin(ck/a pi), sin(ah/b pi), sin(bk/a pi)."""
    a, b, c = K.a, K.b, K.c
    signs = (
        sign_sin(c * h, b),
        sign_sin(c * k, a),
        sign_sin(a * h, b),
        sign_sin(b * k, a),
    )
    if 0 in signs:
        raise DegenerateSignError(
            f"zero sine at crossing (h={h}, k={k}) of H{(a, b, c)}")
    return signs


def crossing_signs(K: HarmonicTriple, h: int,
                   k: int) -> tuple[int, int, bool]:
    """(twist sign, oriented sign, over_at_t) of the crossing (h, k).

    z(t) - z(s) has the sign of -sin(ch/b pi) sin(ck/a pi), and the strand
    at t passes over iff it is positive.  The twist sign is +1 iff
    D = (z(t)-z(s)) x'(t) y'(t) > 0, where x'(t) y'(t) carries the sign
    (-1)^(h+k) sin(ah/b pi) sin(bk/a pi).  The oriented sign (writhe
    contribution) is the twist sign times the sign of sin((k/a - h/b)pi),
    which is the sign of kb - ha; the extra factor converts the
    same-parameter derivative product in D into the cross product of the
    two tangents.
    """
    s_chb, s_cka, s_ahb, s_bka = _sine_signs(K, h, k)
    zdiff = -s_chb * s_cka
    sign = zdiff * (-1 if (h + k) % 2 else 1) * s_ahb * s_bka
    return sign, sign * (1 if k * K.b > h * K.a else -1), zdiff > 0


def crossing_parameters(K: HarmonicTriple) -> list[tuple[int, int]]:
    """All (h, k) with h, k >= 1 and k/a + h/b < 1, i.e. kb + ha < ab."""
    a, b = K.a, K.b
    return [(h, k) for h in range(1, b) for k in range(1, a)
            if k * b + h * a < a * b]


def enumerate_crossings(K: HarmonicTriple) -> list[Crossing]:
    """All crossings, sorted by decreasing x-coordinate.

    Ties in x (symmetric partners, only for even a) are broken by the
    folded y angle, so the output order is deterministic.
    """
    a, b = K.a, K.b
    records = []
    for h, k in crossing_parameters(K):
        t_num = k * b + h * a
        # x = cos((t_num / b) pi), y = cos((t_num / a) pi)
        records.append((fold(t_num, b), fold(t_num, a), h, k, t_num))
    records.sort()
    crossings = []
    rank = -1
    last_fold = None
    for x_fold, y_level, h, k, t_num in records:
        if x_fold != last_fold:
            rank += 1
            last_fold = x_fold
        sign, oriented, over = crossing_signs(K, h, k)
        crossings.append(Crossing(
            h=h, k=k, t_num=t_num, s_num=abs(k * b - h * a), sign=sign,
            oriented_sign=oriented, over_at_t=over,
            x_order=rank, y_level=y_level))
    expected = K.crossing_count
    if len(crossings) != expected:
        raise DegenerateSignError(
            f"found {len(crossings)} crossings, expected {expected}")
    return crossings
