"""Exact geometry of the plane Chebyshev curve x = T_a(t), y = T_b(t).

The (a-1)(b-1)/2 double points are parametrized by integer pairs (h, k)
with k/a + h/b < 1, at parameters t = cos((k/a + h/b)pi) and
s = cos((k/a - h/b)pi), both integer multiples of pi/(ab).  The
z-coordinate T_c(t) decides over/under and crossing signs, all computed
exactly through sine signs of rational angles.

Only the over/under choice at each double point depends on c, and both
signs follow from it.  So ``_frame`` builds, once per (a, b), every double
point in x order with its parameters, x rank, y level and both of its
possible crossings, in a cache bounded to 64 pairs (the crossing table
has 58), and ``enumerate_crossings`` picks one crossing per double point
from two sine signs.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import NamedTuple

from .errors import InputError, InternalError
from .exact import fold, sign_sin


class _TripleFields(NamedTuple):
    a: int
    b: int
    c: int


class HarmonicTriple(_TripleFields):
    """Pairwise coprime degrees (a, b, c) of the space curve
    (T_a(t), T_b(t), T_c(t)), with a < b.  c is unconstrained."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if min(a, b, c) < 1:
            raise InputError("degrees must be positive integers")
        if a >= b:
            raise InputError(f"expected a < b, got a={a}, b={b}")
        for x, y in ((a, b), (a, c), (b, c)):
            if gcd(x, y) != 1:
                raise InputError(f"{x},{y} not coprime")
        return tuple.__new__(cls, (a, b, c))

    @property
    def crossing_count(self) -> int:
        return (self.a - 1) * (self.b - 1) // 2


class Crossing(NamedTuple):
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
        signs flip.  Built by the constructor: ``_replace`` leaves a
        9-item tuple in the interpreter's free list per call."""
        return Crossing(self.h, self.k, self.t_num, self.s_num, -self.sign,
                        -self.oriented_sign, not self.over_at_t,
                        self.x_order, self.y_level)


@functools.lru_cache(maxsize=64)
def _frame(a: int, b: int) -> tuple[tuple[Crossing, Crossing], ...]:
    """Both possible crossings of each double point of (T_a, T_b), in x
    order: the one with z(t) > z(s), and its mirror.

    Everything here depends on (a, b) alone.  The strand at t passes over
    iff z(t) - z(s) > 0.  The twist sign is +1 iff
    D = (z(t)-z(s)) x'(t) y'(t) > 0, where x'(t) y'(t) carries the sign
    (-1)^(h+k) sin(ah/b pi) sin(bk/a pi).  The oriented sign (writhe
    contribution) is the twist sign times the sign of sin((k/a - h/b)pi),
    which is the sign of kb - ha; the extra factor converts the
    same-parameter derivative product in D into the cross product of the
    two tangents.  Ties in x (symmetric partners, only for even a) are
    broken by the folded y angle, so the order is deterministic.
    """
    records = []
    for h in range(1, b):
        for k in range(1, a):
            t_num = k * b + h * a
            if t_num < a * b:
                # x = cos((t_num / b) pi), y = cos((t_num / a) pi)
                records.append((fold(t_num, b), fold(t_num, a), h, k, t_num))
    records.sort()
    frame = []
    rank = -1
    last_fold = None
    for x_fold, y_level, h, k, t_num in records:
        if x_fold != last_fold:
            rank += 1
            last_fold = x_fold
        derivatives = sign_sin(a * h, b) * sign_sin(b * k, a)
        if derivatives == 0:
            raise ValueError(
                f"zero sine at crossing (h={h}, k={k}) of T{(a, b)}")
        sign = derivatives * (-1 if (h + k) % 2 else 1)
        over = Crossing(
            h=h, k=k, t_num=t_num, s_num=abs(k * b - h * a), sign=sign,
            oriented_sign=sign if k * b > h * a else -sign, over_at_t=True,
            x_order=rank, y_level=y_level)
        frame.append((over, over.mirrored()))
    expected = (a - 1) * (b - 1) // 2
    if len(frame) != expected:
        raise InternalError(
            f"found {len(frame)} crossings, expected {expected}")
    return tuple(frame)


def enumerate_crossings(K: HarmonicTriple) -> list[Crossing]:
    """All crossings, sorted by decreasing x-coordinate.

    z(t) - z(s) has the sign of -sin(ch/b pi) sin(ck/a pi), which picks
    one of the two crossings ``_frame`` holds for each double point.
    """
    a, b, c = K.a, K.b, K.c
    crossings = []
    for over, under in _frame(a, b):
        sines = sign_sin(c * over.h, b) * sign_sin(c * over.k, a)
        if sines == 0:
            raise ValueError(f"zero sine at crossing (h={over.h}, "
                             f"k={over.k}) of H{(a, b, c)}")
        crossings.append(over if sines < 0 else under)
    return crossings
