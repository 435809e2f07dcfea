"""Knot diagrams: Gauss codes, twist-sequence readings, and a plat builder.

Two independent roads lead to a Gauss code here: ``build_gauss_code``
traverses the crossings of the Chebyshev curve itself, while
``diagram_from_conway`` builds the standard two-bridge twist diagram of a
term sequence.  The invariant machinery downstream treats both
identically, which is what makes the second one usable as an oracle for
the first.

``build_gauss_code`` places each passage at its integer numerator
(t_num or s_num) and reads the passages by decreasing numerator, which is
increasing t.  Its passages are interned ``GaussEntry`` values, four per
crossing id (over or under, sign +1 or -1), shared by every code.
"""

from __future__ import annotations

import functools
from itertools import groupby
from math import gcd
from operator import attrgetter
from typing import NamedTuple, Sequence

from .chebgeom import Crossing, HarmonicTriple
from .errors import InternalError

ConwayForm = list[int]


class GaussEntry(NamedTuple):
    """One passage through a crossing: 'O' over or 'U' under, with the
    oriented crossing sign."""

    crossing_id: int
    passage: str
    sign: int


class GaussCode(NamedTuple):
    """Passages in traversal order around the closed curve."""

    entries: tuple[GaussEntry, ...]

    @property
    def crossing_count(self) -> int:
        return len(self.entries) // 2

    def validate(self) -> None:
        seen: dict[int, set[str]] = {}
        for e in self.entries:
            seen.setdefault(e.crossing_id, set()).add(e.passage)
        for cid, passages in seen.items():
            if passages != {"O", "U"}:
                raise ValueError(f"crossing {cid} lacks an over or under passage")
        if len(self.entries) != 2 * len(seen):
            raise ValueError("each crossing must be visited exactly twice")


@functools.cache
def _entries(cid: int, sign: int) -> tuple[GaussEntry, GaussEntry]:
    """The over and under entries of crossing ``cid`` with oriented sign
    ``sign``, interned: every code holds these."""
    if sign not in (1, -1):
        raise ValueError(
            f"crossing {cid} has oriented sign {sign!r}; expected +-1")
    # The ints, also for an equal value such as True or 1.0.
    sign = 1 if sign > 0 else -1
    return GaussEntry(cid, "O", sign), GaussEntry(cid, "U", sign)


def build_gauss_code(crossings: Sequence[Crossing]) -> GaussCode:
    """Gauss code of a Chebyshev diagram, traversed by increasing t.

    ``crossings`` is the diagram's ``enumerate_crossings`` list.  Every
    crossing contributes its t- and s-parameter passage; crossing ids are
    1-based in list order (decreasing x).  The 2N parameter angles are
    pairwise distinct multiples of pi/(ab), and t = cos(num pi / ab)
    increases as the folded numerator decreases, so the passages are read
    by decreasing numerator; coincident numerators raise ``InternalError``.
    The entries are the interned ones, shared by every code; an oriented
    sign other than +-1 raises ``ValueError``.
    """
    at: dict[int, GaussEntry] = {}
    for cid, c in enumerate(crossings, start=1):
        over, under = _entries(cid, c.oriented_sign)
        if c.over_at_t:
            at[c.t_num], at[c.s_num] = over, under
        else:
            at[c.t_num], at[c.s_num] = under, over
    if len(at) != 2 * len(crossings):
        raise InternalError("coincident crossing parameters")
    return GaussCode(tuple([at[k] for k in sorted(at, reverse=True)]))


# ---------------------------------------------------------------------------
# Twist sequences for bridge number <= 2 (a in {3, 4})


def conway_form_h4(b: int, c: int) -> ConwayForm:
    """Closed-form twist sequence [e1, 2e2, ..., e_{b-2}, 2e_{b-1}] of the
    curve with degrees (4, b, c).

    Requires odd coprime b, c with b != c (mod 4), so lam = (3b - c)/4 is an
    integer; then e_j is the sign of sin((j-b) * lam/b * pi).
    """
    if b % 2 == 0 or c % 2 == 0:
        raise ValueError(f"degrees must both be odd, got ({b}, {c})")
    if gcd(b, c) != 1:
        raise ValueError(f"{b},{c} not coprime")
    if (b - c) % 4 == 0:
        raise ValueError(f"{b} = {c} (mod 4) has no twist sequence")
    lam = (3 * b - c) // 4
    terms = []
    for j in range(1, b):
        num = (j - b) * lam
        if num % b == 0:
            raise InternalError(f"vanishing sine at term {j}")
        e = -1 if (num // b) % 2 else 1
        terms.append(e if j % 2 else 2 * e)
    return terms


_x_order = attrgetter("x_order")
_sign = attrgetter("sign")


def read_conway_from_diagram(K: HarmonicTriple,
                             crossings: Sequence[Crossing]) -> ConwayForm:
    """Read the twist sequence off the Chebyshev diagram, for a in {3, 4}.

    ``crossings`` is the ``enumerate_crossings`` list of K, grouped by
    exact x-coordinate and scanned by increasing x.  The twist sign of a
    crossing at scan position i is its twist sign D for odd i and -D for
    even i (right twists count positive at odd positions, negative at
    even ones); a group contributes the sum of its signs.  For a = 4 the
    groups alternate single axis crossings and symmetric pairs, giving
    the [+-1, +-2, ...] shape; for a = 3 all groups are singletons.  Each
    call checks that shape, and raises ``InternalError`` on a wrong one
    or on an a = 4 group whose signs cancel.
    """
    if K.a not in (3, 4):
        raise ValueError(
            f"twist-sequence reading needs a in {{3, 4}}, got a={K.a}")
    # x_order ranks by decreasing x; scan by increasing x.  The sort is
    # stable, so each x-group keeps its crossings in list order.
    scan = sorted(crossings, key=_x_order, reverse=True)
    count = len(set(map(_x_order, crossings)))
    if count != K.b - 1:
        raise InternalError(f"expected {K.b - 1} x-groups, found {count}")
    if K.a == 3:
        if count != len(scan):
            raise InternalError("a = 3 diagrams have distinct x-coordinates")
        terms = [*map(_sign, scan)]
        terms[1::2] = [-term for term in terms[1::2]]
        return terms
    terms = []  # a = 4, whose axis y = 0 is y_level 2
    for i, (_, run) in enumerate(groupby(scan, _x_order)):
        group = [*run]
        if i % 2:
            if len(group) != 2 or group[0].y_level == group[1].y_level == 2:
                raise InternalError("even positions must be symmetric pairs")
            term = -group[0].sign - group[1].sign
        else:
            if len(group) != 1 or group[0].y_level != 2:
                raise InternalError(
                    "odd positions must be single axis crossings")
            term = group[0].sign
        if term == 0:
            raise InternalError(
                "cancelling pair: not a diagram of a harmonic knot")
        terms.append(term)
    return terms


# ---------------------------------------------------------------------------
# Standard twist diagram of a term sequence (plat closure of a braid word)


def _plat_gauss_code(word: list[tuple[int, int]],
                     right_caps: tuple) -> GaussCode:
    """Gauss code of the plat closure of a braid word, by one walk along
    the closed strand.

    ``word`` lists single crossings (j, s): generator sigma_j, acting on
    the 0-based strand positions j - 1 and j, with handedness s = +-1.
    The left caps join (0, 1), (2, 3), ...; ``right_caps`` pairs the
    right-end positions, planar and crossing-free, and so fixes the
    strand count.  Raises if the closure has more than one component.
    """
    partner = {}
    for p, q in right_caps:
        partner[p], partner[q] = q, p
    order: list[tuple[int, bool]] = []
    sign: dict[int, int] = {}
    # From left position 0 going right; each pass through the word is a leg.
    pos, step, legs = 0, 1, 0
    while True:
        legs += 1
        for cid in range(1, len(word) + 1)[::step]:
            j, s = word[cid - 1]
            if pos == j - 1 or pos == j:
                # The upper strand is at j - 1 going right, at j going
                # left; it passes over iff s > 0.  The oriented sign is
                # s times the directions of the two passages.
                upper = (pos == j - 1) == (step > 0)
                order.append((cid, upper == (s > 0)))
                sign[cid] = sign.get(cid, s) * step
                pos = 2 * j - 1 - pos
        if step > 0:
            pos = partner[pos]
        else:
            pos ^= 1  # the left caps join (0, 1), (2, 3), ...
            if pos == 0:
                break
        step = -step
    if legs != 2 * len(right_caps):
        raise ValueError("plat closure is a link, not a knot")
    return GaussCode(tuple([GaussEntry(cid, "O" if over else "U", sign[cid])
                            for cid, over in order]))


def diagram_from_conway(cf: ConwayForm) -> GaussCode:
    """Gauss code of the standard two-bridge diagram of C(a1, ..., an).

    Twist regions at odd positions twist the middle strand pair; even
    positions twist the top pair with reversed handedness (a right twist
    counts positive at odd positions and negative at even ones).  A
    sequence of even length closes on the right with the nested caps.
    The diagram has exactly sum(|ai|) crossings; sequences whose fraction
    has even numerator describe two-component links and are rejected.
    """
    terms = list(cf)
    if not terms:
        raise ValueError("empty term sequence")
    if any(t == 0 for t in terms):
        raise ValueError(f"zero twist region in {terms}")
    word = []
    for i, a in enumerate(terms, start=1):
        if i % 2:
            gen, s = 2, 1 if a > 0 else -1
        else:
            gen, s = 1, -1 if a > 0 else 1
        word.extend([(gen, s)] * abs(a))
    caps = ((0, 1), (2, 3)) if len(terms) % 2 else ((0, 3), (1, 2))
    code = _plat_gauss_code(word, caps)
    code.validate()
    return code
