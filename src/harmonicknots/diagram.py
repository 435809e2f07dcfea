"""Knot diagrams: Gauss codes, twist-sequence readings, and a 4-plat builder.

Two independent roads lead to a Gauss code here: ``build_gauss_code``
traverses the crossings of the Chebyshev curve itself, while
``diagram_from_conway`` builds the standard two-bridge twist diagram of a
term sequence.  The invariant machinery downstream treats both
identically, which is what makes the second one usable as an oracle for
the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .chebgeom import Crossing, HarmonicTriple
from .errors import InternalError

ConwayForm = list[int]


class CoprimalityError(ValueError):
    """The two odd degrees share a factor."""


class FormParityError(ValueError):
    """b = c (mod 4), so the twist-sequence formula does not apply."""


class UnsupportedBridgeError(ValueError):
    """Twist-sequence reading is only defined for a in {3, 4}."""


class ZeroTermError(ValueError):
    """Twist regions must have a nonzero number of crossings."""


@dataclass(frozen=True)
class GaussEntry:
    """One passage through a crossing: 'O' over or 'U' under, with the
    oriented crossing sign."""

    crossing_id: int
    passage: str
    sign: int


@dataclass(frozen=True)
class GaussCode:
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

    def reversed(self) -> "GaussCode":
        """Orientation-reversed traversal (crossing signs are unchanged)."""
        return GaussCode(tuple(reversed(self.entries)))

    def mirrored(self) -> "GaussCode":
        """Mirror image: over/under and all signs flip."""
        flip = {"O": "U", "U": "O"}
        return GaussCode(tuple(
            GaussEntry(e.crossing_id, flip[e.passage], -e.sign)
            for e in self.entries))


def build_gauss_code(crossings: Sequence[Crossing]) -> GaussCode:
    """Gauss code of a Chebyshev diagram, traversed by increasing t.

    ``crossings`` is the diagram's ``enumerate_crossings`` list.  Every
    crossing contributes its t- and s-parameter passage; the 2N parameter
    angles are pairwise distinct multiples of pi/(ab), so sorting their
    integer numerators gives the exact traversal order.  Crossing ids are
    1-based in order of decreasing x.
    """
    passages = []
    for cid, c in enumerate(crossings, start=1):
        over_t = c.over_at_t
        passages.append((c.t_num, cid, over_t, c.oriented_sign))
        passages.append((c.s_num, cid, not over_t, c.oriented_sign))
    nums = {p[0] for p in passages}
    if len(nums) != len(passages):
        raise InternalError("coincident crossing parameters")
    # t = cos(num pi / ab) increases as the folded numerator decreases.
    passages.sort(key=lambda p: p[0], reverse=True)
    # From a list, so the tuple is allocated at its final size (see
    # ``LaurentPoly.__neg__``).
    entries = tuple([GaussEntry(cid, "O" if over else "U", sign)
                     for _, cid, over, sign in passages])
    return GaussCode(entries)


# ---------------------------------------------------------------------------
# Twist sequences for bridge number <= 2 (a in {3, 4})


def conway_form_h4(b: int, c: int) -> ConwayForm:
    """Closed-form twist sequence [e1, 2e2, ..., e_{b-2}, 2e_{b-1}] of the
    curve with degrees (4, b, c).

    Requires odd coprime b, c with b != c (mod 4), so lam = (3b - c)/4 is an
    integer; then e_j is the sign of sin((j-b) * lam/b * pi).
    """
    if b % 2 == 0 or c % 2 == 0:
        raise FormParityError(f"degrees must both be odd, got ({b}, {c})")
    if gcd(b, c) != 1:
        raise CoprimalityError(f"{b},{c} not coprime")
    if (b - c) % 4 == 0:
        raise FormParityError(f"{b} = {c} (mod 4) has no twist sequence")
    lam = (3 * b - c) // 4
    terms = []
    for j in range(1, b):
        num = (j - b) * lam
        if num % b == 0:
            raise InternalError(f"vanishing sine at term {j}")
        e = -1 if (num // b) % 2 else 1
        terms.append(e if j % 2 else 2 * e)
    return terms


def read_conway_from_diagram(K: HarmonicTriple,
                             crossings: Sequence[Crossing]) -> ConwayForm:
    """Read the twist sequence off the Chebyshev diagram, for a in {3, 4}.

    ``crossings`` is the ``enumerate_crossings`` list of K.  Crossings are
    grouped by exact x-coordinate and scanned by increasing x.
    The twist sign of a crossing at scan position i is its twist sign D for
    odd i and -D for even i (right twists count positive at odd positions,
    negative at even ones); a group contributes the sum of its signs.  For
    a = 4 the groups alternate single axis crossings and symmetric pairs,
    giving the [+-1, +-2, ...] shape; for a = 3 all groups are singletons.
    """
    if K.a not in (3, 4):
        raise UnsupportedBridgeError(
            f"twist-sequence reading needs a in {{3, 4}}, got a={K.a}")
    groups: dict[int, list] = {}
    for c in crossings:
        groups.setdefault(c.x_order, []).append(c)
    # x_order ranks by decreasing x; scan by increasing x.
    ordered = [groups[r] for r in sorted(groups, reverse=True)]
    if len(ordered) != K.b - 1:
        raise InternalError(
            f"expected {K.b - 1} x-groups, found {len(ordered)}")
    terms = []
    axis_level = K.a // 2 if K.a % 2 == 0 else None
    for i, group in enumerate(ordered, start=1):
        parity = 1 if i % 2 else -1
        term = sum(parity * c.sign for c in group)
        if K.a == 4:
            on_axis = all(c.y_level == axis_level for c in group)
            if i % 2 == 1 and not (on_axis and len(group) == 1):
                raise InternalError("odd positions must be single axis crossings")
            if i % 2 == 0 and (on_axis or len(group) != 2):
                raise InternalError("even positions must be symmetric pairs")
            if term == 0:
                raise InternalError(
                    "cancelling pair: not a diagram of a harmonic knot")
        elif len(group) != 1:
            raise InternalError("a = 3 diagrams have distinct x-coordinates")
        terms.append(term)
    return terms


# ---------------------------------------------------------------------------
# Standard twist diagram of a term sequence (4-plat construction)


def _plat_gauss_code(word: list[tuple[int, int]],
                     right_caps: tuple) -> GaussCode:
    """Gauss code of the plat closure of a 4-strand braid word.

    ``word`` lists single crossings (j, s): generator sigma_j (j in 1..3,
    acting on strand positions j, j+1) with handedness s = +-1.  The left
    end is capped by bridges joining positions (1,2) and (3,4);
    ``right_caps`` gives the right-end pairing in 0-based positions, the
    parallel ((0, 1), (2, 3)) or the nested ((0, 3), (1, 2)); both are
    planar and crossing-free.  Raises if the closure has more than one
    component.
    """
    wire_at = [0, 1, 2, 3]
    passages: dict[int, list[tuple[int, bool]]] = {w: [] for w in wire_at}
    handedness: dict[int, int] = {}
    wires_of: dict[int, tuple[int, int]] = {}
    for cid, (j, s) in enumerate(word, start=1):
        upper, lower = wire_at[j - 1], wire_at[j]
        over_upper = s > 0
        passages[upper].append((cid, over_upper))
        passages[lower].append((cid, not over_upper))
        handedness[cid] = s
        wires_of[cid] = (upper, lower)
        wire_at[j - 1], wire_at[j] = lower, upper
    end_pos = {w: p for p, w in enumerate(wire_at)}
    start_pos = {w: w for w in range(4)}
    right_partner = {}
    for p, q in right_caps:
        right_partner[p], right_partner[q] = q, p

    direction: dict[int, int] = {}
    order: list[tuple[int, bool]] = []
    wire, forward = 0, True
    for _ in range(4):
        direction[wire] = 1 if forward else -1
        seq = passages[wire] if forward else list(reversed(passages[wire]))
        order.extend(seq)
        if forward:
            p = right_partner[end_pos[wire]]
            wire = next(w for w in range(4) if end_pos[w] == p)
            forward = False
        else:
            wire = start_pos[wire] ^ 1  # left caps join (1,2) and (3,4)
            forward = True
        if wire == 0 and forward:
            break
    if len(direction) != 4 or len(order) != 2 * len(word):
        raise ValueError("plat closure is a link, not a knot")
    entries = []
    for cid, over in order:
        u, l = wires_of[cid]
        sign = handedness[cid] * direction[u] * direction[l]
        entries.append(GaussEntry(cid, "O" if over else "U", sign))
    return GaussCode(tuple(entries))


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
        raise ZeroTermError("empty term sequence")
    if any(t == 0 for t in terms):
        raise ZeroTermError(f"zero twist region in {terms}")
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
