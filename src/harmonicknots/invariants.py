"""Alexander polynomials and determinants from Gauss codes.

The route is classical (Fox): free differential calculus on the Wirtinger
relations, and the determinant of a minor of their Fox matrix.  The
relations are read straight from the Gauss code, with no presentation
object in between, and all arithmetic is exact integer arithmetic.

They are read on arcs.  Segment i runs from passage i to passage i + 1
(mod 2N), and an arc is the run of segments from one under-passage to
the next, named by the position it starts at; one pass over the passages
gives each segment its arc, and the segments before the first
under-passage lie on the arc that starts at the last one.  The
under-passage q of a crossing whose over-passage is p gives the Wirtinger
relation on (over, in, out) = (the arcs of segments p, q - 1 and q), with
the coefficients (1-t, t, -1) if q's own sign is positive and (t-1, 1, -t)
(scaled by t to stay polynomial) if it is negative.  Every row sums to 0,
so any column may be struck, and the arc that starts at the last
under-passage goes.  The struck row is the one the Fox minor of
``tests/fox_oracle.py`` drops, the last under-passage's relation: on a
code of no diagram the relations need not be dependent, and striking
another row would give another value there.

Delta comes by Kronecker substitution: at t = T = 2**B the minor's
determinant is an integer whose balanced base-T digits are the
coefficients.  B comes from N alone.  By Parseval and Hadamard's
inequality no coefficient exceeds the product, over the N - 1 rows of the
arc minor, of each row's l2 norm on |t| = 1, which is at most sqrt(6) for
a Fox row; so 2**(B-1) > isqrt(6**(N-1)) suffices.  ``factor_square``
reads a square root q of Delta from the same digits, once |Delta(-1)| =
q(-1)**2 has shown itself a perfect square; most Deltas leave there.

The determinant comes from a sweep of the crossings by decreasing id: by
increasing x for a ``build_gauss_code`` code, whose ids go by decreasing
x, and against word order for a ``diagram_from_conway`` one.  The order
depends only on the code's crossing-id sequence, which for H(a, b, c) is
a function of (a, b), so ``_plan`` caches it per sequence.  At each
crossing the over arc, whose coefficient is no unit, becomes free if it is
not yet expressed, and the Wirtinger relation is solved for an arc not
yet expressed; its coefficient there is always a unit, so a pivot is +-1
or +-T.  Where both the in and the out arc are unexpressed, one becomes
free, and a relation with none becomes a row of the final system in the
free variables.  A vertical line meets few arcs, so the system is small:
k <= 4 on the crossing table, k = (a - 1)/2 on H(a, a+2, a+4) and k <= 2
on twist codes.  The order only sets k; any order gives the same Delta.

Nothing is divided.  An expressed arc is stored as v / T**q, integers v
over the free variables and its own power q, in two flat lists by arc,
and a pivot of +-T raises q by one.  The sweep is Gaussian elimination
on unit pivots, so the minor's determinant is a unit times the
system's, and multiplying a system row by its power of T changes only a
unit; a relation whose arcs are all expressed is summed into its row in
place.  Before the last elimination the common power of T leaves each
row and then each column, shifted in place, which again changes only a
unit and keeps the entries, and so the elimination, small.  The value
is thus T**e det(minor(T)) up to sign, for some integer e, and its
balanced digits are those of det(minor(T)), shifted.  When e < 0,
T**(-e) divides det(minor(T)), whose digits are all below T/2 in size,
so its lowest -e digits are 0.  The digits are the minor's coefficients
either way, so B stays the width the whole minor needs.
``determinant`` runs the same sweep at t = -1, where every pivot is +-1.
"""

from __future__ import annotations

import functools
from math import isqrt
from typing import NamedTuple

from .diagram import GaussCode


# ---------------------------------------------------------------------------
# Integer Laurent polynomials


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pmul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


class _PolyFields(NamedTuple):
    coeffs: tuple[int, ...]


class LaurentPoly(_PolyFields):
    """A knot polynomial in unit-normalized form, sum(coeffs[i] * t**i):
    both end coefficients nonzero, the last one positive, and value +-1 at
    t = 1; constructing any other tuple raises ``ValueError``.

    Knot polynomials are defined up to +-t^k, and this form picks one
    representative; the classical tables print it, e.g. 1 - 3t + t^2 for
    the figure-eight knot.  ``from_coeffs`` is the constructor.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if not (coeffs and coeffs[0] and coeffs[-1] > 0
                and sum(coeffs) in (1, -1)):
            raise ValueError(f"{coeffs!r} is not a unit-normalized polynomial")
        return tuple.__new__(cls, (coeffs,))

    @classmethod
    def from_coeffs(cls, coeffs) -> "LaurentPoly":
        """The normalized form of sum(coeffs[i] * t**i); a polynomial whose
        value at t = 1 is not +-1, the zero one included, raises
        ``ValueError``."""
        c = _trim(list(coeffs))
        if sum(c) not in (1, -1):
            raise ValueError(f"value at t=1 is {sum(c)}, not a unit")
        c = c[next(i for i, v in enumerate(c) if v):]
        if c[-1] < 0:
            # From a list, so the tuple is allocated at its final size.  A
            # generator's tuple is taken at a guessed size and resized, so
            # each call would move one block into CPython's free list for
            # the final size, which only a full garbage collection empties.
            c = [-v for v in c]
        return cls(tuple(c))

    def __call__(self, x: int) -> int:
        """Value at the integer x by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                term = str(abs(c))
            else:
                base = "t" if e == 1 else f"t^{e}"
                term = base if abs(c) == 1 else f"{abs(c)}{base}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# The Fox relations on arcs, and the sweep


@functools.lru_cache(maxsize=256)
def _plan(ids: tuple) -> tuple[int, ...] | None:
    """The sweep's order for every code whose passages carry the crossing
    ids ``ids``: the two positions p < q of each crossing, by decreasing
    id, in one flat tuple; None when some id does not pass exactly
    twice."""
    where: dict = {}
    for position, cid in enumerate(ids):
        where.setdefault(cid, []).append(position)
    if any(len(ps) != 2 for ps in where.values()):
        return None
    return tuple([position for cid in sorted(where, reverse=True)
                  for position in where[cid]])


def _sweep(gc: GaussCode, t: int) -> int:
    """The determinant of the arc minor at t = -1 or t = 2**B, times a
    sign and a power of t.

    Each expressed arc, by the position it starts at, has its value
    vecs[arc] / t**pows[arc]: ``vecs`` holds the list of its integer
    coefficients on the free variables up to the last nonzero one, and a
    pivot of +-t raises its power in ``pows`` instead of dividing.
    """
    entries = gc.entries
    if not entries:
        return 1
    ids, passages, signs = zip(*entries)
    last = "".join(passages).rfind("U")
    plan = _plan(ids) if last >= 0 else None
    if plan is None:
        gc.validate()  # raises: an id does not pass once over, once under
    shift = t.bit_length() - 1  # t = 2**shift; at t = -1 every power is 0
    # arc[i]: the under-passage where segment i's arc starts; the segments
    # before the first one run on the arc that starts at ``last``.
    arc = []
    start = last
    for position, passage in enumerate(passages):
        if passage == "U":
            start = position
        arc.append(start)
    vecs: list = [None] * len(entries)
    pows = [0] * len(entries)
    vecs[last] = []  # the struck arc
    system = []
    free = 0
    # Solving (1-t) o + t i - u = 0 (positive) or (t-1) o + i - t u = 0
    # (negative) for u or i gives (c o + d x) / t**bump, x the other one;
    # at t = -1, 1/t = t and nothing is over t.
    solve = ((1 - t, t, 0), (t - 1, 1, 1) if shift else (2, -1, 0))
    it = iter(plan)
    for p, q in zip(it, it):
        if passages[p] == "O" and passages[q] == "U":
            over, under = p, q
        else:
            if passages[p] != "U" or passages[q] != "O":
                gc.validate()  # raises: a crossing lacks a passage
            over, under = q, p
        if under == last:
            continue  # the struck relation
        # The arcs (over, in, out) = (over, i, under), each by its start.
        over, i = arc[over], arc[under - 1]
        vo = vecs[over]
        if vo is None:
            vo = vecs[over] = [0] * free + [1]
            free += 1
        positive = signs[under] > 0
        vi, vu = vecs[i], vecs[under]
        if vi is None and vu is None:
            # Free the one whose solved-for partner needs no power of t.
            vec = [0] * free + [1]
            free += 1
            if positive:
                vi = vecs[i] = vec
            else:
                vu = vecs[under] = vec
        if vi is not None and vu is not None:
            # A row of the system: the relation times t**top, top the
            # largest power of its three arcs.
            co, ci, cu = (1 - t, t, -1) if positive else (t - 1, 1, -t)
            qo, qi, qu = pows[over], pows[i], pows[under]
            top = max(qo, qi, qu)
            row = [0] * free
            for c, vec, power in ((co, vo, qo), (ci, vi, qi), (cu, vu, qu)):
                c <<= shift * (top - power)
                for f, v in enumerate(vec):
                    row[f] += c * v
            system.append(row)
            continue
        if vu is None:
            vx, qx, target = vi, pows[i], under
            c, d, bump = solve[not positive]
        else:
            vx, qx, target = vu, pows[under], i
            c, d, bump = solve[positive]
        top = pows[over]
        if qx != top:
            if qx < top:
                d <<= shift * (top - qx)
            else:
                c <<= shift * (qx - top)
                top = qx
        vec = [c * v + d * w for v, w in zip(vo, vx)]
        lo, lx = len(vo), len(vx)
        if lo != lx:
            vec += [c * v for v in vo[lx:]] if lo > lx \
                else [d * w for w in vx[lo:]]
        vecs[target] = vec
        pows[target] = top + bump
    return _det([row + [0] * (free - len(row)) for row in system], shift)


def _det(m: list[list[int]], shift: int) -> int:
    """det(m) up to sign, and up to a power of 2**shift when shift > 0:
    the common powers of 2**shift leave every row and column first.

    Fraction-free (Bareiss) elimination, pivoting on the entry of least
    bit length, the first in row-major order among equals: after each
    step every live entry is a minor of m, and ``prev``, the one on the
    pivots alone, divides the next step exactly.
    """
    if shift:
        m = _strip(m, shift)
        if m is None:
            return 0
    prev = 1
    while m:
        least = 0
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (not least or v.bit_length() < least):
                    least, r, c = v.bit_length(), i, j
        if not least:
            return 0
        pivot_row = m.pop(r)
        p = pivot_row[c]
        for i, row in enumerate(m):
            a = row[c]
            m[i] = [(v * p - a * w) // prev for v, w in zip(row, pivot_row)]
        prev = p
    return prev


def _strip(m: list[list[int]], shift: int) -> list[list[int]] | None:
    """m without the common power of 2**shift of each row and then of each
    column, shifted in place; None when a row or a column is 0.

    The lowest set bit of a line's bitwise or is the lowest of its
    entries'."""
    for i, row in enumerate(m):
        bits = functools.reduce(int.__or__, row, 0)
        if not bits:
            return None
        power = ((bits & -bits).bit_length() - 1) // shift * shift
        if power:
            m[i] = [v >> power for v in row]
    # zip reads column j before the loop shifts it.
    for j, column in enumerate(zip(*m)):
        bits = functools.reduce(int.__or__, column, 0)
        if not bits:
            return None
        power = ((bits & -bits).bit_length() - 1) // shift * shift
        if power:
            for row in m:
                row[j] >>= power
    return m


def _digits(value: int, width: int) -> list[int]:
    """The balanced base-2**width digits of value, lowest first.  A width
    below 2 raises ``ValueError``: base 2 has no balanced digit for 1."""
    if width < 2:
        raise ValueError(f"digit width {width} is below 2")
    base = 1 << width
    half = base >> 1
    digits = []
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def alexander(gc: GaussCode) -> LaurentPoly:
    """Alexander polynomial of the knot, unit-normalized.  A code whose
    minor determinant is not +-1 at t = 1 (a link's is 0) raises
    ``ValueError``."""
    # Hadamard's bound for the N - 1 rows of the arc minor, sqrt(6) each.
    width = isqrt(6 ** max(gc.crossing_count - 1, 0)).bit_length() + 1
    return LaurentPoly.from_coeffs(_digits(_sweep(gc, 1 << width), width))


def determinant(gc: GaussCode) -> int:
    """|Delta(-1)|, computed directly by the sweep at t = -1."""
    return abs(_sweep(gc, -1))


def factor_square(p: LaurentPoly) -> LaurentPoly | None:
    """A normalized q with q**2 = p (up to units), if one exists over Z.
    Parseval bounds its coefficients, sum(q_i**2) <= sum(|p_i|), so they
    are the balanced digits of isqrt(p(2**width)) at the width below.

    A square +-t**k q**2 has |p(-1)| = q(-1)**2, so p leaves at once
    when |p(-1)| is not a perfect square."""
    det = abs(p(-1))
    if isqrt(det) ** 2 != det:
        return None
    width = isqrt(sum(map(abs, p.coeffs))).bit_length() + 1
    value = p(1 << width)
    root = isqrt(max(value, 0))
    if root * root != value:
        return None
    q = _digits(root, width)
    if _pmul(q, q) != list(p.coeffs):
        return None
    return LaurentPoly.from_coeffs(q)
