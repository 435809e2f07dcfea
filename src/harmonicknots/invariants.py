"""Alexander polynomials and determinants from Gauss codes.

The route is classical (Fox): free differential calculus on the Wirtinger
relations, one per crossing, and the determinant of an (n-1) x (n-1)
minor, with the last relation and arc 0 struck.  The relations are read
straight from the Gauss code, with no presentation object in between,
and all arithmetic is exact integer arithmetic.  Every Fox coefficient is
linear in t, and on a relation's incoming and outgoing arc it is a unit,
+-1 or +-t.  Delta comes by Kronecker substitution: at t = T = 2**B the
minor's determinant is an integer whose balanced base-T digits are the
coefficients.  B comes from an integer bound: by Parseval and Hadamard's
inequality no coefficient exceeds the product of the rows' l2 norms on
|t| = 1, which is at most sqrt(6) for a Fox row (``_kronecker_width``).

The determinant comes from a sweep of the relations by decreasing
crossing id: by increasing x for a ``build_gauss_code`` code, whose ids
go by decreasing x, and against word order for a ``diagram_from_conway``
one.  Each relation is solved for its first arc that is not yet
expressed and has a unit coefficient, so a pivot is +-1 or +-T.  Its
other unexpressed arcs become free, and a relation with no such arc
becomes a row of the final system in the free arcs.  A vertical line
meets few arcs, so the system is small: k <= 5 on the crossing table,
k = (a - 1)/2 on H(a, a+2, a+4) and k <= 2 on twist codes.  The order
only sets k; any order gives the same Delta.

Nothing is divided.  An expressed arc is stored as v / T**q, integers v
over the free arcs and its own power q, and a pivot of +-T raises q by
one.  The sweep is Gaussian elimination on unit pivots, so the minor's
determinant is a unit times the system's, and multiplying a system row
by its power of T changes only a unit.  Before the last elimination the
common power of T leaves each row and then each column, which again
changes only a unit and keeps the entries, and so the elimination, small.
The value is thus T**e det(minor(T)) up to sign, for some integer e, and
its balanced digits are those of det(minor(T)), shifted.  When e < 0,
T**(-e) divides det(minor(T)), whose digits are all below T/2 in size,
so its lowest -e digits are 0.  The digits are the minor's coefficients
either way, so B stays the width the whole minor needs.  ``determinant``
runs the same sweep at t = -1, where every pivot is +-1.
"""

from __future__ import annotations

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
# The Fox relations and the sweep


# The Fox coefficients of a negative and of a positive crossing on (over,
# in, out), then on (in, out) when the over arc is the incoming one, and on
# (in, out) when it is the outgoing one.
_FOX = (((-1, 1), (1, 0), (0, -1), (0, 1), (-1, 0)),
        ((1, -1), (0, 1), (-1, 0), (1, 0), (0, -1)))


def _fox_rows(gc: GaussCode) -> list[dict[int, tuple[int, int]]]:
    """The Fox relations but the last, by decreasing crossing id: each
    maps an arc to (c0, c1), its coefficient c0 + c1*t, and arc 0 is
    struck.

    Arc j starts just after the j-th under-passage, so the k-th one has
    incoming arc k - 1 (mod n) and outgoing arc k, and an over-passage lies
    on the arc of the last under-passage before it.  The free derivatives
    of the relation out = over^e * in * over^{-e}, abelianized, are linear:
    a positive crossing contributes (1-t, t, -1) on (over, in, out), a
    negative one (t-1, 1, -t) (scaled by t to stay polynomial), and
    coincident arcs add up, to a unit again.  Any one relation is
    redundant and any one arc may be struck, and all such minors agree up
    to units: the last relation goes, and so does arc 0.
    """
    gc.validate()
    n = gc.crossing_count
    over_arc = {}
    unders = []
    for e in gc.entries:
        if e.passage == "O":
            over_arc[e.crossing_id] = (len(unders) - 1) % n
        else:
            unders.append(e)
    relations = []
    for k, e in enumerate(unders[:-1]):
        over, into = over_arc[e.crossing_id], (k - 1) % n
        a, b, c, a_b, a_c = _FOX[e.sign > 0]
        if over == into:
            row = {into: a_b, k: c}
        elif over == k:
            row = {into: b, k: a_c}
        else:
            row = {over: a, into: b, k: c}
        row.pop(0, None)
        relations.append((e.crossing_id, row))
    relations.sort(key=lambda r: r[0], reverse=True)
    return [row for _, row in relations]


def _kronecker_width(rows) -> int:
    """The B of ``alexander``: 2**(B-1) exceeds every coefficient of the
    determinant of the rows, dicts of (c0, c1) entries."""
    squares = 1
    for row in rows:
        squares *= sum([(abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values()])
    return isqrt(squares).bit_length() + 1


def _sweep(rows: list[dict[int, tuple[int, int]]], t: int) -> int:
    """The determinant of the Fox minor at t = -1 or t = 2**B, times a
    sign and a power of t.

    Each row is solved for its first unexpressed arc with a unit
    coefficient; its other unexpressed arcs become free, and a row with
    no such arc joins the system.  An expressed arc is a pair (v, q), its
    value v / t**q with v a dict of integers over the free arcs, so a
    pivot of +-t raises q instead of dividing.
    """
    shift = t.bit_length() - 1  # t = 2**shift; at t = -1 every q is 0
    expressed: dict[int, tuple[dict[int, int], int]] = {}
    system = []
    free = 0
    for row in rows:
        pivot = None
        terms = []
        top = 0
        for arc, pair in row.items():
            known = expressed.get(arc)
            if known is None:
                if pivot is None and 0 in pair:
                    pivot = arc
                    continue
                known = expressed[arc] = ({free: 1}, 0)
                free += 1
            terms.append((known, pair))
            if known[1] > top:
                top = known[1]
        # unit * x + sum(c * v / t**q) = 0, where the unit is +-1 or +-t,
        # gives x = -sum(c * v * t**(top - q)) / (unit * t**top).
        sign = -1
        if pivot is not None:
            c0, c1 = row[pivot]
            unit = c0 + c1 * t
            if unit < 0:
                sign = 1
        value: dict[int, int] = {}
        for (vec, q), (c0, c1) in terms:
            c = sign * (c0 + c1 * t)
            if q != top:
                c <<= shift * (top - q)
            for f, v in vec.items():
                value[f] = value.get(f, 0) + c * v
        if pivot is None:
            system.append(value)
        else:
            expressed[pivot] = (value, top + (unit not in (1, -1)))
    return _det([[row.get(f, 0) for f in range(free)] for row in system],
                shift)


def _det(m: list[list[int]], shift: int) -> int:
    """det(m) up to sign, and up to a power of 2**shift when shift > 0:
    the common powers of 2**shift leave every row and column first.

    Fraction-free (Bareiss) elimination, pivoting on the entry of least
    bit length: after each step every live entry is a minor of m, and
    ``prev``, the one on the pivots alone, divides the next step exactly.
    """
    if shift:
        for _ in range(2):
            for i, row in enumerate(m):
                low = min(((v & -v).bit_length() for v in row if v),
                          default=0)
                if not low:
                    return 0
                power = (low - 1) // shift * shift
                if power:
                    m[i] = [v >> power for v in row]
            m = [list(col) for col in zip(*m)]
    prev = 1
    while m:
        pivot = min(((v.bit_length(), r, c) for r, row in enumerate(m)
                     for c, v in enumerate(row) if v), default=None)
        if pivot is None:
            return 0
        _, r, c = pivot
        pivot_row = m.pop(r)
        p = pivot_row[c]
        for i, row in enumerate(m):
            a = row[c]
            m[i] = [(v * p - a * w) // prev for v, w in zip(row, pivot_row)]
        prev = p
    return prev


def alexander(gc: GaussCode) -> LaurentPoly:
    """Alexander polynomial of the knot, unit-normalized.  A code whose
    minor determinant is not +-1 at t = 1 (a link's is 0) raises
    ``ValueError``."""
    rows = _fox_rows(gc)
    width = _kronecker_width(rows)
    base = 1 << width
    value = _sweep(rows, base)
    half = base >> 1
    coeffs = []
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) >> width
    return LaurentPoly.from_coeffs(coeffs)


def determinant(gc: GaussCode) -> int:
    """|Delta(-1)|, computed directly by the sweep at t = -1."""
    return abs(_sweep(_fox_rows(gc), -1))


def factor_square(p: LaurentPoly) -> LaurentPoly | None:
    """A normalized q with q**2 = p (up to units), if one exists over Z.

    The candidate is grown from the trailing coefficient by matching
    coefficients of p = q*q; any mismatch reports absence.
    """
    coeffs = list(p.coeffs)
    deg = len(coeffs) - 1
    if deg % 2:
        return None
    half = deg // 2
    c0 = coeffs[0]
    q0 = isqrt(c0) if c0 > 0 else 0
    if q0 == 0 or q0 * q0 != c0:
        return None
    q = [q0] + [0] * half
    for k in range(1, half + 1):
        acc = sum(q[i] * q[k - i] for i in range(1, k))
        num = coeffs[k] - acc
        if num % (2 * q0):
            return None
        q[k] = num // (2 * q0)
    if _pmul(q, q) != coeffs:
        return None
    return LaurentPoly.from_coeffs(q)
