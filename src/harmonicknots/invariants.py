"""Alexander polynomials and determinants from Gauss codes.

The route is classical: Wirtinger presentation from the code, free
differential calculus on the relations, and the determinant of an
(n-1) x (n-1) minor over integer Laurent polynomials.  All arithmetic is
exact integer arithmetic.  The minor determinant has one route: Kronecker
substitution.  Every entry p(t) is evaluated at t = 2**B, one
fraction-free (Bareiss) elimination computes the integer determinant, and
its balanced base-2**B digits are the coefficients.  B comes from an
integer bound: no coefficient exceeds the product of the rows' l1 norms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .diagram import GaussCode
from .errors import InternalError


class MalformedCodeError(ValueError):
    """A crossing id lacks an over or an under passage."""


# ---------------------------------------------------------------------------
# Integer Laurent polynomials


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _padd(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pmul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial sum(coeffs[i] * t**(offset + i)).

    The coefficient tuple is trimmed at both ends (nonzero endpoints); the
    zero polynomial is the empty tuple with offset 0.
    """

    offset: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs, offset: int = 0) -> "LaurentPoly":
        c = list(coeffs)
        lead = 0
        while c and c[0] == 0:
            c.pop(0)
            lead += 1
        _trim(c)
        if not c:
            return cls(0, ())
        return cls(offset + lead, tuple(c))

    @classmethod
    def constant(cls, n: int) -> "LaurentPoly":
        return cls.from_coeffs([n])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        return self.offset

    def coefficient_map(self) -> dict[int, int]:
        return {self.offset + i: c for i, c in enumerate(self.coeffs) if c}

    def coefficient_list(self) -> list[int]:
        """Coefficients from the minimal exponent upward."""
        return list(self.coeffs)

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, Fraction) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.offset and not self.is_zero:
            acc *= Fraction(x) ** self.offset if self.offset < 0 else x ** self.offset
        return acc

    def __add__(self, other):
        lo = min(self.offset, other.offset)
        a = [0] * (self.offset - lo) + list(self.coeffs)
        b = [0] * (other.offset - lo) + list(other.coeffs)
        return LaurentPoly.from_coeffs(_padd(a, b), lo)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly(self.offset, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        return LaurentPoly.from_coeffs(
            _pmul(list(self.coeffs), list(other.coeffs)),
            self.offset + other.offset)

    def normalized(self) -> "LaurentPoly":
        """Unit-normalized form: minimal exponent 0, positive leading
        coefficient, and value +-1 at t = 1.

        Knot polynomials determine this form uniquely (they are defined up
        to +-t^k); the classical tables print it, e.g. 1 - 3t + t^2 for the
        figure-eight knot.
        """
        if self.is_zero:
            raise InternalError("cannot normalize the zero polynomial")
        if sum(self.coeffs) not in (1, -1):
            raise InternalError(
                f"value at t=1 is {sum(self.coeffs)}, not a unit")
        coeffs = self.coeffs if self.coeffs[-1] > 0 \
            else tuple(-c for c in self.coeffs)
        return LaurentPoly(0, coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.coefficient_map().items()):
            if e == 0:
                term = str(abs(c))
            else:
                base = "t" if e == 1 else f"t^{e}"
                term = base if abs(c) == 1 else f"{abs(c)}{base}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# Wirtinger presentation


@dataclass(frozen=True)
class WirtingerRelation:
    """out = over^e * in * over^{-e} at a crossing of sign e."""

    over_arc: int
    incoming_arc: int
    outgoing_arc: int
    sign: int


@dataclass(frozen=True)
class WirtingerPresentation:
    arc_count: int
    relations: tuple[WirtingerRelation, ...]


def wirtinger(gc: GaussCode) -> WirtingerPresentation:
    """Arcs delimited by under-passages, one conjugation relation per
    crossing."""
    try:
        gc.validate()
    except ValueError as exc:
        raise MalformedCodeError(str(exc)) from exc
    entries = gc.entries
    n = gc.crossing_count
    if n == 0:
        return WirtingerPresentation(1, ())
    unders = [i for i, e in enumerate(entries) if e.passage == "U"]
    overs = {e.crossing_id: i for i, e in enumerate(entries) if e.passage == "O"}

    def arc_at(pos: int) -> int:
        # Arc j runs from just after unders[j] to unders[j+1] inclusive.
        return (bisect_left(unders, pos) - 1) % n

    relations = []
    for u_idx, u_pos in enumerate(unders):
        e = entries[u_pos]
        relations.append(WirtingerRelation(
            over_arc=arc_at(overs[e.crossing_id]),
            incoming_arc=(u_idx - 1) % n,
            outgoing_arc=u_idx,
            sign=e.sign,
        ))
    return WirtingerPresentation(n, tuple(relations))


def _fox_rows(wp: WirtingerPresentation) -> list[dict[int, list[int]]]:
    """Free-derivative rows, abelianized to polynomials in t.

    A positive crossing contributes (1-t, t, -1) on (over, in, out); a
    negative one contributes (t-1, 1, -t) (the row scaled by t to stay
    polynomial).  Coincident arcs accumulate.
    """
    rows = []
    for rel in wp.relations:
        row: dict[int, list[int]] = {}
        if rel.sign > 0:
            contribs = ((rel.over_arc, [1, -1]), (rel.incoming_arc, [0, 1]),
                        (rel.outgoing_arc, [-1]))
        else:
            contribs = ((rel.over_arc, [-1, 1]), (rel.incoming_arc, [1]),
                        (rel.outgoing_arc, [0, -1]))
        for arc, poly in contribs:
            row[arc] = _padd(row.get(arc, []), poly)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Exact determinants


def _det_bareiss_int(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_poly(m: list[list[list[int]]]) -> list[int]:
    """Exact determinant over Z[t] by Kronecker substitution.

    Each coefficient of det(m) is at most, in absolute value, the product
    over rows of the row's l1 norm (the sum of |coefficients| of its
    entries).  With 2**(B-1) above that bound, the integer det(m(2**B))
    holds the coefficients as balanced base-2**B digits, each in
    [-2**(B-1), 2**(B-1)), so one integer elimination recovers them.
    """
    bound = 1
    for row in m:
        bound *= sum(abs(c) for e in row for c in e)
    width = bound.bit_length() + 1
    value = _det_bareiss_int(
        [[sum(c << (width * i) for i, c in enumerate(e)) for e in row]
         for row in m])
    base = 1 << width
    half = base >> 1
    coeffs = []
    while value:
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) >> width
    return coeffs


def _peval_int(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _alexander_minor(gc: GaussCode) -> list[list[list[int]]]:
    wp = wirtinger(gc)
    rows = _fox_rows(wp)
    n = wp.arc_count
    # Any one relation is redundant and any one generator column may be
    # struck; all resulting minors agree up to units.
    return [[row.get(arc, []) for arc in range(1, n)] for row in rows[:-1]]


def alexander(gc: GaussCode) -> LaurentPoly:
    """Alexander polynomial of the knot, normalized to minimal exponent 0
    and value +1 at t = 1."""
    if gc.crossing_count == 0:
        return LaurentPoly.constant(1)
    minor = _alexander_minor(gc)
    return LaurentPoly.from_coeffs(_det_poly(minor)).normalized()


def determinant(gc: GaussCode) -> int:
    """|Delta(-1)|, computed directly by an integer elimination at t = -1."""
    if gc.crossing_count == 0:
        return 1
    minor = _alexander_minor(gc)
    return abs(_det_bareiss_int(
        [[_peval_int(e, -1) for e in row] for row in minor]))


def alexander_of_fraction(cf) -> LaurentPoly:
    """Alexander polynomial of the two-bridge knot C(a1, ..., an).

    Deliberately routed through the standard twist diagram so that it
    shares no diagram-building code with the Chebyshev pipeline.
    """
    from .diagram import diagram_from_conway

    return alexander(diagram_from_conway(cf))


def factor_square(p: LaurentPoly) -> LaurentPoly | None:
    """A normalized q with q**2 = p (up to units), if one exists over Z.

    The candidate is grown from the trailing coefficient by matching
    coefficients of p = q*q; any mismatch reports absence.
    """
    if p.is_zero:
        return None
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
    return LaurentPoly.from_coeffs(q).normalized()
