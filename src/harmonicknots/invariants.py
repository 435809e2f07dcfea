"""Alexander polynomials and determinants from Gauss codes.

The route is classical (Fox): free differential calculus on the Wirtinger
relations, one per crossing, and the determinant of an (n-1) x (n-1)
minor.  The Fox rows are read straight from the Gauss code, with no
presentation object in between.  All arithmetic is exact integer
arithmetic.  Every Fox entry is linear in t, so the minor is built once,
as sparse rows that map a column to the pair (c0, c1) of its entry
c0 + c1*t.  The minor determinant has one route: Kronecker substitution.
Every entry is evaluated at t = 2**B, one fraction-free (Bareiss)
elimination computes the integer determinant, and its balanced base-2**B
digits are the coefficients.  B comes from an integer bound: by Parseval
and Hadamard's inequality no coefficient exceeds the product of the rows'
l2 norms on |t| = 1, which is at most sqrt(6) for a Fox row.

The elimination (``_det_sparse``, which ``determinant`` also runs, at
t = -1) is sparse: rows hold only their nonzero entries, and a Fox row has
at most three, one of them a unit.  Each step pivots on the live entry of
smallest bit length, ties going to the shortest row; only the rows with an
entry in the pivot column are eliminated, and the others are at most
rescaled.  Each row's best candidate is cached, so a step rescans only the
rows it rewrote.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        c = _trim(list(coeffs))
        if not c:
            return cls(0, ())
        lead = next(i for i, v in enumerate(c) if v)
        return cls(offset + lead, tuple(c[lead:]))

    @classmethod
    def constant(cls, n: int) -> "LaurentPoly":
        return cls.from_coeffs([n])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_map(self) -> dict[int, int]:
        return {self.offset + i: c for i, c in enumerate(self.coeffs) if c}

    def coefficient_list(self) -> list[int]:
        """Coefficients from the minimal exponent upward."""
        return list(self.coeffs)

    def __call__(self, x: int) -> int:
        """Value at the integer x by Horner's rule; the offset must be >= 0."""
        if self.offset < 0:
            raise ValueError(f"t^{self.offset} has no integer value")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.offset

    def __add__(self, other):
        lo = min(self.offset, other.offset)
        a = [0] * (self.offset - lo) + list(self.coeffs)
        b = [0] * (other.offset - lo) + list(other.coeffs)
        return LaurentPoly.from_coeffs(_padd(a, b), lo)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # From a list, so the tuple is allocated at its final size.  A
        # generator's tuple is taken at a guessed size and resized, so each
        # call would move one block into CPython's free list for the final
        # size, which only a full garbage collection empties.
        return LaurentPoly(self.offset, tuple([-c for c in self.coeffs]))

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
        return LaurentPoly(0, (self if self.coeffs[-1] > 0 else -self).coeffs)

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
# The Fox minor


def _alexander_minor(gc: GaussCode) -> list[dict[int, tuple[int, int]]]:
    """The Fox minor: row i maps column j to (c0, c1), the entry c0 + c1*t.

    Arc j starts just after the j-th under-passage, so the k-th one has
    incoming arc k - 1 (mod n) and outgoing arc k, and an over-passage lies
    on the arc of the last under-passage before it.  The free derivatives
    of the relation out = over^e * in * over^{-e}, abelianized, are linear:
    a positive crossing contributes (1-t, t, -1) on (over, in, out), a
    negative one (t-1, 1, -t) (scaled by t to stay polynomial), and
    coincident arcs add up.  Any one relation is redundant and any one
    column may be struck, and all such minors agree up to units: the last
    relation goes, and so does arc 0, so arc j is column j - 1.
    """
    try:
        gc.validate()
    except ValueError as exc:
        raise MalformedCodeError(str(exc)) from exc
    n = gc.crossing_count
    over_arc = {}
    unders = []
    for e in gc.entries:
        if e.passage == "O":
            over_arc[e.crossing_id] = (len(unders) - 1) % n
        else:
            unders.append(e)
    minor = []
    for k, e in enumerate(unders[:-1]):
        over, into = over_arc[e.crossing_id], (k - 1) % n
        contribs = (((over, 1, -1), (into, 0, 1), (k, -1, 0)) if e.sign > 0
                    else ((over, -1, 1), (into, 1, 0), (k, 0, -1)))
        row: dict[int, tuple[int, int]] = {}
        for arc, c0, c1 in contribs:
            if arc:
                d0, d1 = row.get(arc - 1, (0, 0))
                row[arc - 1] = (c0 + d0, c1 + d1)
        minor.append(row)
    return minor


# ---------------------------------------------------------------------------
# Exact determinants


def _det_sparse(rows: list[dict[int, int]]) -> int:
    """Determinant of the square integer matrix whose nonzero entries are
    ``rows[i][j]``; zeros are not stored, and the rows are consumed.

    Fraction-free (Bareiss) elimination in a dynamic pivot order.  After k
    pivots every live entry is the (k+1)-minor on the pivot rows and
    columns plus its own row and column, and ``prev`` is the k-minor on
    the pivots alone, so each division is exact in any order.  With pivot
    p in column c, a row holding a there becomes (v*p - a*w) / prev on the
    union of its keys and the pivot row's w; any other row is rescaled,
    v*p / prev, and left alone when p == prev.  A negative pivot's row is
    negated, flipping the sign, which makes p == prev common; when prev
    divides p, v*p / prev is v times the quotient, and when p == prev an
    eliminated row is updated in place, dropping the entries that cancel.

    The pivot is the live entry of least bit length, ties going to the
    shorter row, then to the first row and the first entry in it.  Each
    row's best entry is cached as the key (bit length, row length, row
    index, column); the live rows keep their index order, so the least key
    is that pivot.  A step refreshes the keys of the rows it rewrites,
    eliminated or rescaled, and no other key can change.
    """
    live = dict(enumerate(rows))
    best = {}
    for i, row in live.items():
        if not row:
            return 0
        best[i] = _best_entry(i, row)
    col_of: dict[int, int] = {}
    sign = 1
    prev = 1
    while live:
        _, _, r, c = min(best.values())
        del best[r]
        pivot_row = live.pop(r)
        p = pivot_row.pop(c)
        col_of[r] = c
        if p < 0:
            p, sign = -p, -sign
            pivot_row = {j: -w for j, w in pivot_row.items()}
        q, rem = divmod(p, prev)
        for i, row in live.items():
            a = row.pop(c, 0)
            if rem:
                new = {j: v * p for j, v in row.items()}
                if a:
                    for j, w in pivot_row.items():
                        new[j] = new.get(j, 0) - a * w
                new = {j: v // prev for j, v in new.items() if v}
            elif a or q != 1:
                new = row if q == 1 else {j: v * q for j, v in row.items()}
                if a:
                    for j, w in pivot_row.items():
                        v = new.get(j, 0) - a * w // prev
                        if v:
                            new[j] = v
                        else:
                            del new[j]
            else:
                continue
            if not new:
                return 0
            live[i] = new
            best[i] = _best_entry(i, new)
        prev = p
    # The last pivot is the determinant with rows and columns in pivot
    # order.  Convert by the sign of r -> col_of[r]: a cycle of length L
    # is L - 1 transpositions.
    while col_of:
        r, c = col_of.popitem()
        while c != r:
            c = col_of.pop(c)
            sign = -sign
    return sign * prev


def _best_entry(i: int, row: dict[int, int]) -> tuple[int, int, int, int]:
    """The pivot key of row i: its first entry of least bit length."""
    least = None
    for j, v in row.items():
        bits = v.bit_length()
        if least is None or bits < least:
            least, col = bits, j
    return least, len(row), i, col


def _at(minor: list[dict[int, tuple[int, int]]],
        x: int) -> list[dict[int, int]]:
    """The integer matrix minor(x), holding only its nonzero entries."""
    return [{j: v for j, (c0, c1) in row.items() if (v := c0 + c1 * x)}
            for row in minor]


def _kronecker_width(minor: list[dict[int, tuple[int, int]]]) -> int:
    """The B of ``_det_poly``: 2**(B-1) exceeds every coefficient of
    det(minor)."""
    squares = 1
    for row in minor:
        squares *= sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values())
    return isqrt(squares).bit_length() + 1


def _det_poly(minor: list[dict[int, tuple[int, int]]]) -> list[int]:
    """Exact determinant over Z[t] by Kronecker substitution.

    On the unit circle the coefficients of D(t) = det(minor(t)) are its
    Fourier coefficients, so by Parseval none exceeds, in absolute value,
    max |D(t)| over |t| = 1.  By Hadamard's inequality |D(t)| is at most
    the product of the rows' l2 norms, and an entry has
    |c0 + c1*t| <= |c0| + |c1| there, so no coefficient exceeds the square
    root of S = prod_i sum_j (|c0| + |c1|)**2.  The coefficients are
    integers, so none exceeds isqrt(S) either.  With 2**(B-1) above
    isqrt(S) (``_kronecker_width``), the integer det(minor(2**B)) holds the
    coefficients as balanced base-2**B digits, each in
    [-2**(B-1), 2**(B-1)), so one integer elimination recovers them.  A Fox
    row contributes sqrt(6) to the bound where its l1 norm is 4.
    """
    width = _kronecker_width(minor)
    value = _det_sparse(_at(minor, 1 << width))
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


def alexander(gc: GaussCode) -> LaurentPoly:
    """Alexander polynomial of the knot, normalized to minimal exponent 0
    and value +1 at t = 1."""
    return LaurentPoly.from_coeffs(
        _det_poly(_alexander_minor(gc))).normalized()


def determinant(gc: GaussCode) -> int:
    """|Delta(-1)|, computed directly by an integer elimination at t = -1."""
    return abs(_det_sparse(_at(_alexander_minor(gc), -1)))


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
