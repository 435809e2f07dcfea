"""The Fox elimination that ``invariants`` ran before its sweep, kept as
the oracle for it.

``_alexander_minor`` builds the whole (n-1) x (n-1) Fox minor on arcs as
sparse rows of (c0, c1) entries.  ``_det_poly`` evaluates it at t = 2**B,
with B from ``_kronecker_width``, the Hadamard bound of the minor's own
rows, and takes the integer determinant by ``_det_sparse``, a
pivot-cached sparse fraction-free elimination, whose balanced base-2**B
digits are the coefficients.  ``oracle_alexander`` and
``oracle_determinant`` are the two invariants by this route.
"""

from math import isqrt

from harmonicknots.diagram import GaussCode
from harmonicknots.invariants import LaurentPoly


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
    gc.validate()
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


def _kronecker_width(rows) -> int:
    """The B of ``alexander``: 2**(B-1) exceeds every coefficient of the
    determinant of the rows, dicts of (c0, c1) entries."""
    squares = 1
    for row in rows:
        squares *= sum([(abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values()])
    return isqrt(squares).bit_length() + 1


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


def oracle_alexander(gc: GaussCode) -> LaurentPoly:
    return LaurentPoly.from_coeffs(_det_poly(_alexander_minor(gc)))


def oracle_determinant(gc: GaussCode) -> int:
    return abs(_det_sparse(_at(_alexander_minor(gc), -1)))
