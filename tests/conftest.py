"""Shared oracle data for the test suite.

REFERENCE_TABLE lists the 51 small irreducible curves with their published
fractions and knot names (triple, fraction or None, name, starred).  It
deliberately duplicates the package's embedded data: the tests treat this
copy as the oracle and the package's as the artifact under test.
``sign_cos`` is the exact cosine sign that the crossing-sign tests compare
the package against.  ``crossing_signs`` and ``reference_crossings``
compute each crossing's signs and the whole crossing list one double
point at a time, the oracle for the per-(a, b) frame behind
``enumerate_crossings``.  ``assert_same_text`` compares two long texts,
such as SVG drawings, and reports where they first differ.
``denominator_family_blocks`` builds the
expansion of the fractions (2n^2+1)/(2n) from blocks, independently of
``expand_1212``.  The helpers after them are oracles for results the
package itself does not compute: continuant matrices, sign-change
positions, the biregular crossing-number formula, reversal and mirror of
a Gauss code, products of polynomials, and the Alexander polynomial of a
twist sequence and, by Hartley's formula, of a two-bridge fraction.
``TWIST_FRACTIONS`` lists every two-bridge fraction alpha/beta with
alpha < 200, and ``twist_code`` builds its twist diagram.  The Fox
elimination that ``alexander`` replaced is the oracle in
``fox_oracle.py``.
"""

import hashlib
from fractions import Fraction
from math import gcd

import pytest

from harmonicknots.cfrac import SchubertFraction, positive_cf
from harmonicknots.chebgeom import Crossing
from harmonicknots.diagram import GaussCode, GaussEntry, diagram_from_conway
from harmonicknots.exact import fold, sign_sin
from harmonicknots.invariants import LaurentPoly, alexander

REFERENCE_TABLE = [
    ((3, 4, 5), "3", "3_1", False),
    ((3, 5, 7), "5/2", "4_1", False),
    ((3, 7, 8), "5", "5_1", False),
    ((3, 7, 11), "13/5", "6_3", False),
    ((3, 8, 13), "21/8", "7_7", False),
    ((3, 10, 11), "7", "7_1", False),
    ((3, 10, 17), "55/21", "9_31", False),
    ((3, 11, 13), "17/4", "8_3", False),
    ((3, 11, 16), "39/14", "9_17", False),
    ((3, 11, 19), "89/34", "10_45", False),
    ((3, 13, 14), "9", "9_1", False),
    ((3, 13, 17), "53/23", "10_28", False),
    ((3, 13, 20), "105/41", "11a175", False),
    ((3, 13, 23), "233/89", "12a499", False),
    ((3, 14, 19), "77/34", "11a119", True),
    ((3, 14, 25), "377/144", "13a1739", False),
    ((3, 16, 17), "11", "11a367", False),
    ((3, 16, 23), "187/67", "13a2124", True),
    ((3, 16, 29), "987/377", "15a39533", True),
    ((4, 5, 7), "7/2", "5_2", False),
    ((4, 5, 11), "11/3", "6_2", False),
    ((4, 7, 9), "17/5", "7_5", False),
    ((4, 7, 13), "23/5", "8_7", False),
    ((4, 7, 17), "41/11", "9_20", False),
    ((4, 9, 11), "41/12", "9_18", False),
    ((4, 9, 19), "89/25", "11a180", False),
    ((4, 9, 23), "153/41", "12a541", False),
    ((4, 11, 13), "99/29", "11a236", False),
    ((4, 11, 17), "113/31", "12a758", False),
    ((4, 11, 21), "187/41", "13a2679", True),
    ((4, 11, 25), "329/87", "14a7552", True),
    ((4, 11, 29), "571/153", "15a42637", True),
    ((5, 6, 7), "7/4", "5_2", False),
    ((5, 6, 13), None, "10_159", False),
    ((5, 6, 19), None, "10_116", False),
    ((5, 7, 8), "5/2", "4_1", False),
    ((5, 7, 9), "13/8", "6_3", False),
    ((5, 7, 11), None, "4_1#4_1", False),
    ((5, 7, 13), None, "12n356", False),
    ((5, 7, 16), None, "12n798", False),
    ((5, 7, 18), None, "12n321", False),
    ((5, 7, 23), None, "12a960", False),
    ((5, 8, 9), "13/4", "7_3", False),
    ((5, 8, 11), "21/13", "7_7", False),
    ((5, 8, 17), None, "14n22712", True),
    ((5, 8, 19), None, "14n26120", True),
    ((5, 8, 27), None, "14a19221", True),
    ((6, 7, 11), None, "10_134", False),
    ((6, 7, 17), None, "15n42918", True),
    ((6, 7, 23), None, "15n165258", True),
    ((6, 7, 29), None, "15a81117", False),
]


def sign_cos(p, q):
    """Sign of cos((p/q)*pi), via the complementary angle (1/2 - p/q)*pi."""
    return sign_sin(q - 2 * p, 2 * q)


def assert_same_text(got, want):
    """Fail unless two texts (both str or both bytes) are equal, reporting
    their lengths and the first differing offset with 40 characters of
    context on each side.  pytest's own report of a failing ``==`` diffs
    the whole of both texts, which takes seconds to minutes for an SVG."""
    def digest(text):
        return hashlib.sha256(
            text.encode() if isinstance(text, str) else text).digest()

    assert type(got) is type(want), (type(got), type(want))
    if digest(got) == digest(want):
        return
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
              min(len(got), len(want)))
    lo = max(at - 40, 0)
    pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, first "
                f"difference at offset {at}\n"
                f" got[{lo}:{at + 40}]: {got[lo:at + 40]!r}\n"
                f"want[{lo}:{at + 40}]: {want[lo:at + 40]!r}", pytrace=False)


def sine_signs(K, h, k):
    """Signs of sin(ch/b pi), sin(ck/a pi), sin(ah/b pi), sin(bk/a pi)."""
    a, b, c = K.a, K.b, K.c
    signs = (
        sign_sin(c * h, b),
        sign_sin(c * k, a),
        sign_sin(a * h, b),
        sign_sin(b * k, a),
    )
    if 0 in signs:
        raise ValueError(
            f"zero sine at crossing (h={h}, k={k}) of H{(a, b, c)}")
    return signs


def crossing_signs(K, h, k):
    """(twist sign, oriented sign, over_at_t) of the crossing (h, k).

    z(t) - z(s) has the sign of -sin(ch/b pi) sin(ck/a pi), and the strand
    at t passes over iff it is positive.  The twist sign is +1 iff
    D = (z(t)-z(s)) x'(t) y'(t) > 0, where x'(t) y'(t) carries the sign
    (-1)^(h+k) sin(ah/b pi) sin(bk/a pi).  The oriented sign is the twist
    sign times the sign of kb - ha.
    """
    s_chb, s_cka, s_ahb, s_bka = sine_signs(K, h, k)
    zdiff = -s_chb * s_cka
    sign = zdiff * (-1 if (h + k) % 2 else 1) * s_ahb * s_bka
    return sign, sign * (1 if k * K.b > h * K.a else -1), zdiff > 0


def crossing_parameters(K):
    """All (h, k) with h, k >= 1 and k/a + h/b < 1, i.e. kb + ha < ab."""
    a, b = K.a, K.b
    return [(h, k) for h in range(1, b) for k in range(1, a)
            if k * b + h * a < a * b]


def reference_crossings(K):
    """``enumerate_crossings(K)`` computed crossing by crossing from the
    three oracles above, with no per-(a, b) frame: sorted by folded x
    numerator, then folded y numerator."""
    a, b = K.a, K.b
    records = sorted((fold(k * b + h * a, b), fold(k * b + h * a, a), h, k)
                     for h, k in crossing_parameters(K))
    ranks = {x_fold: rank for rank, x_fold
             in enumerate(sorted({r[0] for r in records}))}
    crossings = []
    for x_fold, y_level, h, k in records:
        sign, oriented, over = crossing_signs(K, h, k)
        crossings.append(Crossing(
            h=h, k=k, t_num=k * b + h * a, s_num=abs(k * b - h * a),
            sign=sign, oriented_sign=oriented, over_at_t=over,
            x_order=ranks[x_fold], y_level=y_level))
    return crossings


def denominator_family_blocks(n):
    """The [1, +-2, ...] expansion of (2n^2+1)/(2n), composed from the
    blocks C = [1,2,-1,2] (adds 2), D = [1,-2,1,2] (x -> x/(4x+1)) and
    F = [1,2] ((3x+1)/(2x+1)): n = 2k gives C^k D^k, n = 2k+1 gives
    C^k F D^k."""
    k = n // 2
    middle = [1, 2] if n % 2 else []
    return tuple([1, 2, -1, 2] * k + middle + [1, -2, 1, 2] * k)


def cf_matrix(terms):
    """(p, q, r, s), the product of the matrices [[ai, 1], [1, 0]]: the
    map x -> [a1, ..., an, x] = (p*x + q) / (r*x + s)."""
    p, q, r, s = 1, 0, 0, 1
    for a in terms:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


def sign_changes(terms):
    """The 1-based positions j with term_j * term_{j+1} < 0, and whether
    they are symmetric under j -> n - j (palindromic)."""
    n = len(terms)
    changes = tuple(j for j in range(1, n) if terms[j - 1] * terms[j] < 0)
    return changes, all(n - j in changes for j in changes)


class PreconditionError(ValueError):
    """A biregular hypothesis on the term sequence fails."""


def crossing_number_bireg(terms):
    """Crossing number read off a biregular term sequence.

    Requires a1*a2 > 0, a_{n-1}*a_n > 0 and no two consecutive sign changes;
    then the crossing number is sum(|ai|) minus the number of sign changes.
    """
    terms = list(terms)
    n = len(terms)
    if n == 0 or any(t == 0 for t in terms):
        raise PreconditionError("zero terms are not biregular")
    changes = [j for j in range(n - 1) if terms[j] * terms[j + 1] < 0]
    failures = []
    if n >= 2 and terms[0] * terms[1] < 0:
        failures.append("first two terms differ in sign")
    if n >= 2 and terms[-2] * terms[-1] < 0:
        failures.append("last two terms differ in sign")
    if any(j + 1 in changes for j in changes):
        failures.append("two consecutive sign changes")
    if failures:
        raise PreconditionError("; ".join(failures))
    return sum(abs(t) for t in terms) - len(changes)


def reversed_code(gc):
    """The Gauss code traversed the other way; crossing signs stay."""
    return GaussCode(tuple(reversed(gc.entries)))


def mirrored_code(gc):
    """The mirror image: over and under swap, and every sign flips."""
    flip = {"O": "U", "U": "O"}
    return GaussCode(tuple(GaussEntry(e.crossing_id, flip[e.passage], -e.sign)
                           for e in gc.entries))


def poly_product(p, q):
    """p * q for two LaurentPoly values."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] += x * y
    return LaurentPoly.from_coeffs(out)


def alexander_of_fraction(terms):
    """Alexander polynomial of the two-bridge knot C(a1, ..., an), through
    the standard twist diagram, which shares no diagram-building code with
    the Chebyshev pipeline."""
    return alexander(diagram_from_conway(terms))


# Every fraction alpha/beta of a two-bridge knot with alpha < 200.
TWIST_FRACTIONS = [(alpha, beta) for alpha in range(3, 200, 2)
                   for beta in range(1, alpha) if gcd(alpha, beta) == 1]


def twist_code(alpha, beta):
    """The twist diagram of alpha/beta, read from its positive expansion."""
    return diagram_from_conway(positive_cf(SchubertFraction(alpha, beta)))


def hartley_alexander(alpha, beta):
    """Alexander polynomial of the two-bridge knot alpha/beta (odd alpha)
    by Hartley's formula, "Identifying non-invertible knots", Topology 22
    (1983): with beta made odd by adding alpha, the sum over i < alpha of
    (-1)^i t^(e_1 + ... + e_i), where e_j = (-1)^floor(j beta / alpha).
    It reads no diagram at all."""
    if beta % 2 == 0:
        beta += alpha
    coeffs = {}
    exponent = 0
    for i in range(alpha):
        if i:
            exponent += -1 if i * beta // alpha % 2 else 1
        coeffs[exponent] = coeffs.get(exponent, 0) + (-1) ** i
    low = min(coeffs)
    dense = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        dense[e - low] = c
    return LaurentPoly.from_coeffs(dense)


def parse_fraction(text):
    """'21/8' -> Fraction(21, 8); '3' -> Fraction(3)."""
    return Fraction(text)


@pytest.fixture(scope="session")
def reference_table():
    return REFERENCE_TABLE
