"""Shared oracle data for the test suite.

REFERENCE_TABLE lists the 51 small irreducible curves with their published
fractions and knot names (triple, fraction or None, name, starred).  It
deliberately duplicates the package's embedded data: the tests treat this
copy as the oracle and the package's as the artifact under test.
``sign_cos`` is the exact cosine sign that the crossing-sign tests compare
the package against, and ``denominator_family_blocks`` builds the
expansion of the fractions (2n^2+1)/(2n) from blocks, independently of
``expand_1212``.
"""

from fractions import Fraction

import pytest

from harmonicknots.exact import sign_sin

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


def denominator_family_blocks(n):
    """The [1, +-2, ...] expansion of (2n^2+1)/(2n), composed from the
    blocks C = [1,2,-1,2] (adds 2), D = [1,-2,1,2] (x -> x/(4x+1)) and
    F = [1,2] ((3x+1)/(2x+1)): n = 2k gives C^k D^k, n = 2k+1 gives
    C^k F D^k."""
    k = n // 2
    middle = [1, 2] if n % 2 else []
    return tuple([1, 2, -1, 2] * k + middle + [1, -2, 1, 2] * k)


def parse_fraction(text):
    """'21/8' -> Fraction(21, 8); '3' -> Fraction(3)."""
    return Fraction(text)


@pytest.fixture(scope="session")
def reference_table():
    return REFERENCE_TABLE
