import random
from bisect import bisect_left
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import enumerate_table_triples
from harmonicknots.diagram import GaussCode, GaussEntry, build_gauss_code
from harmonicknots.invariants import (
    LaurentPoly, MalformedCodeError, _alexander_minor, _at, _det_poly,
    _det_sparse, _kronecker_width, alexander, alexander_of_fraction,
    determinant, factor_square)


def poly(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


@pytest.fixture(scope="module")
def table_codes():
    """The Gauss codes of the 431 curves of ``table --max-ab 72``."""
    return {t: build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            for t in enumerate_table_triples(72)}


class TestLaurentPoly:
    def test_arithmetic(self):
        p = poly(1, -1, 1)
        q = poly(0, 1)
        assert p * q == LaurentPoly.from_coeffs([0, 1, -1, 1])
        assert (p + (-p)).is_zero
        assert p - q == poly(1, -2, 1)
        assert p(2) == 3
        assert poly(1, -3, 1)(-1) == 5
        assert LaurentPoly.from_coeffs([1, 2], offset=2)(-2) == -12
        with pytest.raises(ValueError):
            LaurentPoly.from_coeffs([1], offset=-1)(2)

    def test_shifted_and_normalized(self):
        p = LaurentPoly.from_coeffs([1, -1, 1], offset=-3)
        assert p.offset == -3
        n = p.normalized()
        assert n.offset == 0 and n.coefficient_list() == [1, -1, 1]
        assert LaurentPoly.from_coeffs([-1, 3, -1]).normalized() \
            .coefficient_list() == [1, -3, 1]

    def test_coefficient_map(self):
        p = LaurentPoly.from_coeffs([2, 0, -1], offset=1)
        assert p.coefficient_map() == {1: 2, 3: -1}

    def test_many_leading_zeros(self):
        p = LaurentPoly.from_coeffs([0] * 500 + [1, -1, 1, 0, 0], offset=-3)
        assert p.offset == 497 and p.coeffs == (1, -1, 1)

    def test_all_zero_coefficients(self):
        p = LaurentPoly.from_coeffs([0] * 50, offset=7)
        assert p.is_zero and p.offset == 0 and p.coeffs == ()

    def test_str(self):
        assert str(poly(1, -3, 1)) == "1 - 3t + t^2"
        assert str(poly(2, -3, 2)) == "2 - 3t + 2t^2"
        assert str(LaurentPoly.from_coeffs([])) == "0"


def kink_code(sign=1):
    return GaussCode((GaussEntry(1, "O", sign), GaussEntry(1, "U", sign)))


def bisect_minor(gc):
    """The oracle: the Wirtinger relations (over, incoming, outgoing arc
    and sign), one per under-passage, with each over-passage's arc found by
    bisecting the under-passage positions, then the Fox rows of all
    relations but the last, arc 0 struck and coincident arcs summed."""
    entries = gc.entries
    n = gc.crossing_count
    unders = [i for i, e in enumerate(entries) if e.passage == "U"]
    overs = {e.crossing_id: i for i, e in enumerate(entries)
             if e.passage == "O"}
    relations = [((bisect_left(unders, overs[entries[u].crossing_id]) - 1) % n,
                  (k - 1) % n, k, entries[u].sign)
                 for k, u in enumerate(unders)]
    fox = {1: ((1, -1), (0, 1), (-1, 0)), -1: ((-1, 1), (1, 0), (0, -1))}
    minor = []
    for over, incoming, outgoing, sign in relations[:-1]:
        row = {}
        for arc, (c0, c1) in zip((over, incoming, outgoing), fox[sign]):
            if arc:
                d0, d1 = row.get(arc - 1, (0, 0))
                row[arc - 1] = (c0 + d0, c1 + d1)
        minor.append(row)
    return minor


@st.composite
def valid_codes(draw):
    """Gauss codes of 0 to 9 crossings: each id passes twice, in any order,
    once over and once under, and every passage has its own random sign."""
    n = draw(st.integers(0, 9))
    ids = draw(st.permutations([cid for cid in range(1, n + 1)
                                for _ in range(2)]))
    over_first = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1)),
                          min_size=2 * n, max_size=2 * n))
    seen = set()
    entries = []
    for cid, sign in zip(ids, signs):
        first = cid not in seen
        seen.add(cid)
        over = over_first[cid - 1] == first
        entries.append(GaussEntry(cid, "O" if over else "U", sign))
    return GaussCode(tuple(entries))


def rows_in_key_order(minor):
    # The key order decides pivot ties in ``_det_sparse``.
    return [list(row.items()) for row in minor]


class TestWirtinger:
    def test_trefoil_structure(self):
        assert len(_alexander_minor(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 4, 5))))) == 2

    def test_figure_eight_structure(self):
        assert len(_alexander_minor(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 5, 7))))) == 3

    def test_kink_gives_trivial_polynomial(self):
        for sign in (1, -1):
            assert alexander(kink_code(sign)) == poly(1)

    def test_coincident_arcs_add_up(self):
        # Two kinks in a row: the first crossing's over arc is its
        # incoming arc, so (1-t) + t = 1, or (t-1) + 1 = t when negative.
        for sign, entry in ((1, (1, 0)), (-1, (0, 1))):
            gc = GaussCode(tuple(GaussEntry(cid, passage, sign)
                                 for cid in (1, 2) for passage in "OU"))
            assert _alexander_minor(gc) == [{0: entry}]

    def test_crossing_free_code_is_the_unknot(self):
        # Its minor has no rows, and a 0 x 0 determinant is 1.
        assert _alexander_minor(GaussCode(())) == []
        assert alexander(GaussCode(())) == poly(1)
        assert determinant(GaussCode(())) == 1

    def test_malformed_code(self):
        gc = GaussCode((GaussEntry(1, "O", 1), GaussEntry(1, "O", 1)))
        for route in (alexander, determinant):
            with pytest.raises(MalformedCodeError):
                route(gc)

    def test_table_rows_match_the_bisect_route(self, table_codes):
        for t, gc in table_codes.items():
            assert rows_in_key_order(_alexander_minor(gc)) == \
                rows_in_key_order(bisect_minor(gc)), t

    @given(valid_codes())
    def test_random_rows_match_the_bisect_route(self, gc):
        minor = _alexander_minor(gc)
        assert len(minor) == max(gc.crossing_count - 1, 0)
        assert rows_in_key_order(minor) == rows_in_key_order(bisect_minor(gc))


class TestAlexander:
    def test_curve_fixtures(self):
        assert alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 4, 5)))) == \
            poly(1, -1, 1)
        assert alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 5, 7)))) == \
            poly(1, -3, 1)
        assert alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(5, 7, 11)))) == \
            poly(1, -3, 1) * poly(1, -3, 1)

    def test_fraction_oracle_fixtures(self):
        assert alexander_of_fraction([3]) == poly(1, -1, 1)
        assert alexander_of_fraction([2, 2]) == poly(1, -3, 1)
        assert alexander_of_fraction([3, 2]) == poly(2, -3, 2)
        assert alexander_of_fraction([3, 2])(-1) == 7

    def test_normalization_and_symmetry(self):
        for t in [(3, 4, 5), (3, 7, 8), (4, 5, 7), (4, 7, 9), (5, 6, 7),
                  (5, 7, 11), (6, 7, 11)]:
            d = alexander(build_gauss_code(
                enumerate_crossings(HarmonicTriple(*t))))
            assert d.offset == 0
            coeffs = d.coefficient_list()
            assert coeffs[-1] > 0
            assert abs(sum(coeffs)) == 1
            assert coeffs == coeffs[::-1], t

    def test_invariance_under_reversal_and_mirror(self):
        for t in [(3, 5, 7), (4, 5, 7), (5, 6, 7)]:
            gc = build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            d = alexander(gc)
            assert alexander(gc.reversed()) == d
            assert alexander(gc.mirrored()) == d

    def test_determinant_is_alexander_at_minus_one(self):
        for t in [(3, 4, 5), (3, 5, 7), (4, 7, 9), (5, 6, 7), (5, 7, 9),
                  (6, 7, 11)]:
            gc = build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            assert determinant(gc) == abs(alexander(gc)(-1)), t


def det_dense(m):
    """The oracle: dense fraction-free (Bareiss) elimination with the
    diagonal pivot, swapping in the first nonzero row below when it is 0."""
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


def sparse(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def dense_at(minor, x):
    """The n x n integer matrix of the pair rows ``minor`` at t = x."""
    n = len(minor)
    return [[c0 + c1 * x for c0, c1 in (row.get(j, (0, 0)) for j in range(n))]
            for row in minor]


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def l1_width(minor):
    """The oracle width: no coefficient of det(minor) exceeds the product of
    the rows' l1 norms, and 2**(B-1) must exceed that product."""
    bound = 1
    for row in minor:
        bound *= sum(abs(c0) + abs(c1) for c0, c1 in row.values())
    return bound.bit_length() + 1


def balanced_digits(value, width):
    """The digits of value in base 2**width, each in [-2**(width-1),
    2**(width-1)), least significant first."""
    base = 2 ** width
    digits = []
    while value:
        digit = value % base
        if 2 * digit >= base:
            digit -= base
        digits.append(digit)
        value = (value - digit) // base
    return digits


def pair_minors(entry):
    """Square minors of up to 6 rows with pairs drawn from [-entry, entry]."""
    return st.integers(0, 6).flatmap(lambda n: st.lists(
        st.dictionaries(st.integers(0, max(n - 1, 0)),
                        st.tuples(st.integers(-entry, entry),
                                  st.integers(-entry, entry)),
                        max_size=n),
        min_size=n, max_size=n))


def assert_matches_evaluations(minor):
    """Every entry is linear, so det(minor) has degree <= n and n+1 points
    pin it down: at each of 0, 1, -1, 2, -2, ... the polynomial route must
    equal the integer determinant of the evaluated minor."""
    det = _det_poly(minor)
    n = len(minor)
    for i in range(n + 1):
        x = (i + 1) // 2 * (1 if i % 2 else -1)
        assert horner(det, x) == det_dense(dense_at(minor, x)), (n, x)
    return det


class TestPolyDeterminant:
    def test_curve_minors_match_integer_evaluations(self):
        # Minors of 2 to 39 rows, H(9,11,13) the largest.
        for t in [(3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9), (5, 6, 7),
                  (4, 9, 11), (5, 8, 9), (6, 7, 11), (5, 11, 13),
                  (7, 9, 11), (8, 9, 11), (7, 11, 13), (9, 10, 11),
                  (9, 11, 13)]:
            minor = _alexander_minor(build_gauss_code(
                enumerate_crossings(HarmonicTriple(*t))))
            assert_matches_evaluations(minor)
        assert len(minor) == 39

    def test_table_minor_rows_are_small(self, table_codes):
        # The Fox rows the elimination sees: 1 to 3 linear entries, none of
        # them stored as zero, and an l1 norm of at most 4.  A row
        # (1-t, t, -1) has l1 norm 4, and its term in the Kronecker width's
        # bound, sum (|c0| + |c1|)**2, is 6.
        assert len(table_codes) == 431
        for t, gc in table_codes.items():
            minor = _alexander_minor(gc)
            for row in minor:
                assert 1 <= len(row) <= 3, t
                assert (0, 0) not in row.values(), t
                assert sum(abs(c0) + abs(c1)
                           for c0, c1 in row.values()) <= 4, t

    def test_width_is_within_the_l1_width(self, table_codes):
        # Both widths decode det(minor(2**B)) to the same coefficients.
        codes = list(table_codes.values())
        codes.append(build_gauss_code(
            enumerate_crossings(HarmonicTriple(13, 15, 17))))
        for gc in codes:
            minor = _alexander_minor(gc)
            width, oracle = _kronecker_width(minor), l1_width(minor)
            assert width <= oracle
            assert _det_poly(minor) == balanced_digits(
                _det_sparse(_at(minor, 1 << oracle)), oracle)
        assert len(minor) == 83 and (width, oracle) == (109, 167)

    def test_empty_and_one_row(self):
        assert _det_poly([]) == [1]
        assert assert_matches_evaluations([{0: (1, -1)}]) == [1, -1]
        assert assert_matches_evaluations([{0: (0, -2)}]) == [0, -2]

    def test_diagonal_minors_near_the_bound(self):
        for n in range(1, 41):
            # (1+t)^n and (-1-t)^n; (2t)^n and (-2)^n meet the bound 2^n.
            cases = (((1, 1), [comb(n, k) for k in range(n + 1)]),
                     ((-1, -1), [(-1) ** n * comb(n, k)
                                  for k in range(n + 1)]),
                     ((0, 2), [0] * n + [2 ** n]),
                     ((-2, 0), [(-2) ** n]))
            for entry, expected in cases:
                minor = [{i: entry} for i in range(n)]
                assert _det_poly(minor) == expected, (n, entry)

    def test_singular_minor(self):
        row = {0: (1, -1), 1: (0, 1), 2: (-1, 0)}
        assert _det_poly([row, row, {0: (2, 0), 1: (1, 1)}]) == []
        assert _det_poly([{0: (1, 1), 1: (1, 0)}, {}]) == []

    def test_untrimmed_zero_entries_are_not_pivots(self):
        # (0, 0) evaluates to 0; stored, it would be the entry of least
        # bit length and the pivot.
        minor = [{2: (1, 0)}, {1: (-1, 0)}, {0: (1, 0), 2: (0, 0)}]
        assert assert_matches_evaluations(minor) == [1]

    @given(pair_minors(2))
    def test_random_small_matrices(self, minor):
        assert_matches_evaluations(minor)

    @given(pair_minors(9))
    def test_random_wide_pairs(self, minor):
        assert _kronecker_width(minor) <= l1_width(minor)
        assert_matches_evaluations(minor)


def permutation_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


class TestSparseElimination:
    def test_permutation_matrices(self):
        for n in range(7):
            for perm in permutations(range(n)):
                assert _det_sparse([{j: 1} for j in perm]) == \
                    permutation_sign(perm), perm

    def test_row_that_empties_during_elimination(self):
        # The third row is the sum of the first two, so it empties once
        # both of them have been pivot rows.
        m = [[1, 2, 0, 0], [0, 1, 3, 0], [1, 3, 3, 0], [0, 0, 0, 5]]
        assert det_dense(m) == 0
        assert _det_sparse(sparse(m)) == 0

    def test_cancellation_after_an_inexact_quotient(self):
        # The second pivot, 2, is no multiple of the first, 3, and that
        # step cancels an entry of the last row; stored, the 0 would be
        # the next pivot.
        m = [[5, 0, 0, 0], [5, 0, 4, 5], [3, -2, 2, 2], [4, 0, 4, 6]]
        assert det_dense(m) == 40
        assert _det_sparse(sparse(m)) == 40

    def test_determinant_of_a_large_curve(self):
        gc = build_gauss_code(enumerate_crossings(HarmonicTriple(13, 15, 17)))
        minor = _alexander_minor(gc)
        assert len(minor) == 83
        assert determinant(gc) == 905 == abs(det_dense(dense_at(minor, -1)))

    def test_table_determinants(self, table_codes):
        for t, gc in table_codes.items():
            minor = _alexander_minor(gc)
            assert determinant(gc) == abs(det_dense(dense_at(minor, -1))), t

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.sampled_from([((2, 3), (3, 4)), ((3, -2), (4, -3)),
                         ((-2, 3), (3, -5))]),
        st.lists(st.lists(st.just(0) | st.integers(4, 15)
                          | st.integers(-15, -4), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.permutations(range(n + 2)),
        st.permutations(range(n + 2)))))
    def test_inexact_quotients_and_rescaled_rows(self, case):
        # Two rows of entries of 2 or 3 bits with determinant +-1, beside a
        # block of entries of 3 bits or more whose diagonal is nonzero.  The
        # first pivot p is one of 2 bits, so every block row is rescaled by
        # |p|; the second is +-1, no multiple of |p|, so every block row
        # takes an inexact step.  Both rewrite rows without eliminating
        # them, and their pivot keys must be refreshed.
        pair, block, row_order, col_order = case
        n = len(block)
        m = [[0] * (n + 2) for _ in range(n + 2)]
        m[0][:2], m[1][:2] = pair
        for i, row in enumerate(block):
            m[i + 2][2:] = row
            m[i + 2][i + 2] = row[i] or 4
        m = [[m[i][j] for j in col_order] for i in row_order]
        assert _det_sparse(sparse(m)) == det_dense(m)

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-9, 9) | st.just(0),
                          min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1), max_size=2) if n else st.just(set()),
        st.sets(st.integers(0, n - 1), max_size=2) if n else st.just(set()))))
    def test_random_sparse_matrices(self, case):
        m, zero_rows, zero_cols = case
        m = [[0 if i in zero_rows or j in zero_cols else v
              for j, v in enumerate(row)] for i, row in enumerate(m)]
        assert _det_sparse(sparse(m)) == det_dense(m)


class TestFactorSquare:
    def test_constructed_squares(self):
        sq = poly(1, -3, 1) * poly(1, -3, 1)
        assert factor_square(sq) == poly(1, -3, 1)
        sq = poly(1, -1, 1) * poly(1, -1, 1)
        assert factor_square(sq) == poly(1, -1, 1)

    def test_non_squares(self):
        assert factor_square(poly(1, -1, 1)) is None
        assert factor_square(poly(1, -3, 1)) is None
        assert factor_square(poly(1, -1, 1) * poly(1, -3, 1)) is None

    def test_random_squares_roundtrip(self):
        rng = random.Random(67)
        for _ in range(50):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            coeffs.append(1)
            q = LaurentPoly.from_coeffs(coeffs)
            if abs(sum(q.coeffs)) != 1:
                continue
            got = factor_square(q * q)
            assert got is not None and got * got == (q * q).normalized()

    def test_large_coefficients_need_an_exact_root(self):
        n = 10 ** 20 + 12345
        q = poly(n, -(2 * n - 1), n)
        assert factor_square(q * q) == q
