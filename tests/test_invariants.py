import hashlib
import random
import sys
import tracemalloc
from bisect import bisect_left
from itertools import permutations
from math import comb, gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from harmonicknots import invariants
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import analyze, enumerate_table_triples
from harmonicknots.diagram import GaussCode, GaussEntry, build_gauss_code
from harmonicknots.invariants import (
    LaurentPoly, _det, _digits, _plan, _strip, alexander, determinant,
    factor_square)

import fox_oracle
from conftest import (TWIST_FRACTIONS, alexander_of_fraction,
                      hartley_alexander, mirrored_code, poly_product,
                      reversed_code, twist_code)
from fox_oracle import (_alexander_minor, _at, _det_poly, _det_sparse,
                        _kronecker_width, oracle_alexander,
                        oracle_determinant)


def poly(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


@pytest.fixture(scope="module")
def table_codes():
    """The Gauss codes of the 431 curves of ``table --max-ab 72``."""
    return {t: build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            for t in enumerate_table_triples(72)}


# Coefficient lists of value +-1 at t = 1, the zero ones included: the
# last coefficient makes up the sum, and may itself be 0.
UNIT_COEFFS = st.lists(st.integers(-50, 50), max_size=8).flatmap(
    lambda head: st.sampled_from((1, -1)).map(
        lambda unit: head + [unit - sum(head)]))


def assert_normalized(p):
    c = p.coeffs
    assert c[0] != 0 and c[-1] > 0 and sum(c) in (1, -1), c


class TestLaurentPoly:
    def test_evaluation(self):
        assert poly(1, -1, 1)(2) == 3
        assert poly(1, -3, 1)(-1) == 5
        assert poly(2, -3, 2)(-1) == 7

    def test_shifted_and_normalized(self):
        # t^3 - t^4 + t^5 is 1 - t + t^2 up to a unit, and so is its
        # negative; -1 + 3t - t^2 is 1 - 3t + t^2 up to sign.
        assert LaurentPoly.from_coeffs([0, 0, 0, 1, -1, 1]).coeffs == \
            (1, -1, 1)
        assert LaurentPoly.from_coeffs([0, -1, 1, -1]) == poly(1, -1, 1)
        assert LaurentPoly.from_coeffs([-1, 3, -1]).coeffs == (1, -3, 1)

    def test_many_leading_zeros(self):
        p = LaurentPoly.from_coeffs([0] * 500 + [1, -1, 1, 0, 0])
        assert p.coeffs == (1, -1, 1)

    def test_all_zero_coefficients(self):
        for zero in ([], [0] * 50):
            with pytest.raises(ValueError,
                               match="value at t=1 is 0, not a unit"):
                LaurentPoly.from_coeffs(zero)

    def test_only_the_normalized_form_constructs(self):
        # Zero or negative ends, or a value at t = 1 other than +-1.
        for coeffs in [(0, -1), (), (0,), (-1,), (1, -1, 0), (-1, 1, -1),
                       (1, 1), (2, -2, 2)]:
            with pytest.raises(ValueError, match="not a unit-normalized"):
                LaurentPoly(coeffs)
        assert LaurentPoly((1, -3, 1)) == \
            LaurentPoly.from_coeffs([0, -1, 3, -1])

    def test_str(self):
        assert str(poly(1)) == "1"
        assert str(poly(1, -3, 1)) == "1 - 3t + t^2"
        assert str(poly(2, -3, 2)) == "2 - 3t + 2t^2"
        assert str(poly(-1, 0, 2)) == "-1 + 2t^2"

    @given(UNIT_COEFFS, st.integers(0, 20), st.sampled_from((1, -1)))
    def test_one_normalization_rule(self, p, shift, sign):
        q = LaurentPoly.from_coeffs(p)
        assert LaurentPoly.from_coeffs(
            [0] * shift + [sign * v for v in p]) == q
        assert_normalized(q)
        # The same polynomial up to +-t^k: only zero ends and a sign go.
        core = p[next(i for i, v in enumerate(p) if v):]
        while not core[-1]:
            core.pop()
        assert list(q.coeffs) in (core, [-v for v in core])

    @given(st.lists(st.integers(-50, 50), max_size=8))
    def test_non_units_raise(self, p):
        assume(sum(p) not in (1, -1))
        with pytest.raises(ValueError, match="not a unit"):
            LaurentPoly.from_coeffs(p)


def kink_code(sign=1):
    return GaussCode((GaussEntry(1, "O", sign), GaussEntry(1, "U", sign)))


# The Fox coefficients (c0, c1) of c0 + c1*t on (over, in, out), by sign.
FOX = {1: ((1, -1), (0, 1), (-1, 0)), -1: ((-1, 1), (1, 0), (0, -1))}


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
    minor = []
    for over, incoming, outgoing, sign in relations[:-1]:
        row = {}
        for arc, (c0, c1) in zip((over, incoming, outgoing), FOX[sign]):
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
            with pytest.raises(ValueError, match="lacks an over or under"):
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
            poly_product(poly(1, -3, 1), poly(1, -3, 1))

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
            assert_normalized(d)
            assert d.coeffs == d.coeffs[::-1], t

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda b: st.tuples(
        st.integers(1, b - 1), st.just(b), st.integers(1, 10 ** 6))))
    def test_random_curves_are_normalized_and_palindromic(self, triple):
        a, b, c = triple
        assume(gcd(a, b) == 1 and gcd(c, a * b) == 1)
        d = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(a, b, c))))
        assert_normalized(d)
        assert d.coeffs == d.coeffs[::-1], triple

    def test_invariance_under_reversal_and_mirror(self):
        for t in [(3, 5, 7), (4, 5, 7), (5, 6, 7)]:
            gc = build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            d = alexander(gc)
            assert alexander(reversed_code(gc)) == d
            assert alexander(mirrored_code(gc)) == d

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


def strip_by_transposes(m, shift):
    """The strip by its first route: each row's common power of
    T = 2**shift leaves it, then each column's, as a row of the
    transpose, transposed back."""
    for _ in range(2):
        for i, row in enumerate(m):
            low = min(((v & -v).bit_length() for v in row if v), default=0)
            if not low:
                return None
            power = (low - 1) // shift * shift
            if power:
                m[i] = [v >> power for v in row]
        m = [list(col) for col in zip(*m)]
    return m


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

    def test_cached_pivot_is_the_rescanned_pivot(self, table_codes,
                                                 monkeypatch):
        # A stale cached key costs speed, not correctness, so no determinant
        # shows it.  At every step the least cached key must be the key a
        # full rescan of the live rows finds: least bit length, then the
        # shorter row, the first row, and the first entry in that row.
        steps = []

        # ``_det_sparse`` picks its pivot with ``min(best.values())``, and a
        # ``min`` in the oracle module's namespace shadows the builtin; the
        # caller's frame holds the live rows.
        def checked_min(values):
            caller = sys._getframe(1)
            if caller.f_code is not _det_sparse.__code__:
                return min(values)
            cached = min(values)
            bits, length, i, _, j = min(
                (v.bit_length(), len(row), i, position, j)
                for i, row in caller.f_locals["live"].items()
                for position, (j, v) in enumerate(row.items()))
            steps.append(cached == (bits, length, i, j))
            return cached

        monkeypatch.setattr(fox_oracle, "min", checked_min, raising=False)
        rows = 0
        for t, gc in table_codes.items():
            minor = _alexander_minor(gc)
            _det_sparse(_at(minor, 1 << _kronecker_width(minor)))
            _det_sparse(_at(minor, -1))
            rows += 2 * len(minor)
        # Every table minor is nonsingular at both points, so each of its
        # rows is a pivot once.
        assert len(steps) == rows
        assert all(steps)

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


def relabelled(gc, seed):
    """The same code with its crossing ids permuted by a seeded shuffle, so
    the sweep, which goes by decreasing id, meets its relations in a random
    order."""
    ids = sorted({e.crossing_id for e in gc.entries})
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    new_id = dict(zip(ids, shuffled))
    return GaussCode(tuple(GaussEntry(new_id[e.crossing_id], e.passage,
                                      e.sign) for e in gc.entries))


def system_sizes(monkeypatch):
    """A list that collects k, the size of each k x k system the sweep
    leaves to ``_det``."""
    sizes = []

    def spy(m, shift):
        sizes.append(len(m))
        return _det(m, shift)

    monkeypatch.setattr(invariants, "_det", spy)
    return sizes


def outcome(route, gc):
    """route(gc), or the exception type it raises."""
    try:
        return route(gc)
    except ValueError as exc:
        return type(exc)


def segment_relations(gc):
    """One Fox row per passage, on the segments (segment i runs from
    passage i to passage i + 1): the identity s(p-1) = s(p) of an
    over-passage p, the Wirtinger relation on (over, in, out) of an
    under-passage.  Eliminating the identities, on their unit pivots,
    merges the segments into the arcs the sweep reads."""
    entries = gc.entries
    n2 = len(entries)
    over_at = {e.crossing_id: i for i, e in enumerate(entries)
               if e.passage == "O"}
    relations = []
    for q, e in enumerate(entries):
        if e.passage == "O":
            terms = (((q - 1) % n2, (1, 0)), (q, (-1, 0)))
        else:
            terms = zip((over_at[e.crossing_id], (q - 1) % n2, q),
                        FOX[1 if e.sign > 0 else -1])
        row = {}
        for s, (c0, c1) in terms:
            d0, d1 = row.get(s, (0, 0))
            row[s] = (c0 + d0, c1 + d1)
        relations.append(row)
    return relations


def last_under(gc):
    return max(i for i, e in enumerate(gc.entries) if e.passage == "U")


def segment_minor(gc):
    """The segment relations with the last under-passage's relation and
    the segment that starts there struck: merging its identities leaves the
    arc minor without the row and the column the sweep strikes."""
    n2 = len(gc.entries)
    last = last_under(gc)
    column = {s: j for j, s in enumerate(s for s in range(n2) if s != last)}
    return [{column[s]: v for s, v in row.items()
             if s != last and v != (0, 0)}
            for q, row in enumerate(segment_relations(gc)) if q != last]


def up_to_unit(coeffs):
    """A polynomial's coefficients up to a sign and a power of t."""
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    c = c[next((i for i, v in enumerate(c) if v), len(c)):]
    return [-v for v in c] if c and c[0] < 0 else c


def assert_segment_minor_is_the_oracle_minor(gc):
    # The merged minor is the oracle's up to a unit: every relation sums
    # to 0, so the struck column changes only a sign, and the struck row
    # is the oracle's.
    n = gc.crossing_count
    full = segment_minor(gc)
    assert len(full) == max(2 * n - 1, 0)
    oracle = _alexander_minor(gc)
    assert up_to_unit(_det_poly(full)) == up_to_unit(_det_poly(oracle))
    # B from N alone is never below the bound of the oracle's own rows.
    assert isqrt(6 ** max(n - 1, 0)).bit_length() + 1 >= \
        _kronecker_width(oracle)


class TestSweep:
    def test_segment_minor_is_the_oracle_minor(self, table_codes):
        for t, gc in table_codes.items():
            assert_segment_minor_is_the_oracle_minor(gc)
            for row in segment_relations(gc):
                assert sum(c0 for c0, _ in row.values()) == 0, t
                assert sum(c1 for _, c1 in row.values()) == 0, t

    @given(valid_codes())
    def test_random_segment_minors_are_the_oracle_minor(self, gc):
        # Codes of no diagram too: the struck row is the oracle's.
        assume(gc.crossing_count)
        assert_segment_minor_is_the_oracle_minor(gc)

    def test_table_matches_the_oracle(self, table_codes, monkeypatch):
        sizes = system_sizes(monkeypatch)
        for t, gc in table_codes.items():
            assert alexander(gc) == oracle_alexander(gc), t
            assert determinant(gc) == oracle_determinant(gc), t
        # In x order a vertical line meets few arcs, so few become free.
        assert len(sizes) == 2 * 431 and max(sizes) == 4

    def test_ladder_matches_the_oracle(self, monkeypatch):
        sizes = system_sizes(monkeypatch)
        # H(a, a+2, a+4) has N = (a^2 - 1) / 2 crossings, up to 180.
        for a in range(3, 20, 2):
            gc = build_gauss_code(enumerate_crossings(
                HarmonicTriple(a, a + 2, a + 4)))
            assert alexander(gc) == oracle_alexander(gc), a
        assert gc.crossing_count == 180
        assert sizes == [(a - 1) // 2 for a in range(3, 20, 2)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda b: st.tuples(
        st.integers(1, b - 1), st.just(b), st.integers(1, 10 ** 6))))
    def test_random_curves_match_the_oracle(self, triple):
        a, b, c = triple
        assume(gcd(a, b) == 1 and gcd(c, a * b) == 1)
        gc = build_gauss_code(enumerate_crossings(HarmonicTriple(a, b, c)))
        assert alexander(gc) == oracle_alexander(gc), triple
        assert determinant(gc) == oracle_determinant(gc), triple

    @given(valid_codes())
    def test_random_codes_match_the_oracle(self, gc):
        # Codes of no knot diagram, in any crossing order: a polynomial
        # that is not +-1 at t = 1 raises on both routes.
        assert outcome(alexander, gc) == outcome(oracle_alexander, gc)
        assert determinant(gc) == oracle_determinant(gc)

    def test_twist_codes_match_hartley(self, monkeypatch):
        # The twist diagram's crossing ids go in word order.
        sizes = system_sizes(monkeypatch)
        assert len(TWIST_FRACTIONS) == 8150
        for alpha, beta in TWIST_FRACTIONS:
            assert alexander(twist_code(alpha, beta)) == \
                hartley_alexander(alpha, beta), (alpha, beta)
        assert max(sizes) == 2

    def test_twist_codes_match_the_oracle(self):
        # The rest of TWIST_FRACTIONS, against the oracle, is a CI step.
        for alpha, beta in TWIST_FRACTIONS:
            if alpha > 45:
                break
            gc = twist_code(alpha, beta)
            assert alexander(gc) == oracle_alexander(gc), (alpha, beta)
            assert determinant(gc) == oracle_determinant(gc) == alpha

    def test_order_is_only_a_speed_hint(self, table_codes, monkeypatch):
        sizes = system_sizes(monkeypatch)
        for seed, gc in enumerate(table_codes.values()):
            shuffled = relabelled(gc, seed)
            assert alexander(shuffled) == alexander(gc), seed
            assert determinant(shuffled) == determinant(gc), seed
        for seed, (alpha, beta) in enumerate(TWIST_FRACTIONS[::40]):
            gc = twist_code(alpha, beta)
            assert alexander(relabelled(gc, seed)) == alexander(gc)
        # Out of x order, many more arcs are needed before they are
        # expressed.
        assert max(sizes) > 10

    def test_the_strip_changes_only_a_unit(self, table_codes, monkeypatch):
        pairs = []

        def both(m, shift):
            plain = _det([row[:] for row in m], 0)
            stripped = _det(m, shift)
            pairs.append((plain, stripped, shift))
            return stripped

        monkeypatch.setattr(invariants, "_det", both)
        for gc in table_codes.values():
            alexander(gc)
        for plain, stripped, width in pairs:
            assert LaurentPoly.from_coeffs(balanced_digits(plain, width)) == \
                LaurentPoly.from_coeffs(balanced_digits(stripped, width))
        # Most of the 431 systems had a power of T to strip.
        assert sum(abs(plain) > abs(stripped) for plain, stripped, _ in pairs) \
            > 350

    def test_the_strip_narrows_the_system(self, monkeypatch):
        # Pinned by size, not by time: on H(21,23,25) (N = 220) the strip
        # leaves under a third of the system's bits.  Without it the last
        # elimination of H(41,43,45) takes 39 s instead of 0.2 s.
        seen = []

        def spy(m, shift):
            before = [row[:] for row in m]
            after = _strip(m, shift)
            seen.append((before, [row[:] for row in after]))
            return after

        monkeypatch.setattr(invariants, "_strip", spy)
        alexander(build_gauss_code(enumerate_crossings(
            HarmonicTriple(21, 23, 25))))
        (before, after), = seen
        assert len(after) == len(before) == 10

        def bits(m):
            return [v.bit_length() for row in m for v in row]

        assert 3 * sum(bits(after)) < sum(bits(before))
        assert 3 * max(bits(after)) < max(bits(before))

    @given(st.integers(1, 5).flatmap(lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=cols,
                              max_size=cols), min_size=rows, max_size=rows),
            st.lists(st.integers(0, 3), min_size=rows, max_size=rows),
            st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
            st.integers(1, 4), st.sampled_from((None, "row", "column")),
            st.integers(0, 4)))))
    def test_strip_in_place_is_the_transpose_route(self, case):
        # Rows and columns scaled by powers of T = 2**shift, and now and
        # then a row or a column of zeros, where both routes give None.
        m, row_powers, col_powers, shift, zero, at = case
        scaled = [[v << shift * (r + c) for v, c in zip(row, col_powers)]
                  for row, r in zip(m, row_powers)]
        if zero == "row":
            scaled[at % len(scaled)] = [0] * len(col_powers)
        elif zero == "column":
            for row in scaled:
                row[at % len(row)] = 0
        want = strip_by_transposes([row[:] for row in scaled], shift)
        assert _strip(scaled, shift) == want
        if zero:
            assert want is None

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.integers(1, 4))))
    def test_det_up_to_sign_and_powers(self, case):
        # Rows and columns scaled by powers of T = 2**shift: without the
        # strip the value is +-det, with it +-det / T^j.
        m, row_powers, col_powers, shift = case
        scaled = [[v << shift * (r + c) for v, c in zip(row, col_powers)]
                  for row, r in zip(m, row_powers)]
        want = det_dense(scaled)
        assert abs(_det([row[:] for row in scaled], 0)) == abs(want)
        got = abs(_det(scaled, shift))
        if want == 0:
            assert got == 0
        else:
            assert abs(want) % got == 0
            ratio = abs(want) // got
            assert ratio & (ratio - 1) == 0
            assert (ratio.bit_length() - 1) % shift == 0


class TestPlan:
    def test_one_plan_serves_every_c(self):
        # The crossing ids of H(a, b, c) follow (a, b) alone; c sets the
        # over-passages, and with them the struck relation.
        _plan.cache_clear()
        codes = [build_gauss_code(enumerate_crossings(HarmonicTriple(5, 7, c)))
                 for c in (1, 2, 3, 4, 6, 8, 9, 11, 12, 13)]
        for gc in codes:
            assert alexander(gc) == oracle_alexander(gc)
            assert determinant(gc) == oracle_determinant(gc)
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(codes) - 1)
        assert len({last_under(gc) for gc in codes}) > 1

    def test_a_second_table_round_misses_no_plan(self):
        triples = [HarmonicTriple(*t) for t in enumerate_table_triples(72)]
        for K in triples:
            analyze(K)
        misses = _plan.cache_info().misses
        for K in triples:
            analyze(K)
        assert _plan.cache_info().misses == misses

    def test_table_plans_are_compact(self, table_codes):
        # The cache is bounded, and the plans of one table round, with the
        # id tuples they are keyed by, stay within 128 KB.
        assert _plan.cache_info().maxsize == 256
        _plan.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for gc in table_codes.values():
                alexander(gc)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _plan.cache_info().currsize == 58
        assert held <= 128 * 1024


class TestDigits:
    def test_width_below_two_raises(self):
        # In base 2 the balanced digits are -1 and 0, so 1 would map to
        # itself for ever; the width is refused before any digit.
        for value, width in ((1, 1), (0, 1), (5, 0), (-3, -1)):
            with pytest.raises(ValueError, match="below 2"):
                _digits(value, width)

    def test_balanced_digits(self):
        assert _digits(0, 2) == []
        assert _digits(1, 2) == [1]
        assert _digits(2, 2) == [-2, 1]
        for value in range(-300, 301):
            for width in (2, 3, 5):
                assert _digits(value, width) == \
                    balanced_digits(value, width), (value, width)


class TestFactorSquare:
    def test_constructed_squares(self):
        sq = poly_product(poly(1, -3, 1), poly(1, -3, 1))
        assert factor_square(sq) == poly(1, -3, 1)
        sq = poly_product(poly(1, -1, 1), poly(1, -1, 1))
        assert factor_square(sq) == poly(1, -1, 1)
        assert factor_square(poly(1)) == poly(1)

    def test_non_squares(self):
        assert factor_square(poly(1, -1, 1)) is None
        assert factor_square(poly(1, -3, 1)) is None
        assert factor_square(poly_product(poly(1, -1, 1),
                                          poly(1, -3, 1))) is None
        # Coefficients 101 in size set the width to 5, and the value at
        # 2**5 is negative: 50 - 50*32 + 32**2 = -526.
        assert poly(50, -50, 1)(32) == -526
        assert factor_square(poly(50, -50, 1)) is None
        # The width is 3 and 1 - 3*8 + 3*8**2 = 13**2, but the digits of
        # 13 give -3 + 2t, whose square is not p.
        assert poly(1, -3, 3)(8) == 13 ** 2
        assert factor_square(poly(1, -3, 3)) is None

    def test_a_square_at_minus_one_and_at_the_width(self):
        # |p(-1)| = 1 and, at the width 2, p(4) = 7**2; but the digits of
        # 7 give -1 - 2t + t^2, whose square is not p.
        p = poly(1, 0, -1, 1)
        assert abs(p(-1)) == 1 and p(4) == 7 ** 2
        assert factor_square(p) is None

    def test_determinant_not_a_square_leaves_early(self, monkeypatch):
        # A square +-t^k q^2 has |p(-1)| = q(-1)^2.  Where |p(-1)| is not
        # a square, p is never evaluated at the width.
        calls = []
        call = LaurentPoly.__call__

        def spy(p, x):
            calls.append(x)
            return call(p, x)

        monkeypatch.setattr(LaurentPoly, "__call__", spy)
        for p in (poly(1, -1, 1, -1, 1), poly(1, -3, 1),
                  poly(2, -3, 2)):
            calls.clear()
            assert factor_square(p) is None
            assert calls == [-1]
        # (1 - t + t^2)^2, with |p(-1)| = 9, goes on to the width.
        calls.clear()
        assert factor_square(poly(1, -2, 3, -2, 1)) == poly(1, -1, 1)
        assert calls[0] == -1 and len(calls) == 2

    def test_random_squares_roundtrip(self):
        rng = random.Random(67)
        for _ in range(50):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            coeffs.append(1)
            if abs(sum(coeffs)) != 1:
                continue
            q = LaurentPoly.from_coeffs(coeffs)
            assert factor_square(poly_product(q, q)) == q

    def test_results_are_pinned(self, table_codes):
        # One sha256 over the result, coefficients or None, on the
        # table's Deltas, on H(2n-1, 2n, 2n+1) for n <= 10, and on 5,000
        # seeded random unit-normalized polynomials of degree <= 12, every
        # other one built as q*q.
        deltas = [alexander(gc) for gc in table_codes.values()]
        deltas += [alexander(build_gauss_code(enumerate_crossings(
            HarmonicTriple(2 * n - 1, 2 * n, 2 * n + 1))))
            for n in range(1, 11)]
        rng = random.Random(2029)

        def unit_poly(degree, size):
            head = [rng.randint(-size, size) for _ in range(degree)]
            return poly(*head, rng.choice((1, -1)) - sum(head))

        for i in range(5000):
            if i % 2:
                q = unit_poly(rng.randint(0, 6), 5)
                deltas.append(poly_product(q, q))
            else:
                deltas.append(unit_poly(rng.randint(0, 12), 9))
        digest = hashlib.sha256()
        for p in deltas:
            root = factor_square(p)
            digest.update(repr(None if root is None
                               else root.coeffs).encode() + b"\n")
        assert digest.hexdigest() == \
            "a8aa5961b94f5d8e3447da3109d6511b315f78b98fff58403c11330fdfaefbc9"

    def test_large_coefficients_need_an_exact_root(self):
        n = 10 ** 20 + 12345
        q = poly(n, -(2 * n - 1), n)
        assert factor_square(poly_product(q, q)) == q
