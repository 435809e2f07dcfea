import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from harmonicknots import classify
from harmonicknots.cfrac import (SchubertFraction, evaluate,
                                 fraction_candidate, two_bridge_equivalent)
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import (
    InvalidInputError, analyze, canonical_h4, enumerate_table_triples,
    predict_family, reduce_c, reduced_triple)
from harmonicknots.diagram import build_gauss_code
from harmonicknots.invariants import LaurentPoly, alexander, determinant

from conftest import REFERENCE_TABLE, denominator_family_blocks


class TestReduceC:
    def test_fixtures(self):
        steps = reduce_c(HarmonicTriple(3, 4, 13))
        assert len(steps) == 1
        s = steps[0]
        assert (s.from_c, s.to_c, s.mirrored) == (13, 5, True)
        assert s.lam * 3 + s.mu * 4 == 13
        assert reduce_c(HarmonicTriple(4, 5, 7)) == []
        assert reduce_c(HarmonicTriple(3, 4, 5)) == []

    def test_terminates_irreducible(self):
        rng = random.Random(71)
        for _ in range(60):
            a = rng.randint(2, 7)
            b = rng.randint(a + 1, 12)
            c = rng.randint(1, 120)
            if gcd(a, b) != 1 or gcd(c, a) != 1 or gcd(c, b) != 1:
                continue
            K = HarmonicTriple(a, b, c)
            reduced, _ = reduced_triple(K, reduce_c(K))
            assert reduce_c(reduced) == []
            assert reduced.c <= c

    def test_preserves_alexander_polynomial(self):
        # Mirror images share the polynomial, so reduction must too.
        rng = random.Random(73)
        sampled = 0
        while sampled < 20:
            a = rng.randint(2, 6)
            b = rng.randint(a + 1, 9)
            c = rng.randint(b + 1, 60)
            if gcd(a, b) != 1 or gcd(c, a * b) != 1:
                continue
            if (a - 1) * (b - 1) > 30:
                continue
            K = HarmonicTriple(a, b, c)
            if not reduce_c(K):
                continue
            sampled += 1
            reduced, _ = reduced_triple(K, reduce_c(K))
            assert alexander(build_gauss_code(enumerate_crossings(K))) == \
                alexander(build_gauss_code(
                    enumerate_crossings(reduced))), (a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda b: st.tuples(
        st.integers(1, b - 1), st.just(b), st.integers(1, 150))))
    def test_preserves_alexander_and_determinant_property(self, triple):
        a, b, c = triple
        assume(gcd(a, b) == 1 and gcd(c, a * b) == 1)
        K = HarmonicTriple(a, b, c)
        steps = reduce_c(K)
        assume(steps)
        reduced, _ = reduced_triple(K, steps)
        code = build_gauss_code(enumerate_crossings(K))
        code_reduced = build_gauss_code(enumerate_crossings(reduced))
        assert alexander(code) == alexander(code_reduced)
        assert determinant(code) == determinant(code_reduced)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 14).flatmap(lambda b: st.tuples(
        st.integers(1, b - 1), st.just(b), st.integers(1, 10 ** 9))))
    @example((3, 4, 13))  # one step: mirrored
    @example((3, 4, 19))  # two steps: not mirrored
    def test_mirrors_the_diagram_crossing_by_crossing(self, triple):
        # Not only the knot: every double point keeps its parameters, and
        # its signs and over/under flip exactly when the chain mirrors.
        a, b, c = triple
        assume(gcd(a, b) == 1 and gcd(c, a * b) == 1)
        K = HarmonicTriple(a, b, c)
        reduced, mirrored = reduced_triple(K, reduce_c(K))
        expected = enumerate_crossings(reduced)
        if mirrored:
            expected = [x.mirrored() for x in expected]
        assert enumerate_crossings(K) == expected


def smallest_reduction_by_search(a, b, c):
    """The reference: walk lam = 1, 2, ... while lam*a < c and keep the
    first (lam, mu) of least |lam*a - mu*b|."""
    best = None
    lam = 1
    while lam * a < c:
        rest = c - lam * a
        if rest % b == 0:
            mu = rest // b
            cand = abs(lam * a - mu * b)
            if best is None or cand < best[0]:
                best = (cand, lam, mu)
        lam += 1
    if best is None:
        return None
    return best[1], best[2]


class TestSmallestReduction:
    def test_matches_the_search_exhaustively(self):
        # Every coprime a <= 11, b < 40 and c < 4ab, ties included.
        count = 0
        for a in range(1, 12):
            for b in range(1, 40):
                if gcd(a, b) != 1:
                    continue
                for c in range(1, 4 * a * b):
                    assert classify._smallest_reduction(a, b, c) == \
                        smallest_reduction_by_search(a, b, c), (a, b, c)
                    count += 1
        assert count == 131_562


def stepwise_h4_walk(b, c):
    """The canonical walk of a (4, b, c) curve one move at a time."""
    mirrored = False
    while True:
        if c < b:
            b, c, mirrored = c, b, not mirrored
        if b == 1:
            return b, c, mirrored
        if (c - b) % 4 == 0:
            c, mirrored = abs(c - 2 * b), not mirrored
        elif c > 3 * b:
            c, mirrored = abs(c - 6 * b), not mirrored
        else:
            return b, c, mirrored


class TestCanonicalH4:
    def test_fixtures(self):
        c = canonical_h4(5, 7)
        assert (c.b_prime, c.c_prime, c.mirrored) == (5, 7, False)
        assert two_bridge_equivalent(c.fraction, SchubertFraction(7, 2),
                                     up_to_mirror=True)
        assert c.crossing_number == 5

        c = canonical_h4(5, 11)
        assert two_bridge_equivalent(c.fraction, SchubertFraction(11, 3),
                                     up_to_mirror=True)
        assert c.crossing_number == 6

        c = canonical_h4(3, 5)
        assert c.fraction.alpha == 3 and c.crossing_number == 3

    def test_reduces_from_above(self):
        # (3, 7): 7 = 3 (mod 4) -> |7-6| = 1: unknotted.
        c = canonical_h4(3, 7)
        assert c.b_prime == 1 and c.fraction == SchubertFraction(1, 0)
        # (5, 17): 17 = 5 + 12 -> |17-10| = 7 -> canonical (5, 7).
        c = canonical_h4(5, 17)
        assert (c.b_prime, c.c_prime) == (5, 7) and c.mirrored

    def test_matches_stepwise_walk(self):
        count = 0
        for b in range(1, 80, 2):
            for c in range(1, 80 * b, 2):
                if c == b or gcd(b, c) != 1:
                    continue
                canon = canonical_h4(b, c)
                assert (canon.b_prime, canon.c_prime, canon.mirrored) \
                    == stepwise_h4_walk(b, c), (b, c)
                count += 1
        assert count == 52_119

    def test_far_above_the_window(self):
        # A walk of one 6b move at a time would take tens of thousands
        # of steps here.
        c = canonical_h4(5, 300001)
        assert (c.b_prime, c.c_prime, c.mirrored) == (1, 5, True)
        c = canonical_h4(7, 10**6 + 1)
        assert (c.b_prime, c.c_prime, c.mirrored) == (7, 9, False)

    def test_swap_mirrors(self):
        direct, swapped = canonical_h4(5, 7), canonical_h4(7, 5)
        assert (swapped.b_prime, swapped.c_prime) == (5, 7)
        assert swapped.mirrored != direct.mirrored

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            canonical_h4(4, 7)
        with pytest.raises(InvalidInputError):
            canonical_h4(3, 9)
        with pytest.raises(InvalidInputError):
            canonical_h4(5, 5)

    def test_idempotent_and_invariants(self):
        for b in range(3, 100, 2):
            for c in range(b + 2, 200 - b, 2):
                if gcd(b, c) != 1:
                    continue
                canon = canonical_h4(b, c)
                if canon.b_prime == 1:
                    continue
                bp, cp = canon.b_prime, canon.c_prime
                assert bp < cp < 3 * bp and (cp - bp) % 4 != 0, (b, c)
                assert canon.crossing_number == (3 * bp + cp - 2) // 4
                again = canonical_h4(bp, cp)
                assert (again.b_prime, again.c_prime) == (bp, cp)
                assert not again.mirrored

    def test_uniqueness_of_canonical_fractions(self):
        rng = random.Random(79)
        pairs = []
        while len(pairs) < 100:
            b = rng.randrange(3, 60, 2)
            c = rng.randrange(b + 2, 3 * b, 2)
            if gcd(b, c) == 1 and (c - b) % 4 != 0 and (b, c) not in pairs:
                pairs.append((b, c))
        fractions = {p: canonical_h4(*p).fraction for p in pairs}
        for p in pairs:
            for q in pairs:
                if p != q and fractions[p].alpha == fractions[q].alpha:
                    assert not two_bridge_equivalent(
                        fractions[p], fractions[q], up_to_mirror=True), (p, q)


class TestPredictFamily:
    def test_consecutive_family(self):
        e = predict_family(HarmonicTriple(5, 6, 7))
        assert e.h4_pair == (5, 7)
        e = predict_family(HarmonicTriple(7, 8, 9))
        assert e.h4_pair == (9, 7)

    def test_degree_five_families(self):
        e = predict_family(HarmonicTriple(5, 16, 17))
        assert e.conway == (7, 6)
        e = predict_family(HarmonicTriple(5, 18, 19))
        assert e.conway == (7, 8)

    def test_no_prediction(self):
        assert predict_family(HarmonicTriple(3, 5, 7)) is None
        assert predict_family(HarmonicTriple(5, 7, 9)) is None


def twist_candidates(n):
    """The a = 4 eligibility of the twist knot C(n, 2), fraction (2n+1)/2:
    one candidate per even member of its class, as ``cf`` lists them."""
    alpha = 2 * n + 1
    return [fraction_candidate(alpha, rep)
            for rep in SchubertFraction(alpha, 2).equivalence_class()
            if rep % 2 == 0]


class TestTwistKnots:
    def test_eligibility_matches_reference(self):
        # Only the fractions 3/2 (n=1) and 7/4 (n=3) survive both the
        # beta^2 = +-2 test and the sign-change obstruction.
        for n in range(1, 200):
            eligible = any(c.eligible for c in twist_candidates(n))
            assert eligible == (n in (1, 3)), n

    def test_figure_eight_case(self):
        # 5/2 and its mirror 5/3 are one class with one even member.
        candidates = twist_candidates(2)
        assert [c.beta for c in candidates] == [2]
        assert not any(c.passes_beta_sq for c in candidates)

    def test_six_one_case(self):
        survivor = [c for c in twist_candidates(4) if c.passes_beta_sq]
        assert len(survivor) == 1
        assert survivor[0].expansion == (1, 2, -1, 2, 1, -2, 1, 2)
        assert survivor[0].obstructed


class TestNonHarmonicFamily:
    def test_reports(self):
        for n in range(1, 6):
            alpha, beta = 2 * n * n + 1, 2 * n
            r = fraction_candidate(alpha, beta)
            assert r.beta_sq_mod == alpha - 2
            construction = denominator_family_blocks(n)
            assert evaluate(construction) == SchubertFraction(alpha, beta)
            assert r.expansion == construction
            assert r.obstructed == (n > 1), n

    def test_small_cases(self):
        assert evaluate(denominator_family_blocks(2)) == SchubertFraction(9, 4)
        assert evaluate(denominator_family_blocks(3)) == \
            SchubertFraction(19, 6)


class TestAnalyze:
    def test_reduces_and_enumerates_once(self, monkeypatch):
        calls = {"reduce_c": 0, "enumerate_crossings": 0}
        for name in calls:
            original = getattr(classify, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(classify, name, counted)
        r = analyze(HarmonicTriple(4, 5, 27))
        assert r.reductions and r.conway is not None
        assert calls == {"reduce_c": 1, "enumerate_crossings": 1}

    def test_two_bridge_rows(self):
        r = analyze(HarmonicTriple(3, 7, 11))
        assert r.fraction.alpha == 13 and r.name == "6_3"
        assert r.fraction.display() == "13/5"

    def test_table_sourced_fraction(self):
        r = analyze(HarmonicTriple(5, 6, 7))
        assert r.name == "5_2"
        assert r.fraction == SchubertFraction(7, 4)
        assert r.fraction_source == "table"

    def test_invariant_lookup(self):
        r = analyze(HarmonicTriple(6, 7, 11))
        assert r.name == "10_134"

    def test_unidentified_is_honest(self):
        r = analyze(HarmonicTriple(7, 8, 11))
        assert r.name is None

    def test_crossing_free_curve(self):
        r = analyze(HarmonicTriple(1, 2, 3))
        assert r.crossings == ()
        assert r.alexander == LaurentPoly.constant(1) and r.determinant == 1

    def test_reduction_recorded(self):
        r = analyze(HarmonicTriple(3, 4, 13))
        assert r.reduced == (3, 4, 5) and r.mirrored
        assert r.name == "3_1"

    def test_a3_with_c_below_b(self):
        # Irreducible curves with c < b, where (b+c)/3 is no crossing
        # number; each is a small a = 3 curve up to mirror image.
        for triple, mirror, name, crossings in [
                ((3, 11, 4), (3, 4, 5), "3_1", 3),
                ((3, 13, 5), (3, 5, 7), "4_1", 4),
                ((3, 16, 5), (3, 4, 5), "3_1", 3),
                ((3, 17, 7), (3, 7, 11), "6_3", 6)]:
            r = analyze(HarmonicTriple(*triple))
            m = analyze(HarmonicTriple(*mirror))
            assert r.reduced == triple and not r.reductions
            assert (r.name, r.crossing_number) == (name, crossings), triple
            assert r.fraction.display() == m.fraction.display(), triple
            assert two_bridge_equivalent(r.fraction, m.fraction,
                                         up_to_mirror=True), triple


class TestTableEnumeration:
    def test_matches_reference_table(self):
        assert enumerate_table_triples() == [t for t, _, _, _ in REFERENCE_TABLE]

    def test_counts_by_first_degree(self):
        triples = enumerate_table_triples()
        by_a = {}
        for a, _, _ in triples:
            by_a[a] = by_a.get(a, 0) + 1
        assert by_a == {3: 19, 4: 13, 5: 15, 6: 4}
        assert len(triples) == 51
