"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison is exact equality; the only
tolerances are the stated runtime budgets.  Criterion 7 checks every
stated isotopic pair; the third, H(9,11,13) ~ H(7,11,15), is checked and
refuted, since the two curves have determinants 109 and 89 and knots with
different determinants are not isotopic, even up to mirror image.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd


from harmonicknots.cfrac import (
    SchubertFraction, _longest_sign_change_run, evaluate_projective,
    expand_1212, fraction_candidate, positive_cf, two_bridge_equivalent)
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import analyze, canonical_h4
from harmonicknots.cli import main
from harmonicknots.diagram import build_gauss_code, conway_form_h4
from harmonicknots.invariants import alexander, determinant, factor_square

from conftest import (REFERENCE_TABLE, PreconditionError,
                      alexander_of_fraction, cf_matrix, crossing_number_bireg,
                      crossing_parameters, crossing_signs,
                      denominator_family_blocks, poly_product, sign_changes,
                      sign_cos)


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} [{verdict}] {self.label} "
              f"({time.time() - self.start:.2f}s)")
        return False


def _reference_rows(a):
    return [(t, Fraction(f)) for t, f, _, _ in REFERENCE_TABLE
            if t[0] == a and f is not None]


def test_criterion_01_table_reproduction_a3():
    with _Criterion(1, "fraction table, 19 three-strand rows, < 1 s"):
        start = time.time()
        rows = _reference_rows(3)
        assert len(rows) == 19
        for (a, b, c), printed in rows:
            report = analyze(HarmonicTriple(a, b, c))
            expected = SchubertFraction(printed.numerator, printed.denominator)
            assert report.fraction.alpha == expected.alpha, (a, b, c)
            assert two_bridge_equivalent(report.fraction, expected,
                                         up_to_mirror=True), (a, b, c)
        assert time.time() - start < 1.0


def test_criterion_02_table_reproduction_a4():
    with _Criterion(2, "fraction table, 13 four-strand rows, < 1 s"):
        start = time.time()
        rows = _reference_rows(4)
        assert len(rows) == 13
        for (a, b, c), printed in rows:
            report = analyze(HarmonicTriple(a, b, c))
            expected = SchubertFraction(printed.numerator, printed.denominator)
            assert report.fraction.alpha == expected.alpha, (a, b, c)
            assert two_bridge_equivalent(report.fraction, expected,
                                         up_to_mirror=True), (a, b, c)
            canon = canonical_h4(b, c)
            assert crossing_number_bireg(conway_form_h4(
                canon.b_prime, canon.c_prime)) == \
                (3 * canon.b_prime + canon.c_prime - 2) // 4, (b, c)
        assert time.time() - start < 1.0


def test_criterion_03_h4_fraction_properties():
    with _Criterion(3, "four-strand fraction properties, b+c <= 60, < 30 s"):
        start = time.time()
        pairs = [(b, c) for b in range(3, 60, 2)
                 for c in range(b + 2, min(3 * b, 61 - b), 2)
                 if gcd(b, c) == 1 and (c - b) % 4 != 0]
        assert len(pairs) >= 25
        for b, c in pairs:
            cf = conway_form_h4(b, c)
            fraction = evaluate_projective(cf)
            alpha, beta = fraction.alpha, fraction.beta
            assert beta % 2 == 0, (b, c)
            assert (beta * beta) % alpha in (2 % alpha, (-2) % alpha), (b, c)
            assert [abs(t) for t in cf] == [1, 2] * (len(cf) // 2), (b, c)
            assert _longest_sign_change_run(cf) <= 1, (b, c)
            if b > 4:
                gc = build_gauss_code(
                    enumerate_crossings(HarmonicTriple(4, b, c)))
                assert determinant(gc) == alpha, (b, c)
        assert time.time() - start < 30.0


def test_criterion_04_consecutive_degree_family():
    with _Criterion(4, "consecutive-degree family n = 2..6, < 2 min"):
        start = time.time()
        for n in range(2, 7):
            K = HarmonicTriple(2 * n - 1, 2 * n, 2 * n + 1)
            delta = alexander(build_gauss_code(enumerate_crossings(K)))
            det = determinant(build_gauss_code(enumerate_crossings(K)))
            pair = (2 * n - 1, 2 * n + 1) if n % 2 else (2 * n + 1, 2 * n - 1)
            H4 = HarmonicTriple(4, *pair) if pair[0] > 4 \
                else HarmonicTriple(4, *pair)
            delta4 = alexander(build_gauss_code(enumerate_crossings(H4)))
            det4 = determinant(build_gauss_code(enumerate_crossings(H4)))
            assert delta == delta4 and det == det4, n
            twist_form = [3] + [2] * (n - 2)
            assert delta == alexander_of_fraction(twist_form), n
            assert det == evaluate_projective(twist_form).alpha, n
        assert time.time() - start < 120.0


def test_criterion_05_degree_five_families():
    with _Criterion(5, "degree-five families n = 1..3"):
        for n in range(1, 4):
            K = HarmonicTriple(5, 5 * n + 1, 5 * n + 2)
            gc = build_gauss_code(enumerate_crossings(K))
            assert alexander(gc) == alexander_of_fraction(
                [2 * n + 1, 2 * n]), n
            assert determinant(gc) == 4 * n * n + 2 * n + 1 == \
                evaluate_projective([2 * n + 1, 2 * n]).alpha, n

            K = HarmonicTriple(5, 5 * n + 3, 5 * n + 4)
            gc = build_gauss_code(enumerate_crossings(K))
            assert alexander(gc) == alexander_of_fraction(
                [2 * n + 1, 2 * n + 2]), n
            assert determinant(gc) == 4 * n * n + 6 * n + 3 == \
                evaluate_projective([2 * n + 1, 2 * n + 2]).alpha, n


def test_criterion_06_composite_detection():
    with _Criterion(6, "composite curve: square Alexander polynomial"):
        whole = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(5, 7, 11))))
        factor = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 5, 7))))
        assert whole == poly_product(factor, factor)
        assert factor_square(whole) == factor


def test_criterion_07_isotopic_pairs_as_stated():
    with _Criterion(7, "isotopic-pair findings (stated form)"):
        d_579 = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(5, 7, 9))))
        d_3711 = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(3, 7, 11))))
        assert d_579 == d_3711
        assert two_bridge_equivalent(SchubertFraction(13, 8),
                                     SchubertFraction(13, 5),
                                     up_to_mirror=True)
        d_7911 = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(7, 9, 11))))
        d_5913 = alexander(build_gauss_code(
            enumerate_crossings(HarmonicTriple(5, 9, 13))))
        assert d_7911 == d_5913

        # The third stated pair, H(9,11,13) ~ H(7,11,15), is refuted: the
        # determinants differ, and each curve's Delta is confirmed through
        # two further projections of the same curve ((a,c,b) is the mirror
        # image, (b,c,a) a rotation), each with its own diagram.
        refuted = ("stated pairing H(9,11,13) ~ H(7,11,15) is "
                   "arithmetically impossible: the two curves have "
                   "determinants 109 and 89, so they are not isotopic; the "
                   "partner of H(9,11,13) is H(5,11,17) and the partner of "
                   "H(7,11,15) is H(3,11,19) = S(89/34) "
                   "(see test_criterion_07_isotopic_pairs_verified)")
        deltas = {}
        for (a, b, c), det in (((9, 11, 13), 109), ((7, 11, 15), 89)):
            gc = build_gauss_code(enumerate_crossings(HarmonicTriple(a, b, c)))
            assert determinant(gc) == det, ((a, b, c), refuted)
            delta = deltas[a, b, c] = alexander(gc)
            for t in ((a, c, b), (b, c, a)):
                assert alexander(build_gauss_code(
                    enumerate_crossings(HarmonicTriple(*t)))) \
                    == delta, (t, refuted)
        d_91113, d_71115 = deltas[9, 11, 13], deltas[7, 11, 15]
        assert d_91113 != d_71115, refuted
        assert d_71115 == alexander_of_fraction(
            positive_cf(SchubertFraction(89, 34))), refuted


def test_criterion_07_isotopic_pairs_verified():
    with _Criterion(7, "isotopic-pair findings (verified partners)"):
        def delta(t):
            return alexander(build_gauss_code(
                enumerate_crossings(HarmonicTriple(*t))))

        assert delta((5, 7, 9)) == delta((3, 7, 11))
        assert delta((7, 9, 11)) == delta((5, 9, 13))
        assert delta((9, 11, 13)) == delta((5, 11, 17))
        assert delta((7, 11, 15)) == delta((3, 11, 19))
        # The larger pair of the same pattern, and its two-bridge identity.
        assert delta((11, 13, 15)) == delta((7, 13, 19))
        assert delta((7, 11, 15)) == alexander_of_fraction(
            positive_cf(SchubertFraction(89, 34)))


def test_criterion_08_exclusion_families():
    with _Criterion(8, "twist-knot expansion and denominator family"):
        exp = expand_1212(SchubertFraction(9, 4))
        assert exp == [1, 2, -1, 2, 1, -2, 1, 2]
        code = main(["cf", "9", "4"])
        assert code == 0
        for n in range(1, 6):
            alpha, beta = 2 * n * n + 1, 2 * n
            report = fraction_candidate(alpha, beta)
            assert report.beta_sq_mod == alpha - 2
            construction = denominator_family_blocks(n)
            assert evaluate_projective(construction) == \
                SchubertFraction(alpha, beta)
            assert report.expansion == construction
            assert report.obstructed == (n > 1)


def test_criterion_09_property_suites():
    with _Criterion(9, "property suites, < 1 min"):
        start = time.time()
        rng = random.Random(97)

        # Expansion round trip on 1000 random fractions.
        done = 0
        while done < 1000:
            alpha = rng.randrange(3, 5001, 2)
            beta = rng.randrange(2, alpha, 2)
            if gcd(alpha, beta) != 1:
                continue
            done += 1
            r = SchubertFraction(alpha, beta)
            terms = expand_1212(r)
            assert evaluate_projective(terms) == r
            assert [abs(t) for t in terms] == [1, 2] * (len(terms) // 2)
            assert _longest_sign_change_run(terms) < 3
            # Value criterion: above 1 exactly when the second term is +2.
            assert (alpha > beta) == (terms[1] == 2)

        # Identity prefixes do not change values.
        for prefix in ([1, -2, 1, -2], [2, -1, 2, -1]):
            for _ in range(100):
                tail = [rng.choice([-3, -2, -1, 1, 2, 3])
                        for _ in range(rng.randint(1, 8))]
                assert evaluate_projective(prefix + tail) == \
                    evaluate_projective(tail)

        # Exhaustive +-1/+-2 patterns with up to 6 pairs.
        for m in range(1, 7):
            for signs in itertools.product((1, -1), repeat=2 * m):
                terms = [s if i % 2 == 0 else 2 * s
                         for i, s in enumerate(signs)]
                if signs[0] == 1 and sign_changes(terms)[1]:
                    p, _, beta, _ = cf_matrix(terms)
                    alpha = abs(p)
                    assert (beta * beta) % alpha in (2 % alpha, (-2) % alpha)
                try:
                    cn = crossing_number_bireg(terms)
                except PreconditionError:
                    continue
                value = evaluate_projective(terms)
                if value.beta != 0 and value.alpha != 0:
                    assert cn == sum(positive_cf(
                        SchubertFraction(value.alpha, abs(value.beta))))

        # Sign shortcuts for consecutive degrees.
        for n in (2, 3, 4):
            K = HarmonicTriple(2 * n - 1, 2 * n, 2 * n + 1)
            for h, k in crossing_parameters(K):
                y_sign = sign_cos(k * K.b + h * K.a, K.a)
                sign, _, over_at_t = crossing_signs(K, h, k)
                assert sign == y_sign
                # z(t) - z(s) > 0 exactly when the strand at t is over.
                assert (1 if over_at_t else -1) == -y_sign

        assert time.time() - start < 60.0


def test_criterion_10_full_pipeline_smoke():
    with _Criterion(10, "full-pipeline trefoil smoke test"):
        report = analyze(HarmonicTriple(3, 4, 5))
        assert report.fraction.alpha == 3
        assert report.alexander.coeffs == (1, -1, 1)
        assert report.determinant == 3
        assert report.crossing_number == 3
        assert report.name == "3_1"
