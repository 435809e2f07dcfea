import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from harmonicknots.cfrac import (
    DivisionByZeroError, MobiusMatrix, NonPositiveError, NotInvertibleError,
    ParityError, PreconditionError, SchubertFraction, ShapeError,
    crossing_number_bireg, evaluate, evaluate_projective, expand_1212,
    cf_matrix, fraction_candidate, positive_cf, sign_change_profile,
    two_bridge_equivalent)


class TestEvaluate:
    def test_fixtures(self):
        assert evaluate([1, 2]) == SchubertFraction(3, 2)
        assert evaluate([1, 0, 1, 2]) == SchubertFraction(5, 2)
        assert evaluate([-1, -2, 1, 2]) == SchubertFraction(7, -4)

    def test_infinite_values_raise(self):
        with pytest.raises(DivisionByZeroError):
            evaluate([1, 0])
        with pytest.raises(DivisionByZeroError):
            evaluate([1, -2, 1, -2])
        assert evaluate_projective([1, -2, 1, -2]) == SchubertFraction(1, 0)

    def test_zero_value(self):
        assert evaluate([2, 0, -2]) == SchubertFraction(0, 1)

    def test_trailing_zero_projective_rule(self):
        assert evaluate_projective([5, 3, 0]) == evaluate_projective([5])

    def test_matches_plain_fold_on_random_positive_cfs(self):
        rng = random.Random(5)
        for _ in range(300):
            terms = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
            value = Fraction(terms[-1])
            for t in reversed(terms[:-1]):
                value = t + 1 / value
            assert evaluate(terms) == SchubertFraction(value.numerator,
                                                       value.denominator)


class TestPositiveCF:
    def test_fixtures(self):
        assert positive_cf(SchubertFraction(5, 2)) == [2, 2]
        assert positive_cf(SchubertFraction(3, 1)) == [3]
        assert positive_cf(SchubertFraction(43, 6)) == [7, 6]

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveError):
            positive_cf(SchubertFraction(0, 1))
        with pytest.raises(NonPositiveError):
            positive_cf(SchubertFraction(-3, 2))

    def test_roundtrip(self):
        rng = random.Random(17)
        for _ in range(200):
            f = SchubertFraction(rng.randint(1, 400), rng.randint(1, 400))
            assert evaluate(positive_cf(f)) == f


class TestCrossingNumberBireg:
    def test_fixtures(self):
        assert crossing_number_bireg([1, 2, -1, -2]) == 5
        assert crossing_number_bireg([3, 2, 2]) == 7
        assert crossing_number_bireg([-1, -2, -1, -2]) == 6

    def test_precondition_messages(self):
        with pytest.raises(PreconditionError, match="first two"):
            crossing_number_bireg([1, -2, -2])
        with pytest.raises(PreconditionError, match="last two"):
            crossing_number_bireg([2, 2, -1])
        with pytest.raises(PreconditionError, match="consecutive"):
            crossing_number_bireg([1, 1, -1, 1, 1])

    def test_against_euclidean_oracle_exhaustive(self):
        # All +-1/+-2 alternating patterns with up to 6 pairs that satisfy
        # the biregular hypotheses: the crossing number must equal the sum
        # of the all-positive Euclidean expansion of |value|.
        for m in range(1, 7):
            for signs in itertools.product((1, -1), repeat=2 * m):
                terms = [s if i % 2 == 0 else 2 * s
                         for i, s in enumerate(signs)]
                try:
                    cn = crossing_number_bireg(terms)
                except PreconditionError:
                    continue
                value = evaluate_projective(terms)
                if value.beta == 0 or value.alpha == 0:
                    continue
                assert cn == sum(positive_cf(
                    SchubertFraction(value.alpha, abs(value.beta))))


class TestExpand1212:
    def test_fixtures(self):
        assert expand_1212(SchubertFraction(3, 2)) == [1, 2]
        assert expand_1212(SchubertFraction(9, 4)) == [1, 2, -1, 2, 1, -2,
                                                       1, 2]
        assert expand_1212(SchubertFraction(7, 4)) == [1, 2, -1, -2]

    def test_parity_rejected(self):
        with pytest.raises(ParityError):
            expand_1212(SchubertFraction(3, 1))
        with pytest.raises(ParityError):
            expand_1212(SchubertFraction(4, 3))
        with pytest.raises(NonPositiveError):
            expand_1212(SchubertFraction(-3, 2))

    def test_roundtrip_random(self):
        rng = random.Random(23)
        done = 0
        while done < 1000:
            alpha = rng.randrange(3, 5001, 2)
            beta = rng.randrange(2, alpha, 2)
            if gcd(alpha, beta) != 1:
                continue
            done += 1
            r = SchubertFraction(alpha, beta)
            terms = expand_1212(r)
            assert evaluate(terms) == r
            assert terms[0] == 1
            profile = sign_change_profile(terms)
            assert profile.max_run <= 2

    def test_value_above_one_iff_second_term_positive(self):
        # Both r > 1 and its reciprocal-ish partner alpha/beta < 1 occur.
        rng = random.Random(29)
        done = 0
        while done < 400:
            num = rng.randrange(3, 2001, 2)
            den = rng.randrange(2, 4001, 2)
            if gcd(num, den) != 1:
                continue
            done += 1
            terms = expand_1212(SchubertFraction(num, den))
            assert (num > den) == (terms[1] == 2)


class TestFractionCandidate:
    def test_fixtures(self):
        c = fraction_candidate(7, 4)
        assert (c.beta_sq_mod, c.expansion) == (2, (1, 2, -1, -2))
        assert c.passes_beta_sq and not c.obstructed and c.eligible
        c = fraction_candidate(9, 4)
        assert c.expansion == (1, 2, -1, 2, 1, -2, 1, 2)
        assert c.passes_beta_sq and c.obstructed and not c.eligible

    def test_failed_square_still_expands(self):
        c = fraction_candidate(5, 2)
        assert c.beta_sq_mod == 4 and not c.passes_beta_sq
        assert c.expansion == (1, 2, -1, 2, 1, -2) and not c.eligible


class TestPrefixIdentities:
    @pytest.mark.parametrize("prefix", [[1, -2, 1, -2], [2, -1, 2, -1]])
    def test_prefix_is_identity(self, prefix):
        assert cf_matrix(prefix) in (MobiusMatrix(-1, 0, 0, -1),
                                     MobiusMatrix(1, 0, 0, 1))

    @pytest.mark.parametrize("prefix", [[1, -2, 1, -2], [2, -1, 2, -1]])
    def test_on_random_tails(self, prefix):
        rng = random.Random(31)
        done = 0
        while done < 100:
            tail = [rng.choice([-3, -2, -1, 1, 2, 3])
                    for _ in range(rng.randint(1, 8))]
            if evaluate_projective(tail) != evaluate_projective(prefix + tail):
                pytest.fail(f"prefix changed the value of {tail}")
            try:
                plain = evaluate(tail)
            except DivisionByZeroError:
                continue
            done += 1
            assert evaluate(prefix + tail) == plain


class TestPalindromicSquareProperty:
    def test_exhaustive_small_patterns(self):
        # Every [1, 2e2, e3, 2e4, ...] with palindromic sign-change
        # sequence has beta^2 = +-2 (mod alpha); evaluated through the
        # Mobius matrix directly so the check is independent of evaluate().
        count = 0
        for m in range(1, 7):
            for signs in itertools.product((1, -1), repeat=2 * m - 1):
                e = (1,) + signs
                terms = [e[i] if i % 2 == 0 else 2 * e[i]
                         for i in range(2 * m)]
                if not sign_change_profile(terms).palindromic:
                    continue
                matrix = cf_matrix(terms)
                alpha, beta = abs(matrix.a), matrix.c
                count += 1
                assert (beta * beta) % alpha in (2 % alpha, (-2) % alpha)
        assert count > 60


class TestSignChangeProfile:
    def test_fixtures(self):
        p = sign_change_profile([1, 2, -1, -2])
        assert p.changes == (2,) and p.max_run == 1 and p.palindromic
        p = sign_change_profile([1, 2, 1, 2])
        assert p.changes == () and p.max_run == 0 and p.palindromic
        p = sign_change_profile([1, 2, -1, 2, 1, -2, 1, 2])
        assert p.changes == (2, 3, 5, 6) and p.max_run == 2 and p.palindromic

    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            sign_change_profile([1, 3])
        with pytest.raises(ShapeError):
            sign_change_profile([1, 2, 1])


class TestTwoBridgeEquivalence:
    def test_fixtures(self):
        assert two_bridge_equivalent(SchubertFraction(7, 4),
                                     SchubertFraction(7, 2))
        assert two_bridge_equivalent(SchubertFraction(5, 2),
                                     SchubertFraction(5, -2))
        assert not two_bridge_equivalent(SchubertFraction(7, 2),
                                         SchubertFraction(7, -2))
        assert two_bridge_equivalent(SchubertFraction(7, 2),
                                     SchubertFraction(7, -2),
                                     up_to_mirror=True)

    def test_not_invertible(self):
        # gcd(beta, alpha) > 1 cannot arise through the constructor (it
        # reduces), so force the state to check the guard.
        f = SchubertFraction(9, 4)
        object.__setattr__(f, "beta", 3)
        with pytest.raises(NotInvertibleError):
            two_bridge_equivalent(f, SchubertFraction(9, 4))

    def test_equivalence_relation(self):
        rng = random.Random(37)
        fractions = []
        while len(fractions) < 60:
            alpha = rng.randrange(3, 301, 2)
            beta = rng.randint(1, alpha - 1)
            if gcd(alpha, beta) == 1:
                fractions.append(SchubertFraction(alpha, beta))
        for f in fractions:
            assert two_bridge_equivalent(f, f)
        pairs = [(rng.choice(fractions), rng.choice(fractions))
                 for _ in range(200)]
        for f, g in pairs:
            assert two_bridge_equivalent(f, g) == two_bridge_equivalent(g, f)
        # transitivity on chained triples
        for _ in range(200):
            f = rng.choice(fractions)
            alpha = f.alpha
            b = f.beta % alpha
            g = SchubertFraction(alpha, pow(b, -1, alpha))
            h = SchubertFraction(alpha, b + alpha)
            assert two_bridge_equivalent(f, g)
            assert two_bridge_equivalent(g, h)
            assert two_bridge_equivalent(f, h)


class TestMobius:
    def test_determinants_are_units(self):
        rng = random.Random(41)
        for _ in range(100):
            terms = [rng.randint(-3, 3) for _ in range(rng.randint(0, 12))]
            assert cf_matrix(terms).det in (1, -1)

    def test_image_of_infinity(self):
        m = cf_matrix([1, 2])
        assert m == MobiusMatrix(3, 1, 2, 1)
        assert m.image_of_infinity() == SchubertFraction(3, 2)


class TestSchubertFraction:
    def test_normalization(self):
        assert SchubertFraction(-3, 2) == SchubertFraction(3, -2)
        assert SchubertFraction(6, 4) == SchubertFraction(3, 2)
        assert SchubertFraction(0, -5) == SchubertFraction(0, 1)

    def test_display_picks_smallest_residue(self):
        assert SchubertFraction(89, 64).display() == "89/25"
        assert SchubertFraction(17, -10).display() == "17/5"
        assert SchubertFraction(3, 2).display() == "3"
        assert SchubertFraction(7, 4).display() == "7/2"
        assert SchubertFraction(1, 0).display() == "1/0"
