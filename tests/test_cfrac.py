import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from harmonicknots.cfrac import (
    SchubertFraction, _longest_sign_change_run, evaluate_projective,
    expand_1212, fraction_candidate, positive_cf, two_bridge_equivalent)

from conftest import (PreconditionError, cf_matrix, crossing_number_bireg,
                      sign_changes)


class TestEvaluate:
    def test_fixtures(self):
        assert evaluate_projective([1, 2]) == SchubertFraction(3, 2)
        assert evaluate_projective([1, 0, 1, 2]) == SchubertFraction(5, 2)
        assert evaluate_projective([-1, -2, 1, 2]) == SchubertFraction(7, -4)

    def test_infinite_values_are_one_over_zero(self):
        for terms in ([1, 0], [1, -2, 1, -2]):
            assert evaluate_projective(terms) == SchubertFraction(1, 0), terms

    def test_zero_value(self):
        assert evaluate_projective([2, 0, -2]) == SchubertFraction(0, 1)

    def test_trailing_zero_projective_rule(self):
        assert evaluate_projective([5, 3, 0]) == evaluate_projective([5])

    def test_matches_plain_fold_on_random_positive_cfs(self):
        rng = random.Random(5)
        for _ in range(300):
            terms = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
            value = Fraction(terms[-1])
            for t in reversed(terms[:-1]):
                value = t + 1 / value
            assert evaluate_projective(terms) == SchubertFraction(
                value.numerator, value.denominator)


class TestPositiveCF:
    def test_fixtures(self):
        assert positive_cf(SchubertFraction(5, 2)) == [2, 2]
        assert positive_cf(SchubertFraction(3, 1)) == [3]
        assert positive_cf(SchubertFraction(43, 6)) == [7, 6]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="no positive expansion"):
            positive_cf(SchubertFraction(0, 1))
        with pytest.raises(ValueError, match="no positive expansion"):
            positive_cf(SchubertFraction(-3, 2))

    def test_roundtrip(self):
        rng = random.Random(17)
        for _ in range(200):
            f = SchubertFraction(rng.randint(1, 400), rng.randint(1, 400))
            assert evaluate_projective(positive_cf(f)) == f


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
        with pytest.raises(ValueError, match="needs an odd numerator"):
            expand_1212(SchubertFraction(3, 1))
        with pytest.raises(ValueError, match="needs an odd numerator"):
            expand_1212(SchubertFraction(4, 3))
        with pytest.raises(ValueError, match="not a positive value"):
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
            assert evaluate_projective(terms) == r
            assert terms[0] == 1
            assert [abs(t) for t in terms] == [1, 2] * (len(terms) // 2)
            assert _longest_sign_change_run(terms) <= 2

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
        assert c.passes_beta_sq and not c.obstructed
        c = fraction_candidate(9, 4)
        assert c.expansion == (1, 2, -1, 2, 1, -2, 1, 2)
        assert c.passes_beta_sq and c.obstructed

    def test_failed_square_still_expands(self):
        c = fraction_candidate(5, 2)
        assert c.beta_sq_mod == 4 and not c.passes_beta_sq
        assert c.expansion == (1, 2, -1, 2, 1, -2)


class TestPrefixIdentities:
    @pytest.mark.parametrize("prefix", [[1, -2, 1, -2], [2, -1, 2, -1]])
    def test_prefix_is_identity(self, prefix):
        assert cf_matrix(prefix) in ((-1, 0, 0, -1), (1, 0, 0, 1))

    @pytest.mark.parametrize("prefix", [[1, -2, 1, -2], [2, -1, 2, -1]])
    def test_on_random_tails(self, prefix):
        rng = random.Random(31)
        done = 0
        while done < 100:
            tail = [rng.choice([-3, -2, -1, 1, 2, 3])
                    for _ in range(rng.randint(1, 8))]
            plain = evaluate_projective(tail)
            if evaluate_projective(prefix + tail) != plain:
                pytest.fail(f"prefix changed the value of {tail}")
            # Only finite values count towards the 100 tails.
            if plain.beta == 0:
                continue
            done += 1


class TestPalindromicSquareProperty:
    def test_exhaustive_small_patterns(self):
        # Every [1, 2e2, e3, 2e4, ...] with palindromic sign-change
        # sequence has beta^2 = +-2 (mod alpha); evaluated through the
        # Mobius matrix directly so the check is independent of
        # evaluate_projective().
        count = 0
        for m in range(1, 7):
            for signs in itertools.product((1, -1), repeat=2 * m - 1):
                e = (1,) + signs
                terms = [e[i] if i % 2 == 0 else 2 * e[i]
                         for i in range(2 * m)]
                if not sign_changes(terms)[1]:
                    continue
                p, _, beta, _ = cf_matrix(terms)
                alpha = abs(p)
                count += 1
                assert (beta * beta) % alpha in (2 % alpha, (-2) % alpha)
        assert count > 60


class TestSignChangeProfile:
    def test_fixtures(self):
        for terms, changes, longest in [
                ([1, 2, -1, -2], (2,), 1),
                ([1, 2, 1, 2], (), 0),
                ([1, 2, -1, 2, 1, -2, 1, 2], (2, 3, 5, 6), 2)]:
            assert sign_changes(terms) == (changes, True)
            assert _longest_sign_change_run(terms) == longest


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
        # reduces), so build the tuple past it to check the guard.
        f = tuple.__new__(SchubertFraction, (9, 3))
        g = SchubertFraction(9, 4)
        for up_to_mirror in (False, True):
            with pytest.raises(ValueError, match="not invertible"):
                two_bridge_equivalent(f, g, up_to_mirror)
            with pytest.raises(ValueError, match="not invertible"):
                two_bridge_equivalent(g, f, up_to_mirror)

    def test_against_the_definition(self):
        # Every pair of units modulo every odd alpha < 80, in both modes:
        # beta' = beta or beta' * beta = 1 (mod alpha), and with the mirror
        # also -beta' in place of beta'.
        def same(b, b2, alpha):
            return (b2 - b) % alpha == 0 or b2 * b % alpha == 1

        pairs = 0
        for alpha in range(1, 80, 2):
            units = [b for b in range(alpha) if gcd(b, alpha) == 1]
            for b in units:
                f = SchubertFraction(alpha, b)
                for b2 in units:
                    g = SchubertFraction(alpha, b2)
                    oriented = same(b, b2, alpha)
                    mirror = oriented or same(b, -b2, alpha)
                    assert two_bridge_equivalent(f, g) == oriented, (f, g)
                    assert two_bridge_equivalent(
                        f, g, up_to_mirror=True) == mirror, (f, g)
                    pairs += 1
        assert pairs == 59_533

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
        # So the first column (p, r) is coprime, and the projective value
        # needs no reduction.
        rng = random.Random(41)
        for _ in range(100):
            terms = [rng.randint(-3, 3) for _ in range(rng.randint(0, 12))]
            p, q, r, s = cf_matrix(terms)
            assert p * s - q * r in (1, -1)
            value = evaluate_projective(terms)
            assert (value.alpha, value.beta) in ((p, r), (-p, -r))

    def test_image_of_infinity(self):
        assert cf_matrix([1, 2]) == (3, 1, 2, 1)
        assert evaluate_projective([1, 2]) == SchubertFraction(3, 2)


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
        assert SchubertFraction(1, 1).display() == "1/0"
        assert SchubertFraction(1, -1).display() == "1/0"
