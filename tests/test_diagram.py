import math
import random
from math import gcd

import pytest

from harmonicknots.cfrac import (SchubertFraction, evaluate,
                                 evaluate_projective, two_bridge_equivalent)
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.diagram import (
    CoprimalityError, FormParityError, GaussCode, GaussEntry,
    UnsupportedBridgeError, ZeroTermError, build_gauss_code, conway_form_h4,
    diagram_from_conway, read_conway_from_diagram)
from harmonicknots.invariants import alexander, determinant


def canonical_h4_pairs(limit, b_min=5):
    # b >= 5 so the pair yields a normally ordered degree triple (4, b, c).
    pairs = []
    for b in range(b_min, limit, 2):
        for c in range(b + 2, min(3 * b, limit - b + 1), 2):
            if gcd(b, c) == 1 and (c - b) % 4 != 0:
                pairs.append((b, c))
    return pairs


class TestGaussCode:
    def test_structure(self):
        gc = build_gauss_code(enumerate_crossings(HarmonicTriple(3, 4, 5)))
        assert len(gc.entries) == 6
        gc.validate()

    def test_traversal_by_increasing_t(self):
        # Each passage's parameter t = cos(num pi / ab), in double
        # precision, rises strictly along the code.
        for a, b, c in [(3, 4, 5), (4, 7, 9), (5, 7, 11), (6, 7, 11)]:
            crossings = enumerate_crossings(HarmonicTriple(a, b, c))
            ts = []
            for e in build_gauss_code(crossings).entries:
                cr = crossings[e.crossing_id - 1]
                on_t = (e.passage == "O") == cr.over_at_t
                num = cr.t_num if on_t else cr.s_num
                ts.append(math.cos(math.pi * num / (a * b)))
            assert all(s < t for s, t in zip(ts, ts[1:])), (a, b, c)

    def test_each_crossing_once_over_once_under(self):
        for t in [(3, 5, 7), (4, 7, 9), (5, 6, 7)]:
            gc = build_gauss_code(enumerate_crossings(HarmonicTriple(*t)))
            gc.validate()

    def test_reversal_and_mirror_are_involutions(self):
        gc = build_gauss_code(enumerate_crossings(HarmonicTriple(3, 5, 7)))
        assert gc.reversed().reversed() == gc
        assert gc.mirrored().mirrored() == gc

    def test_invalid_code_detected(self):
        bad = GaussCode((GaussEntry(1, "O", 1), GaussEntry(1, "O", 1)))
        with pytest.raises(ValueError):
            bad.validate()


class TestConwayFormH4:
    def test_fixtures(self):
        assert conway_form_h4(5, 7) == [1, 2, -1, -2]
        assert evaluate(conway_form_h4(5, 7)) == SchubertFraction(7, 4)
        assert conway_form_h4(3, 5) == [-1, -2]
        assert evaluate(conway_form_h4(3, 5)) == SchubertFraction(3, -2)
        assert conway_form_h4(7, 9) == [-1, -2, 1, 2, -1, -2]

    def test_values_equivalent_to_reference(self):
        assert two_bridge_equivalent(evaluate(conway_form_h4(5, 7)),
                                     SchubertFraction(7, 2), up_to_mirror=True)
        assert two_bridge_equivalent(evaluate(conway_form_h4(7, 9)),
                                     SchubertFraction(17, 5), up_to_mirror=True)

    def test_errors(self):
        with pytest.raises(FormParityError):
            conway_form_h4(5, 9)   # 9 = 5 (mod 4)
        with pytest.raises(FormParityError):
            conway_form_h4(4, 7)
        with pytest.raises(CoprimalityError):
            conway_form_h4(9, 15)


class TestReadConway:
    def test_needs_low_bridge(self):
        K = HarmonicTriple(5, 6, 7)
        with pytest.raises(UnsupportedBridgeError):
            read_conway_from_diagram(K, enumerate_crossings(K))

    def test_matches_closed_form_up_to_reversal(self):
        for b, c in canonical_h4_pairs(40):
            K = HarmonicTriple(4, b, c)
            got = read_conway_from_diagram(K, enumerate_crossings(K))
            want = conway_form_h4(b, c)
            reversed_negated = [-t for t in reversed(want)]
            assert got in (want, reversed_negated), (b, c, got, want)

    def test_three_strand_rows(self):
        K = HarmonicTriple(3, 5, 7)
        got = read_conway_from_diagram(K, enumerate_crossings(K))
        assert two_bridge_equivalent(evaluate_projective(got),
                                     SchubertFraction(5, 2), up_to_mirror=True)
        K = HarmonicTriple(4, 5, 7)
        got = read_conway_from_diagram(K, enumerate_crossings(K))
        assert two_bridge_equivalent(evaluate_projective(got),
                                     SchubertFraction(7, 2), up_to_mirror=True)


class TestDiagramFromConway:
    def test_fixtures(self):
        code = diagram_from_conway([3])
        assert code.crossing_count == 3
        assert str(alexander(code)) == "1 - t + t^2"
        assert determinant(diagram_from_conway([2, 2])) == 5
        code = diagram_from_conway([7, 6])
        assert code.crossing_count == 13
        assert determinant(code) == 43

    def test_errors(self):
        with pytest.raises(ZeroTermError):
            diagram_from_conway([1, 0, 2])
        with pytest.raises(ZeroTermError):
            diagram_from_conway([])
        with pytest.raises(ValueError, match="link"):
            diagram_from_conway([2, 2, 2])  # fraction 12/5: two components

    def test_determinant_matches_fraction_randomly(self):
        rng = random.Random(61)
        done = 0
        while done < 150:
            terms = [rng.choice([-3, -2, -1, 1, 2, 3])
                     for _ in range(rng.randint(1, 7))]
            value = evaluate_projective(terms)
            if value.alpha % 2 == 0:
                continue
            done += 1
            assert determinant(diagram_from_conway(terms)) == value.alpha, terms

    def test_oracle_agrees_with_curve_pipeline(self):
        # The twist diagram of the sequence read off a curve diagram must
        # carry the same Alexander polynomial as the curve itself, for
        # every small two-bridge curve in the reference table.
        from conftest import REFERENCE_TABLE

        for (a, b, c), _, _, _ in REFERENCE_TABLE:
            if a not in (3, 4):
                continue
            K = HarmonicTriple(a, b, c)
            cf = read_conway_from_diagram(K, enumerate_crossings(K))
            assert alexander(diagram_from_conway(cf)) == \
                alexander(build_gauss_code(enumerate_crossings(K))), (a, b, c)


class TestDeterminantAlphaConsistency:
    def test_h4_determinant_equals_alpha(self):
        for b, c in canonical_h4_pairs(40):
            K = HarmonicTriple(4, b, c)
            assert determinant(build_gauss_code(enumerate_crossings(K))) == \
                evaluate(conway_form_h4(b, c)).alpha, (b, c)


class TestTwistChainFamily:
    def test_consecutive_odd_pairs_give_twist_chain(self):
        # The pair (2k-1, 2k+1) yields the fraction of [3, 2, ..., 2]
        # with k-2 twos (crossing number 2k-1).
        for k in range(2, 12):
            got = evaluate(conway_form_h4(2 * k - 1, 2 * k + 1))
            chain = evaluate([3] + [2] * (k - 2))
            assert got.alpha == chain.alpha, k
            assert two_bridge_equivalent(got, chain, up_to_mirror=True), k
