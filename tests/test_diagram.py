import hashlib
import math
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from harmonicknots import diagram
from harmonicknots.cfrac import (SchubertFraction, evaluate_projective,
                                 positive_cf, two_bridge_equivalent)
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import enumerate_table_triples
from harmonicknots.diagram import (
    GaussCode, GaussEntry, _plat_gauss_code, build_gauss_code,
    conway_form_h4, diagram_from_conway, read_conway_from_diagram)
from harmonicknots.errors import InternalError
from harmonicknots.invariants import alexander, determinant

from conftest import TWIST_FRACTIONS, twist_code
from diagram_oracle import oracle_gauss_code, oracle_read_conway
from fox_oracle import oracle_alexander


def canonical_h4_pairs(limit, b_min=5):
    # b >= 5 so the pair yields a normally ordered degree triple (4, b, c).
    pairs = []
    for b in range(b_min, limit, 2):
        for c in range(b + 2, min(3 * b, limit - b + 1), 2):
            if gcd(b, c) == 1 and (c - b) % 4 != 0:
                pairs.append((b, c))
    return pairs


def twist_word(terms):
    """The braid word and right caps that ``diagram_from_conway(terms)``
    closes: odd regions twist positions (1, 2), even ones (0, 1) with the
    handedness reversed."""
    word = []
    for i, a in enumerate(terms, start=1):
        s = 1 if (a > 0) == (i % 2 == 1) else -1
        word += [(2 if i % 2 else 1, s)] * abs(a)
    caps = ((0, 1), (2, 3)) if len(terms) % 2 else ((0, 3), (1, 2))
    return word, caps


def planar_caps(n):
    """The parallel and the nested right caps of n strands."""
    return [tuple((i, i + 1) for i in range(0, n, 2)),
            tuple((i, n - 1 - i) for i in range(n // 2))]


@st.composite
def plat_words(draw):
    """A braid word on 4 or 6 strands with planar right caps."""
    n = draw(st.sampled_from((4, 6)))
    word = draw(st.lists(st.tuples(st.integers(1, n - 1),
                                   st.sampled_from((1, -1))), max_size=12))
    return word, draw(st.sampled_from(planar_caps(n)))


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

    def test_invalid_code_detected(self):
        bad = GaussCode((GaussEntry(1, "O", 1), GaussEntry(1, "O", 1)))
        with pytest.raises(ValueError):
            bad.validate()


def outcome(route, *args):
    """The value of ``route(*args)``, or the type and text of its raise."""
    try:
        return route(*args)
    except (ValueError, InternalError) as exc:
        return type(exc), str(exc)


def assert_readings_match_oracle(K):
    """Code and twist reading of H(K) equal the oracles' on a fresh list,
    and on a second one that the caches now hold."""
    for _ in range(2):
        crossings = enumerate_crossings(K)
        assert build_gauss_code(crossings) == oracle_gauss_code(crossings), K
        if K.a in (3, 4):
            assert outcome(read_conway_from_diagram, K, crossings) == \
                outcome(oracle_read_conway, K, crossings), K


# Pairwise coprime degrees a < b, a <= 9, b <= 80, any c (c < b allowed).
TRIPLES = st.integers(2, 80).flatmap(lambda b: st.tuples(
    st.integers(1, min(b - 1, 9)), st.just(b),
    st.integers(1, 10 ** 9))).filter(
        lambda t: gcd(t[0], t[1]) == 1 and gcd(t[2], t[0] * t[1]) == 1)


@st.composite
def shuffled_lists(draw):
    """The ``enumerate_crossings`` list of a drawn triple, in a drawn
    order."""
    crossings = enumerate_crossings(HarmonicTriple(*draw(TRIPLES)))
    return draw(st.permutations(crossings))


@st.composite
def mutated_lists(draw):
    """An a in {3, 4} crossing list with one field changed: one crossing's
    x_order to a neighbour's, its y_level, or its sign; sometimes reversed
    as well, out of x order."""
    a = draw(st.sampled_from((3, 4)))
    b = draw(st.sampled_from([b for b in range(a + 1, 41) if gcd(a, b) == 1]))
    c = draw(st.integers(1, 10 ** 6).filter(lambda c: gcd(c, a * b) == 1))
    K = HarmonicTriple(a, b, c)
    crossings = enumerate_crossings(K)
    i = draw(st.integers(0, len(crossings) - 1))
    field = draw(st.sampled_from(("x_order", "y_level", "sign")))
    if field == "x_order":
        j = draw(st.sampled_from([j for j in (i - 1, i + 1)
                                  if 0 <= j < len(crossings)]))
        value = crossings[j].x_order
    elif field == "y_level":
        value = draw(st.integers(0, a))
    else:
        value = draw(st.integers(-2, 2))
    crossings[i] = crossings[i]._replace(**{field: value})
    if draw(st.booleans()):
        crossings.reverse()
    return K, crossings


class TestCachedReadings:
    """``build_gauss_code`` and ``read_conway_from_diagram`` against the
    per-curve code they replaced, kept in ``diagram_oracle``."""

    @settings(max_examples=300, deadline=None)
    @given(TRIPLES)
    @example((1, 2, 3))
    @example((3, 4, 5))
    @example((4, 79, 3))
    @example((9, 80, 999999937))
    def test_random_triples_match_the_oracle(self, triple):
        assert_readings_match_oracle(HarmonicTriple(*triple))

    @settings(max_examples=200, deadline=None)
    @given(shuffled_lists())
    def test_shuffled_lists_match_the_oracle(self, crossings):
        # Ids follow the list order; the passages still go by increasing t.
        assert build_gauss_code(crossings) == oracle_gauss_code(crossings)

    @settings(max_examples=300, deadline=None)
    @given(mutated_lists())
    def test_one_changed_field_reads_as_the_oracle(self, mutated):
        # The same terms, or the same error type and message.
        K, crossings = mutated
        assert outcome(read_conway_from_diagram, K, crossings) == \
            outcome(oracle_read_conway, K, crossings)

    def test_every_low_bridge_pair_reads_as_the_oracle(self):
        # All 90 pairs (a, b) with a in {3, 4} and b <= 80, and the first
        # ten of them again after the other 80.
        pairs = [(a, b) for a in (3, 4) for b in range(a + 1, 81)
                 if gcd(a, b) == 1]
        assert len(pairs) == 90
        for a, b in pairs + pairs[:10]:
            c = next(c for c in range(b + 1, 3 * a * b) if gcd(c, a * b) == 1)
            assert_readings_match_oracle(HarmonicTriple(a, b, c))

    def test_table_round_fills_each_cache_once(self):
        # One table round fills the entries of every (crossing id, sign)
        # it meets, within 192 KB with their keys; a second round misses
        # nothing and holds no more than the few KB the interpreter's
        # tuple free lists may keep.
        lists = [(K, enumerate_crossings(K)) for K in
                 (HarmonicTriple(*t) for t in enumerate_table_triples(72))]

        def table_round():
            for K, crossings in lists:
                build_gauss_code(crossings)
                if K.a in (3, 4):
                    read_conway_from_diagram(K, crossings)

        diagram._entries.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table_round()
            held = tracemalloc.get_traced_memory()[0] - before
            misses = diagram._entries.cache_info().misses
            table_round()
            again = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        signs = {(cid, c.oriented_sign) for _, crossings in lists
                 for cid, c in enumerate(crossings, start=1)}
        assert misses == len(signs)
        assert diagram._entries.cache_info().misses == misses
        assert held <= 192 * 1024
        assert again <= held + 16 * 1024

    def test_one_flipped_crossing(self):
        # Same numerators, so every list is read in the same order; only
        # the flipped crossing's two passages change.
        K = HarmonicTriple(5, 7, 9)
        crossings = enumerate_crossings(K)
        base = build_gauss_code(crossings)
        for i in range(len(crossings)):
            flipped = list(crossings)
            flipped[i] = flipped[i]._replace(
                over_at_t=not flipped[i].over_at_t)
            got = build_gauss_code(flipped)
            assert got == oracle_gauss_code(flipped), i
            changed = [j for j, (x, y) in enumerate(zip(got.entries,
                                                        base.entries))
                       if x != y]
            assert len(changed) == 2, i
            assert {got.entries[j].crossing_id for j in changed} == {i + 1}

    def test_codes_share_their_entries(self):
        # Every code draws on one interned entry per (id, passage, sign).
        first = build_gauss_code(enumerate_crossings(HarmonicTriple(4, 7, 9)))
        again = build_gauss_code(enumerate_crossings(HarmonicTriple(4, 7, 9)))
        other = build_gauss_code(enumerate_crossings(HarmonicTriple(4, 7, 5)))
        assert all(x is y for x, y in zip(first.entries, again.entries))
        shared = {e: e for e in other.entries}
        assert all(shared[e] is e for e in first.entries if e in shared)

    def test_coincident_numerators_raise_on_every_call(self):
        crossings = list(enumerate_crossings(HarmonicTriple(3, 5, 7)))
        crossings[1] = crossings[1]._replace(s_num=crossings[0].t_num)
        for _ in range(3):
            with pytest.raises(InternalError, match="coincident"):
                build_gauss_code(crossings)
        with pytest.raises(InternalError, match="coincident"):
            oracle_gauss_code(crossings)

    @pytest.mark.parametrize("sign", [0, 2, -3])
    def test_sign_other_than_unit_raises(self, sign):
        crossings = list(enumerate_crossings(HarmonicTriple(4, 7, 9)))
        crossings[3] = crossings[3]._replace(oriented_sign=sign)
        for _ in range(2):
            with pytest.raises(ValueError, match="crossing 4 has oriented"):
                build_gauss_code(crossings)
        # A crossing id beyond any that the entries have reached.
        crossings = list(enumerate_crossings(HarmonicTriple(7, 400, 3)))
        crossings[-1] = crossings[-1]._replace(oriented_sign=sign)
        with pytest.raises(ValueError, match=f"crossing {len(crossings)} "):
            build_gauss_code(crossings)

    def test_entries_hold_int_signs(self):
        # A sign equal to +-1, filled first, still gives entries of the
        # ints +-1, which the oracle's code holds too.
        crossings = enumerate_crossings(HarmonicTriple(4, 7, 9))
        want = oracle_gauss_code(crossings)
        for one in (True, 1.0):
            diagram._entries.cache_clear()
            odd = [c._replace(oriented_sign=one if c.oriented_sign == 1
                              else -one) for c in crossings]
            got = build_gauss_code(odd)
            assert got == want
            assert {type(e.sign) for e in got.entries} == {int}, one
            assert all(x is y for x, y in
                       zip(build_gauss_code(crossings).entries, got.entries))

    def test_shape_checks_raise_on_every_call(self):
        K = HarmonicTriple(4, 7, 9)
        crossings = list(enumerate_crossings(K))
        # An axis crossing moved off the axis; the last one merged into
        # the pair before it, one group short; a pair split, one of its
        # crossings joining the axis crossing at the next larger x.
        axis = [i for i, c in enumerate(crossings) if c.y_level == 2]
        off_axis = list(crossings)
        off_axis[axis[0]] = off_axis[axis[0]]._replace(y_level=1)
        merged = list(crossings)
        merged[-1] = merged[-1]._replace(x_order=merged[-2].x_order)
        split = list(crossings)
        split[axis[0] + 1] = split[axis[0] + 1]._replace(
            x_order=split[axis[0]].x_order)
        for bad, match in ((off_axis, "single axis"), (merged, "x-groups"),
                           (split, "symmetric pairs")):
            for _ in range(2):
                with pytest.raises(InternalError, match=match):
                    read_conway_from_diagram(K, bad)
            assert outcome(oracle_read_conway, K, bad) == \
                outcome(read_conway_from_diagram, K, bad)

    def test_cancelling_pair_raises_per_curve(self):
        # A symmetric pair of opposite signs sums to 0; the groups are
        # sound, and the sign check runs on each list.
        K = HarmonicTriple(4, 7, 9)
        crossings = list(enumerate_crossings(K))
        good = read_conway_from_diagram(K, crossings)
        pair = [i for i, c in enumerate(crossings) if c.y_level != 2][:2]
        cancel = list(crossings)
        cancel[pair[0]] = cancel[pair[0]]._replace(
            sign=-crossings[pair[1]].sign)
        for _ in range(2):
            with pytest.raises(InternalError, match="cancelling pair"):
                read_conway_from_diagram(K, cancel)
        assert read_conway_from_diagram(K, crossings) == good


class TestConwayFormH4:
    def test_fixtures(self):
        assert conway_form_h4(5, 7) == [1, 2, -1, -2]
        assert evaluate_projective(conway_form_h4(5, 7)) == \
            SchubertFraction(7, 4)
        assert conway_form_h4(3, 5) == [-1, -2]
        assert evaluate_projective(conway_form_h4(3, 5)) == \
            SchubertFraction(3, -2)
        assert conway_form_h4(7, 9) == [-1, -2, 1, 2, -1, -2]

    def test_values_equivalent_to_reference(self):
        assert two_bridge_equivalent(
            evaluate_projective(conway_form_h4(5, 7)),
            SchubertFraction(7, 2), up_to_mirror=True)
        assert two_bridge_equivalent(
            evaluate_projective(conway_form_h4(7, 9)),
            SchubertFraction(17, 5), up_to_mirror=True)

    def test_errors(self):
        with pytest.raises(ValueError, match="no twist sequence"):
            conway_form_h4(5, 9)   # 9 = 5 (mod 4)
        with pytest.raises(ValueError, match="must both be odd"):
            conway_form_h4(4, 7)
        with pytest.raises(ValueError, match="9,15 not coprime"):
            conway_form_h4(9, 15)


class TestReadConway:
    def test_needs_low_bridge(self):
        K = HarmonicTriple(5, 6, 7)
        with pytest.raises(ValueError, match="needs a in"):
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
        with pytest.raises(ValueError, match="zero twist region"):
            diagram_from_conway([1, 0, 2])
        with pytest.raises(ValueError, match="empty term sequence"):
            diagram_from_conway([])
        with pytest.raises(ValueError, match="link"):
            diagram_from_conway([2, 2, 2])  # fraction 12/5: two components
        for word, caps in [
                ([], ((0, 1), (2, 3))),  # two crossing-free circles
                # The trefoil on 6 strands, beside a circle on (4, 5).
                ([(2, 1)] * 3, ((0, 1), (2, 3), (4, 5)))]:
            with pytest.raises(ValueError, match="link"):
                _plat_gauss_code(word, caps)

    @given(plat_words())
    def test_random_plats_are_knots_or_links(self, plat):
        try:
            code = _plat_gauss_code(*plat)
        except ValueError as exc:
            assert "link" in str(exc)
            return
        code.validate()
        assert alexander(code) == oracle_alexander(code), plat

    def test_twist_codes_byte_for_byte(self):
        # One digest over every passage of every twist code with alpha <
        # 200 pins start point, passage order, over/under and sign.
        digest = hashlib.sha256()
        for alpha, beta in TWIST_FRACTIONS:
            digest.update(" ".join(
                f"{cid}{passage}{sign:+d}"
                for cid, passage, sign in twist_code(alpha, beta).entries
            ).encode() + b"\n")
        assert digest.hexdigest() == ("756aed655271cba2d60fd7ae0fa81dd3"
                                      "d5288ed8062248ec2462eb1ad1ab66f2")

    def test_six_strands(self):
        # sigma_4^+-1 twists a third cap pair (4, 5) into the strand at
        # position 3: one kink on 6 strands, the same knot.
        forms = [[3]] + [positive_cf(SchubertFraction(*f))
                         for f in TWIST_FRACTIONS[::40]]
        for terms in forms:
            word, caps = twist_word(terms)
            code = diagram_from_conway(terms)
            assert _plat_gauss_code(word, caps) == code, terms
            for s in (1, -1):
                six = _plat_gauss_code(word + [(4, s)], caps + ((4, 5),))
                six.validate()
                assert six.crossing_count == code.crossing_count + 1
                assert alexander(six) == alexander(code), (terms, s)

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
                evaluate_projective(conway_form_h4(b, c)).alpha, (b, c)


class TestTwistChainFamily:
    def test_consecutive_odd_pairs_give_twist_chain(self):
        # The pair (2k-1, 2k+1) yields the fraction of [3, 2, ..., 2]
        # with k-2 twos (crossing number 2k-1).
        for k in range(2, 12):
            got = evaluate_projective(conway_form_h4(2 * k - 1, 2 * k + 1))
            chain = evaluate_projective([3] + [2] * (k - 2))
            assert got.alpha == chain.alpha, k
            assert two_bridge_equivalent(got, chain, up_to_mirror=True), k
