import random
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from harmonicknots import chebgeom
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import enumerate_table_triples
from harmonicknots.errors import InputError
from harmonicknots.exact import fold

from conftest import (crossing_parameters, crossing_signs,
                      reference_crossings, sign_cos)


def twist_sign(K, h, k):
    return crossing_signs(K, h, k)[0]


def zdiff_sign(K, h, k):
    """Sign of z(t) - z(s): +1 exactly when the strand at t is over."""
    return 1 if crossing_signs(K, h, k)[2] else -1


def admissible_triples(max_ab=30, c_max=40):
    out = []
    for a in range(2, 8):
        for b in range(a + 1, 20):
            if (a - 1) * (b - 1) > max_ab or gcd(a, b) != 1:
                continue
            for c in range(1, c_max):
                if gcd(c, a) == 1 and gcd(c, b) == 1 and c not in (a, b):
                    out.append((a, b, c))
    return out


class TestHarmonicTriple:
    def test_crossing_counts(self):
        assert HarmonicTriple(3, 4, 5).crossing_count == 3
        assert HarmonicTriple(4, 5, 7).crossing_count == 6
        assert HarmonicTriple(5, 7, 11).crossing_count == 12

    def test_validation_names_offending_pair(self):
        with pytest.raises(InputError, match="2,4"):
            HarmonicTriple(2, 4, 5)
        with pytest.raises(InputError, match="3,9"):
            HarmonicTriple(3, 5, 9)
        with pytest.raises(InputError, match="a < b"):
            HarmonicTriple(5, 3, 7)
        with pytest.raises(InputError, match="positive"):
            HarmonicTriple(0, 3, 5)


class TestEnumeration:
    def test_count_formula_exhaustive(self):
        for a, b, c in admissible_triples():
            K = HarmonicTriple(a, b, c)
            assert len(enumerate_crossings(K)) == (a - 1) * (b - 1) // 2

    def test_sorted_by_decreasing_x(self):
        K = HarmonicTriple(4, 7, 9)
        crossings = enumerate_crossings(K)
        folds = [fold(c.t_num, 7) for c in crossings]
        assert folds == sorted(folds)  # larger fold = smaller x
        ranks = [c.x_order for c in crossings]
        assert ranks == sorted(ranks)

    def test_angles(self):
        K = HarmonicTriple(3, 4, 5)
        for c in enumerate_crossings(K):
            assert c.t_num == c.k * 4 + c.h * 3
            assert c.s_num == abs(c.k * 4 - c.h * 3)
            assert 0 < c.t_num < 12

    def test_parameter_set_symmetric_about_half(self):
        for a, b, c in [(3, 7, 8), (4, 9, 11), (5, 8, 9), (6, 7, 11)]:
            K = HarmonicTriple(a, b, c)
            folds = []
            for cr in enumerate_crossings(K):
                folds += [cr.t_num, cr.s_num]
            assert sorted(folds) == sorted(a * b - f for f in folds)


class TestSigns:
    def test_trefoil_writhe(self):
        K = HarmonicTriple(3, 4, 5)
        signs = [crossing_signs(K, h, k)[1]
                 for h, k in crossing_parameters(K)]
        assert len(set(signs)) == 1 and abs(sum(signs)) == 3

    def test_figure_eight_writhe_zero(self):
        K = HarmonicTriple(3, 5, 7)
        signs = [crossing_signs(K, h, k)[1]
                 for h, k in crossing_parameters(K)]
        assert sorted(signs) == [-1, -1, 1, 1]

    def test_twist_sign_mixed_on_trefoil(self):
        # The twist sign D is a different quantity from the oriented sign;
        # on the trefoil diagram it is not constant.
        K = HarmonicTriple(3, 4, 5)
        signs = {twist_sign(K, h, k) for h, k in crossing_parameters(K)}
        assert signs == {1, -1}

    def test_twist_sign_equals_y_sign_for_consecutive_degrees(self):
        for n in (2, 3, 4):
            K = HarmonicTriple(2 * n - 1, 2 * n, 2 * n + 1)
            for h, k in crossing_parameters(K):
                t_num = k * K.b + h * K.a
                y_sign = sign_cos(t_num, K.a)
                assert twist_sign(K, h, k) == y_sign

    def test_b_equals_a_plus_one_shortcut(self):
        # With consecutive a, b the twist sign is the sign of
        # (z(t)-z(s))(t-s), and t < s always, so D = -sign(z(t)-z(s)).
        for a, c in [(3, 9), (4, 7), (5, 7), (6, 11), (5, 6)]:
            b = a + 1
            if gcd(c, a) != 1 or gcd(c, b) != 1:
                continue
            K = HarmonicTriple(a, b, c)
            for h, k in crossing_parameters(K):
                assert twist_sign(K, h, k) == -zdiff_sign(K, h, k)

    def test_z_difference_identity_consecutive(self):
        # z = 2 t y - x when the third degree follows the recurrence, so
        # sign(z(t)-z(s)) = sign(2 (t-s) y(t)) = -sign(y(t)).
        for n in (2, 3, 4):
            K = HarmonicTriple(2 * n - 1, 2 * n, 2 * n + 1)
            for h, k in crossing_parameters(K):
                t_num = k * K.b + h * K.a
                y_sign = sign_cos(t_num, K.a)
                assert zdiff_sign(K, h, k) == -y_sign

    def test_degenerate_sign_detected(self):
        # gcd(c, b) = 2: sin(ch/b pi) vanishes at h = 2.
        fake = SimpleNamespace(a=3, b=4, c=2)
        with pytest.raises(ValueError, match=r"zero sine at crossing "
                           r"\(h=2, k=1\) of H\(3, 4, 2\)"):
            enumerate_crossings(fake)


def mirror_partner_c(a, b, c):
    """Smallest positive c' = c (mod 2a), c' = -c (mod 2b), c' != c."""
    m = 2 * a * b
    for cp in range(1, 2 * m + 1):
        if cp != c and cp % (2 * a) == c % (2 * a) \
                and cp % (2 * b) == (-c) % (2 * b):
            return cp
    raise AssertionError("no mirror partner found")


class TestMirrorRule:
    def test_mirror_flips_sign_and_over(self):
        rng = random.Random(53)
        pool = [t for t in admissible_triples() if t[0] >= 3]
        for a, b, c in rng.sample(pool, 20):
            cp = mirror_partner_c(a, b, c)
            if gcd(cp, a) != 1 or gcd(cp, b) != 1:
                continue
            K = HarmonicTriple(a, b, c)
            Kp = HarmonicTriple(a, b, cp)
            for h, k in crossing_parameters(K):
                sign, _, over = crossing_signs(K, h, k)
                sign_p, _, over_p = crossing_signs(Kp, h, k)
                assert sign_p == -sign
                assert over_p == (not over)


# ---------------------------------------------------------------------------
# The per-(a, b) frame: the crossing list it builds is the one the
# per-crossing oracle builds, whatever the cache holds.

# Pairwise coprime degrees a < b, a <= 12, b <= 40, c up to 10^9 (c < b
# allowed).
TRIPLES = st.integers(2, 40).flatmap(lambda b: st.tuples(
    st.integers(1, min(b - 1, 12)), st.just(b),
    st.integers(1, 10 ** 9))).filter(
        lambda t: gcd(t[0], t[1]) == 1 and gcd(t[2], t[0] * t[1]) == 1)


@settings(max_examples=200, deadline=None)
@given(TRIPLES)
@example((3, 4, 5))
@example((1, 2, 3))
@example((6, 7, 1))
@example((11, 40, 999999937))
def test_frame_matches_the_per_crossing_oracle(triple):
    K = HarmonicTriple(*triple)
    got = enumerate_crossings(K)
    assert [tuple(c) for c in got] == \
        [tuple(c) for c in reference_crossings(K)]
    # A fresh list each call, of the frame's shared crossings.
    again = enumerate_crossings(K)
    assert again is not got
    assert all(x is y for x, y in zip(again, got))


@pytest.mark.parametrize("triple", [(4, 7, 3), (5, 9, 1000003),
                                    (11, 40, 999999937)])
def test_evicted_frames_enumerate_the_reference(triple):
    # Enough frames of other degrees to evict the triple's frame between
    # two enumerations.
    K = HarmonicTriple(*triple)
    first = enumerate_crossings(K)
    assert first == reference_crossings(K)
    maxsize = chebgeom._frame.cache_info().maxsize
    for n in range(maxsize + 1):
        chebgeom._frame(1, 100 + n)
    info = chebgeom._frame.cache_info()
    assert info.currsize == maxsize
    assert enumerate_crossings(K) == first
    assert chebgeom._frame.cache_info().misses == info.misses + 1


def test_frame_cache_holds_the_crossing_table():
    # A sweep of ``table --max-ab 72`` finds each pair's frame cached.
    pairs = {(a, b) for a, b, _ in enumerate_table_triples(72)}
    assert len(pairs) == 58
    assert chebgeom._frame.cache_info().maxsize >= len(pairs)
