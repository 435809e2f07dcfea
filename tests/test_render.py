import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from math import cos, gcd, pi
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from harmonicknots import render
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.exact import fold
from harmonicknots.render import (MARGIN, SAMPLES, STROKE, WIDTH,
                                  RenderOptions, _fmt, _svg_document,
                                  billiard_point, render_billiard, render_xy)

SVG = "{http://www.w3.org/2000/svg}"


# ---------------------------------------------------------------------------
# Reference drawings: the per-sample sweep and the per-number polyline that
# the per-piece renderer replaced.  The package's output must match them
# byte for byte.


def reference_polyline(points):
    text = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<polyline fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(STROKE)}" stroke-linecap="round" '
            f'points="{text}"/>')


def reference_render_xy(K, options=None):
    opt = options or RenderOptions()
    crossings = enumerate_crossings(K)
    ab = K.a * K.b
    unders = sorted((c.s_num if c.over_at_t else c.t_num) / ab
                    for c in crossings)
    nums = sorted({c.t_num for c in crossings} | {c.s_num for c in crossings})
    min_sep = min((n - m for m, n in zip(nums, nums[1:])), default=ab) / ab
    half = min(0.012, 0.35 * min_sep)

    scale = WIDTH / (2 + 2 * MARGIN)
    off = (1 + MARGIN) * scale

    def to_px(x, y):
        return off + scale * x, off - scale * y

    # One sweep: the parameters u rise, so an under-passage left more than
    # half behind stays behind, and only the next one can hide u.
    pieces = []
    current = []
    step = 1 / (SAMPLES - 1)
    j = 0
    for i in range(SAMPLES):
        u = i * step if i < SAMPLES - 1 else 1.0
        while j < len(unders) and u - unders[j] > half:
            j += 1
        if j == len(unders) or abs(u - unders[j]) > half:
            current.append(to_px(cos(K.a * u * pi), cos(K.b * u * pi)))
        elif current:
            pieces.append(current)
            current = []
    if current:
        pieces.append(current)

    body = [reference_polyline(p) for p in pieces if len(p) > 1]
    if opt.annotate_signs:
        for c in crossings:
            x = cos(pi * (fold(c.t_num, K.b) / K.b))
            y = cos(pi * (fold(c.t_num, K.a) / K.a))
            px, py = to_px(x, y)
            body.append(
                f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" '
                f'font-size="{_fmt(scale * 0.05)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, WIDTH, body)


def reference_coords_polyline(coords):
    """``reference_polyline`` taking the flat list ``render._polyline``
    takes."""
    return reference_polyline(list(zip(coords[::2], coords[1::2])))


def billiard_polyline(K):
    """Trajectory vertices (reflection points and endpoints), in order.

    Vertices sit at the parameters cos(m pi / ab) with m a multiple of a
    or b; all coordinates are integers and consecutive differences have
    |dx| = |dy|, i.e. slope exactly +-1.
    """
    ab = K.a * K.b
    return [billiard_point(K, m) for m in range(ab + 1)
            if m % K.a == 0 or m % K.b == 0]


# sha256 of render_xy (plain, annotated) and render_billiard (plain,
# annotated), recorded from the numpy-sampled renderer that the pure-math
# sampling replaced; the drawings must stay byte-identical.
SVG_DIGESTS = {
    (3, 4, 5): (
        "f8dd7f09885ea90fb59f77a7598d5eea78eef891c2ad1dbeb7ae14493b186ab4",
        "0febe25d9e2b3c80f27bb8deb7ba02b6214cacc64b8aac3e992521d8cf89dfe7",
        "c54a9a3e2cbbfbbbbb3a524052a9d10f2bf52e9bce0aa915492db3e3bc6c12b6",
        "119d4a6ed8fcd4150ddc9c9633c360fd8bad656df7ce15929949a644a1e4d15f"),
    (4, 5, 7): (
        "3d46bca8d47bb08fa127824f95d891631225dd6f71e9cb0ffb7f9193f4c98a03",
        "089e6b4a969a5ebc65e2dc7eb929a01de515765f86fc2d9d7ab62c1dc64f3416",
        "ccc22f39ca8c712bc0252883f0d2b892339b47b813b501134be588abbc8c1750",
        "5f691ade717ea2dc08b8da3e36d2ef6fc1f32f6de7f1f928f38625b1be8936c7"),
    (5, 7, 11): (
        "651c003159f92a608bf69724477ed04a7427f1c4036a44e6e79601176424ff5c",
        "7994c9497f90cf888de87767b63048d6dd6a40ce2d0e28781c44b8ca811ad00b",
        "7cbc8ae7fa9dff5ed121f665a5084def62482e3a5e0c0d2511c977cf01fa3cf5",
        "8da61b585976b79348179d02af47230cc9b3c2db6403dac8122bd26b9848bc86"),
    (3, 17, 7): (
        "a60ac392fdd3d7b3feecc6993034b43796c75f0338fa757f0dc040fc4c6cd424",
        "4d39eb6ee50d1d9c49a748d62b834ec6ca85ec8074b8d4f34e55157640a2bd68",
        "fabb76d56878f1a921e8a90f22c22c170d2df4d25105687aa0947e056e4af7a5",
        "556493749e5886ee5ef091220b45137e829a57b98721e1591cddbfa2fa906d36"),
    (5, 9, 1000003): (
        "ee04299f1859fa7d6546bbc4dd3b5d074755ba05947ec87803f92d8e5da1aa2a",
        "8ed95d5d660e567e4a56d86eed30847f9cea9148c4864ba74f896e533fd8a032",
        "98e2bab17c185bcc8bac6f0e912d48a8ca58304e2950e3cba3758c1fd446b120",
        "9bc70f7e517e7af15894c48229d849a69ec7fbb41ba2a29efc2d28b1f250ff75"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("triple", sorted(SVG_DIGESTS))
def test_svg_digests(triple):
    K = HarmonicTriple(*triple)
    signs = RenderOptions(annotate_signs=True)
    got = (sha256(render_xy(K)), sha256(render_xy(K, signs)),
           sha256(render_billiard(K)), sha256(render_billiard(K, signs)))
    assert got == SVG_DIGESTS[triple]


def test_renders_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from harmonicknots import cli\n"
        "K = cli.HarmonicTriple(4, 5, 7)\n"
        "options = cli.RenderOptions(annotate_signs=True)\n"
        "assert cli.render_xy(K, options).startswith('<svg')\n"
        "assert cli.render_billiard(K, options).startswith('<svg')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# Pairwise coprime degrees a < b, a <= 12, b <= 40, c up to 10^9.
TRIPLES = st.integers(2, 40).flatmap(lambda b: st.tuples(
    st.integers(1, min(b - 1, 12)), st.just(b),
    st.integers(1, 10 ** 9)))


@settings(max_examples=60, deadline=None)
@given(TRIPLES, st.booleans())
@example((3, 4, 5), True)
@example((1, 2, 3), False)
@example((11, 40, 999999937), True)
# ab = 2368: some windows are narrower than a sample step and hide none.
@example((37, 64, 5), False)
def test_matches_the_reference_drawings(triple, annotate):
    a, b, c = triple
    assume(gcd(a, b) == 1 and gcd(c, a * b) == 1)
    K = HarmonicTriple(*triple)
    options = RenderOptions(annotate_signs=annotate)
    assert render_xy(K, options) == reference_render_xy(K, options)
    billiard = render_billiard(K, options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_polyline", reference_coords_polyline)
        assert billiard == render_billiard(K, options)


# Coordinates whose four-decimal rounding carries into the integer part
# or leaves only zeros.
CARRIES = [99.99995, 9.99996, 999.99996, 0.00004, -0.00004, 0.0, 100.0,
           10.5, 23.6, 496.4]
COORDS = st.one_of(st.sampled_from(CARRIES),
                   st.floats(-1e6, 1e6, allow_nan=False),
                   st.integers(-10 ** 6, 10 ** 6).map(lambda n: n / 10 ** 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=20))
@example(list(zip(CARRIES, reversed(CARRIES))))
def test_bulk_format_equals_per_number_fmt(points):
    coords = [v for p in points for v in p]
    assert render._polyline(coords) == reference_polyline(points)


def polylines(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f"{SVG}polyline")


class TestRenderXY:
    def test_well_formed_with_gap_count(self):
        for t, crossings in [((3, 4, 5), 3), ((4, 5, 7), 6), ((5, 7, 9), 12)]:
            svg = render_xy(HarmonicTriple(*t))
            pieces = polylines(svg)
            assert len(pieces) == crossings + 1, t

    def test_deterministic(self):
        K = HarmonicTriple(3, 5, 7)
        assert render_xy(K) == render_xy(K)

    def test_annotations_toggle(self):
        K = HarmonicTriple(3, 4, 5)
        root = ET.fromstring(render_xy(K, RenderOptions(annotate_signs=True)))
        assert len(root.findall(f"{SVG}text")) == 3
        root = ET.fromstring(render_xy(K))
        assert not root.findall(f"{SVG}text")


class TestBilliard:
    def test_slopes_are_unit(self):
        for t in [(3, 5, 7), (3, 4, 5), (5, 6, 7), (4, 7, 9)]:
            points = billiard_polyline(HarmonicTriple(*t))
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                assert abs(x1 - x0) == abs(y1 - y0) != 0, t

    def test_vertices_on_rectangle_walls(self):
        for t in [(3, 5, 7), (5, 6, 7), (4, 7, 9)]:
            K = HarmonicTriple(*t)
            points = billiard_polyline(K)
            assert points[0] in [(-K.b, -K.a), (-K.b, K.a), (K.b, -K.a), (K.b, K.a)]
            for x, y in points[1:-1]:
                assert abs(x) == K.b or abs(y) == K.a, t
            assert max(abs(x) for x, _ in points) == K.b
            assert max(abs(y) for _, y in points) == K.a

    def test_rectangle_dimensions(self):
        # Degrees (3, 5): trajectory spans a 10 x 6 rectangle.
        K = HarmonicTriple(3, 5, 7)
        points = billiard_polyline(K)
        assert max(x for x, _ in points) - min(x for x, _ in points) == 10
        assert max(y for _, y in points) - min(y for _, y in points) == 6

    def test_crossings_marked(self):
        for t, crossings in [((3, 4, 5), 3), ((3, 5, 7), 4), ((5, 7, 9), 12)]:
            svg = render_billiard(HarmonicTriple(*t))
            root = ET.fromstring(svg)
            assert len(root.findall(f"{SVG}circle")) == crossings, t

    def test_gap_pieces(self):
        K = HarmonicTriple(3, 4, 5)
        svg = render_billiard(K)
        assert len(polylines(svg)) == K.crossing_count + 1

    def test_crossing_points_inside_rectangle(self):
        K = HarmonicTriple(4, 5, 7)
        from harmonicknots.chebgeom import enumerate_crossings
        for c in enumerate_crossings(K):
            x, y = billiard_point(K, c.t_num)
            xs, ys = billiard_point(K, c.s_num)
            assert (x, y) == (xs, ys)  # both passages map to one point
            assert abs(x) < K.b and abs(y) < K.a

    def test_deterministic(self):
        K = HarmonicTriple(3, 5, 7)
        assert render_billiard(K) == render_billiard(K)
