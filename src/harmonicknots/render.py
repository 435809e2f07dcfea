"""SVG drawings: the xy plane diagram and the billiard representation.

The billiard picture applies F(x) = (2/pi)*arccos(x) - 1, the affine map
in arccos taking [-1, 1] onto [-1, 1]; under (x, y) -> (b F(x), a F(y))
the curve becomes a billiard trajectory in the rectangle
(-b, b) x (-a, a) whose segments all have slope exactly +1 or -1, with
vertices on the integer lattice.  Vertices and crossing positions are
computed in exact rational arithmetic and only converted to floats when
written out.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import cos, pi

from .chebgeom import Crossing, HarmonicTriple, enumerate_crossings
from .exact import RationalAngle, fold

WIDTH = 520
STROKE = 2.2
SAMPLES = 2400
MARGIN = 0.10
# Half of the under-strand gap in the billiard picture, in lattice steps.
BILLIARD_CUT = Fraction(1, 2)


@dataclass(frozen=True)
class RenderOptions:
    """``annotate_signs`` writes each crossing's twist sign next to it."""

    annotate_signs: bool = False


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _polyline(points: list[tuple[float, float]]) -> str:
    text = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<polyline fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(STROKE)}" stroke-linecap="round" '
            f'points="{text}"/>')


# ---------------------------------------------------------------------------
# The xy diagram


def render_xy(K: HarmonicTriple, options: RenderOptions | None = None,
              crossings: Sequence[Crossing] | None = None) -> str:
    """Plane diagram with the under-strand broken at every crossing.

    The curve is sampled as (cos(a u), cos(b u)) for u in [0, pi]; each
    under-passage removes a parameter window around its crossing, so the
    drawing consists of crossing_count + 1 polyline pieces.  ``crossings``
    is ``enumerate_crossings(K)``, computed here when not given.
    """
    opt = options or RenderOptions()
    if crossings is None:
        crossings = enumerate_crossings(K)
    unders = sorted(
        float((c.s_angle if c.over_at_t else c.t_angle).folded())
        for c in crossings)
    # Window half-width: stay clear of neighbouring passages.
    angles = sorted({c.t_angle.folded() for c in crossings}
                    | {c.s_angle.folded() for c in crossings})
    min_sep = min((float(b - a) for a, b in zip(angles, angles[1:])),
                  default=1.0)
    half = min(0.012, 0.35 * min_sep)

    scale = WIDTH / (2 + 2 * MARGIN)
    off = (1 + MARGIN) * scale

    def to_px(x: float, y: float) -> tuple[float, float]:
        return off + scale * x, off - scale * y

    # One sweep: the parameters u rise, so an under-passage left more than
    # half behind stays behind, and only the next one can hide u.
    pieces: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
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

    body = [_polyline(p) for p in pieces if len(p) > 1]
    if opt.annotate_signs:
        for c in crossings:
            x = cos(pi * float(RationalAngle(
                c.t_angle.p * K.a, c.t_angle.q).folded()))
            y = cos(pi * float(RationalAngle(
                c.t_angle.p * K.b, c.t_angle.q).folded()))
            px, py = to_px(x, y)
            body.append(
                f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" '
                f'font-size="{_fmt(scale * 0.05)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, WIDTH, body)


# ---------------------------------------------------------------------------
# The billiard representation


def billiard_point(K: HarmonicTriple, v: Fraction) -> tuple[Fraction, Fraction]:
    """Image of the curve point of parameter t = cos(v pi) in billiard
    coordinates; exact."""
    return (K.b * (2 * fold(K.a * v) - 1),
            K.a * (2 * fold(K.b * v) - 1))


def billiard_polyline(K: HarmonicTriple) -> list[tuple[int, int]]:
    """Trajectory vertices (reflection points and endpoints), in order.

    Vertices sit where the parameter v passes a multiple of 1/a or 1/b;
    all coordinates are integers and consecutive differences have
    |dx| = |dy|, i.e. slope exactly +-1.
    """
    ab = K.a * K.b
    breaks = sorted({0, ab} | {m for m in range(1, ab)
                               if m % K.a == 0 or m % K.b == 0})
    points = []
    for m in breaks:
        x, y = billiard_point(K, Fraction(m, ab))
        points.append((int(x), int(y)))
    return points


def render_billiard(K: HarmonicTriple,
                    options: RenderOptions | None = None,
                    crossings: Sequence[Crossing] | None = None) -> str:
    """Billiard trajectory in the (-b, b) x (-a, a) rectangle.

    The under-strand is broken by removing half a lattice step of the
    trajectory on each side of every under-passage; crossings are marked
    with dots (and signs, if requested).  ``crossings`` is
    ``enumerate_crossings(K)``, computed here when not given.
    """
    opt = options or RenderOptions()
    a, b = K.a, K.b
    ab = a * b
    if crossings is None:
        crossings = enumerate_crossings(K)
    under_ms = []
    marks = []
    for c in crossings:
        under = c.s_angle if c.over_at_t else c.t_angle
        under_ms.append(int(under.folded() * ab))
        marks.append((billiard_point(K, c.t_angle.folded()), c.sign))

    cut = set(under_ms)
    grid = [(Fraction(m), billiard_point(K, Fraction(m, ab)))
            for m in range(ab + 1)]

    pieces: list[list[tuple[Fraction, Fraction]]] = [[]]
    for i, (m, pt) in enumerate(grid):
        if int(m) not in cut:
            pieces[-1].append(pt)
            continue
        # Interpolate the window edges inside the two adjacent segments.
        before = billiard_point(K, Fraction(int(m) - 1, ab))
        after = billiard_point(K, Fraction(int(m) + 1, ab))
        left = (pt[0] + (before[0] - pt[0]) * BILLIARD_CUT,
                pt[1] + (before[1] - pt[1]) * BILLIARD_CUT)
        right = (pt[0] + (after[0] - pt[0]) * BILLIARD_CUT,
                 pt[1] + (after[1] - pt[1]) * BILLIARD_CUT)
        pieces[-1].append(left)
        pieces.append([right])

    pad = 1 + 2 * MARGIN
    scale = WIDTH / (2 * b * pad)
    height = int(round(2 * a * pad * scale))
    offx = WIDTH / 2
    offy = height / 2

    def to_px(p: tuple[Fraction, Fraction]) -> tuple[float, float]:
        return offx + scale * float(p[0]), offy - scale * float(p[1])

    body = [
        f'<rect x="{_fmt(offx - scale * b)}" y="{_fmt(offy - scale * a)}" '
        f'width="{_fmt(2 * scale * b)}" height="{_fmt(2 * scale * a)}" '
        f'fill="none" stroke="#999" stroke-width="1"/>'
    ]
    body += [_polyline([to_px(p) for p in piece])
             for piece in pieces if len(piece) > 1]
    for (pt, sign) in marks:
        px, py = to_px(pt)
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                    f'r="{_fmt(STROKE)}" fill="#c22"/>')
        if opt.annotate_signs:
            body.append(
                f'<text x="{_fmt(px + 4)}" y="{_fmt(py - 4)}" '
                f'font-size="{_fmt(scale * 0.6)}">'
                f'{"+" if sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, height, body)
