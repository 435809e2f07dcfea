"""SVG drawings: the xy plane diagram and the billiard representation.

The billiard picture applies F(x) = (2/pi)*arccos(x) - 1, the affine map
in arccos taking [-1, 1] onto [-1, 1]; under (x, y) -> (b F(x), a F(y))
the curve becomes a billiard trajectory in the rectangle
(-b, b) x (-a, a) whose segments all have slope exactly +1 or -1, with
vertices on the integer lattice.  The curve point of parameter
t = cos(m pi / ab) maps to the lattice point (2 fold(m, b) - b,
2 fold(m, a) - a), so vertices and crossing positions are integers, and the
under-strand gaps end at half-integers, exact as floats.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import cos, pi

from .chebgeom import Crossing, HarmonicTriple, enumerate_crossings
from .exact import fold

WIDTH = 520
STROKE = 2.2
SAMPLES = 2400
MARGIN = 0.10


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
    ab = K.a * K.b
    unders = sorted((c.s_num if c.over_at_t else c.t_num) / ab
                    for c in crossings)
    # Window half-width: stay clear of neighbouring passages.
    nums = sorted({c.t_num for c in crossings} | {c.s_num for c in crossings})
    min_sep = min((n - m for m, n in zip(nums, nums[1:])), default=ab) / ab
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
            x = cos(pi * (fold(c.t_num, K.b) / K.b))
            y = cos(pi * (fold(c.t_num, K.a) / K.a))
            px, py = to_px(x, y)
            body.append(
                f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" '
                f'font-size="{_fmt(scale * 0.05)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, WIDTH, body)


# ---------------------------------------------------------------------------
# The billiard representation


def billiard_point(K: HarmonicTriple, m: int) -> tuple[int, int]:
    """Lattice point of the curve point of parameter t = cos(m pi / ab)
    in billiard coordinates."""
    return 2 * fold(m, K.b) - K.b, 2 * fold(m, K.a) - K.a


def billiard_polyline(K: HarmonicTriple) -> list[tuple[int, int]]:
    """Trajectory vertices (reflection points and endpoints), in order.

    Vertices sit at the parameters cos(m pi / ab) with m a multiple of a
    or b; all coordinates are integers and consecutive differences have
    |dx| = |dy|, i.e. slope exactly +-1.
    """
    ab = K.a * K.b
    return [billiard_point(K, m) for m in range(ab + 1)
            if m % K.a == 0 or m % K.b == 0]


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
    cut = {c.s_num if c.over_at_t else c.t_num for c in crossings}
    grid = [billiard_point(K, m) for m in range(ab + 1)]

    pieces: list[list[tuple[float, float]]] = [[]]
    for m, pt in enumerate(grid):
        if m not in cut:
            pieces[-1].append(pt)
            continue
        # The window edges are the midpoints of the two adjacent segments,
        # half a lattice step from the under-passage.
        before, after = grid[m - 1], grid[m + 1]
        pieces[-1].append(((pt[0] + before[0]) / 2, (pt[1] + before[1]) / 2))
        pieces.append([((pt[0] + after[0]) / 2, (pt[1] + after[1]) / 2)])

    pad = 1 + 2 * MARGIN
    scale = WIDTH / (2 * b * pad)
    height = int(round(2 * a * pad * scale))
    offx = WIDTH / 2
    offy = height / 2

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        return offx + scale * p[0], offy - scale * p[1]

    body = [
        f'<rect x="{_fmt(offx - scale * b)}" y="{_fmt(offy - scale * a)}" '
        f'width="{_fmt(2 * scale * b)}" height="{_fmt(2 * scale * a)}" '
        f'fill="none" stroke="#999" stroke-width="1"/>'
    ]
    body += [_polyline([to_px(p) for p in piece])
             for piece in pieces if len(piece) > 1]
    for c in crossings:
        px, py = to_px(billiard_point(K, c.t_num))
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                    f'r="{_fmt(STROKE)}" fill="#c22"/>')
        if opt.annotate_signs:
            body.append(
                f'<text x="{_fmt(px + 4)}" y="{_fmt(py - 4)}" '
                f'font-size="{_fmt(scale * 0.6)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, height, body)
