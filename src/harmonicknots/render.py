"""SVG drawings: the xy plane diagram and the billiard representation.

The xy diagram samples the curve at u = i * step, step = 1 / (SAMPLES - 1),
the last sample at exactly 1.0.  The under-passage at u0 hides sample i
iff abs(u - u0) <= half, a window that stays clear of every other passage.
Since u rises with i, each under-passage hides one run of indices, found
by that float test at the run's two ends; the drawing is the visible runs
of two or more samples, each sampled and formatted as one piece.  Every
number is printed as ``_fmt`` prints it (four decimals, trailing zeros
and a bare point dropped), and the tests pin the output byte for byte.

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


def _polyline(coords: list[float]) -> str:
    """Polyline through (coords[0], coords[1]), (coords[2], coords[3]), ...

    One ``%`` formats the whole piece to four decimals, each number
    followed by "," or " ".  A number ending in 0 then ends a chunk of the
    split on "0," (or "0 "), and ``_fmt``'s rule trims that chunk.
    """
    text = ("%.4f,%.4f " * (len(coords) // 2)) % tuple(coords)
    for sep in (",", " "):
        text = sep.join([chunk.rstrip("0").rstrip(".")
                         for chunk in text.split("0" + sep)])
    return (f'<polyline fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(STROKE)}" stroke-linecap="round" '
            f'points="{text[:-1]}"/>')


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

    # The hidden run [lo, hi) of each under-passage (module docstring):
    # abs(u - u0) <= half split into its two signed halves, each end
    # walked from a guess at most a step or two away.
    last = SAMPLES - 1
    step = 1 / last

    def u_at(i: int) -> float:
        return i * step if i < last else 1.0

    runs: list[tuple[int, int]] = []
    start = 0
    for u0 in unders:
        lo = max(int((u0 - half) * last), 0)
        while lo > 0 and u_at(lo - 1) - u0 >= -half:
            lo -= 1
        while lo < SAMPLES and u_at(lo) - u0 < -half:
            lo += 1
        hi = max(int((u0 + half) * last), lo)
        while hi > lo and u_at(hi - 1) - u0 > half:
            hi -= 1
        while hi < SAMPLES and u_at(hi) - u0 <= half:
            hi += 1
        if lo < hi:
            runs.append((start, lo))
            start = hi
    runs.append((start, SAMPLES))

    scale = WIDTH / (2 + 2 * MARGIN)
    off = (1 + MARGIN) * scale
    a, b = K.a, K.b
    body = []
    for lo, hi in runs:
        if hi - lo < 2:
            continue
        us = [i * step for i in range(lo, min(hi, last))]
        if hi == SAMPLES:
            us.append(1.0)
        coords = [0.0] * (2 * len(us))
        coords[::2] = [off + scale * cos(a * u * pi) for u in us]
        coords[1::2] = [off - scale * cos(b * u * pi) for u in us]
        body.append(_polyline(coords))
    if opt.annotate_signs:
        for c in crossings:
            x = cos(pi * (fold(c.t_num, b) / b))
            y = cos(pi * (fold(c.t_num, a) / a))
            px, py = off + scale * x, off - scale * y
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
    body += [_polyline([v for p in piece for v in to_px(p)])
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
