"""SVG drawings: the xy plane diagram and the billiard representation.

The xy diagram samples the curve at u = i * step, step = 1 / (SAMPLES - 1),
the last sample at exactly 1.0.  The under-passage at u0 hides sample i
iff abs(u - u0) <= half, a window that stays clear of every other passage.
Since u rises with i, each under-passage hides one run of indices, found
by that float test at the run's two ends; the drawing is the visible runs
of two or more samples.  A plotted coordinate depends only on its own
axis's degree, so ``_column`` formats the x column (degree a) and the
y column (degree b) once per degree and sign, as ASCII bytes in
fixed-width fields.  The cache holds at most 32 columns of about 22 KB
each, and c never enters its key.  Each drawing interleaves its two
columns into one buffer of records ``x,y;`` by strided byte copies, and
a piece is one slice of that buffer with the padding deleted, so no
Python code runs per sample.  Every number is printed as ``_fmt`` prints
it (four decimals, trailing zeros and a bare point dropped), and the
tests pin the output byte for byte.

The billiard picture applies F(x) = (2/pi)*arccos(x) - 1, the affine map
in arccos taking [-1, 1] onto [-1, 1]; under (x, y) -> (b F(x), a F(y))
the curve becomes a billiard trajectory in the rectangle
(-b, b) x (-a, a) whose segments all have slope exactly +1 or -1, with
vertices on the integer lattice.  The curve point of parameter
t = cos(m pi / ab) maps to the lattice point (2 fold(m, b) - b,
2 fold(m, a) - a), so vertices and crossing positions are integers, and the
under-strand gaps end at half-integers, exact as floats.  All of this
depends on (a, b) alone, so ``_billiard_frame`` formats every coordinate
at half-lattice steps once per (a, b), in a cache bounded to 32 frames,
and a drawing joins strings from its tables.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from math import cos, pi

from .chebgeom import Crossing, HarmonicTriple, enumerate_crossings
from .exact import fold

WIDTH = 520
STROKE = 2.2
SAMPLES = 2400
MARGIN = 0.10
_COL = 9  # field width of a column entry; no coordinate needs more than 8


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


def _polyline_element(points: str) -> str:
    return (f'<polyline fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_fmt(STROKE)}" stroke-linecap="round" '
            f'points="{points}"/>')


# ---------------------------------------------------------------------------
# The xy diagram

_SCALE = WIDTH / (2 + 2 * MARGIN)
_OFF = (1 + MARGIN) * _SCALE
_REC = 2 * _COL + 2  # one interleaved sample: x "," y ";"
# Record ends become the spaces between points; ``translate``'s delete
# argument drops the padding.
_UNPAD = bytes.maketrans(b";", b" ")


@functools.lru_cache(maxsize=32)
def _column(n: int, sign: int) -> bytes:
    """``_fmt(_OFF + sign * _SCALE * cos(n u pi))`` for every sample u, in
    fields of ``_COL`` bytes, so samples [lo, hi) are
    ``col[_COL * lo:_COL * hi].split()``.
    """
    last = SAMPLES - 1
    step = 1 / last
    us = [i * step for i in range(last)]
    us.append(1.0)
    off, s = _OFF, sign * _SCALE
    # Every field starts with a space, so a space ends each number.  Four
    # passes blank its trailing zeros one at a time and a fifth a bare
    # point: ``_fmt``'s rule, keeping the field width.
    col = ((b"%%%d.4f" % _COL) * SAMPLES + b" ") % tuple(
        [off + s * cos(n * u * pi) for u in us])
    for _ in range(4):
        col = col.replace(b"0 ", b"  ")
    return col.replace(b". ", b"  ")[:-1]


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

    a, b = K.a, K.b
    buf = bytearray(_REC * SAMPLES)
    for col, at in ((_column(a, 1), 0), (_column(b, -1), _COL + 1)):
        for p in range(_COL):
            buf[at + p::_REC] = col[p::_COL]
    buf[_COL::_REC] = b"," * SAMPLES
    buf[_REC - 1::_REC] = b";" * SAMPLES
    body = [_polyline_element(
        buf[_REC * lo:_REC * hi - 1].translate(_UNPAD, b" ").decode())
        for lo, hi in runs if hi - lo > 1]
    if opt.annotate_signs:
        for c in crossings:
            x = cos(pi * (fold(c.t_num, b) / b))
            y = cos(pi * (fold(c.t_num, a) / a))
            px, py = _OFF + _SCALE * x, _OFF - _SCALE * y
            body.append(
                f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" '
                f'font-size="{_fmt(_SCALE * 0.05)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, WIDTH, body)


# ---------------------------------------------------------------------------
# The billiard representation


def billiard_point(K: HarmonicTriple, m: int) -> tuple[int, int]:
    """Lattice point of the curve point of parameter t = cos(m pi / ab)
    in billiard coordinates."""
    return 2 * fold(m, K.b) - K.b, 2 * fold(m, K.a) - K.a


@dataclass(frozen=True)
class _Frame:
    """The part of a billiard drawing that depends on (a, b) alone.

    Coordinates are doubled and shifted to indices: i stands for the
    abscissa i/2 - b and j for the ordinate j/2 - a, so lattice points
    and the midpoints between them are integer indices.  ``xs[i]`` and
    ``ys[j]`` are the pixel coordinates, ``xt``/``yt`` their ``_fmt``
    text, ``grid[m]`` the index pair of ``billiard_point(K, m)`` and
    ``points[m]`` its "x,y" text.
    """

    height: int
    scale: float
    rect: str
    grid: tuple[tuple[int, int], ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    xt: tuple[str, ...]
    yt: tuple[str, ...]
    points: tuple[str, ...]


@functools.lru_cache(maxsize=32)
def _billiard_frame(a: int, b: int) -> _Frame:
    pad = 1 + 2 * MARGIN
    scale = WIDTH / (2 * b * pad)
    height = int(round(2 * a * pad * scale))
    offx = WIDTH / 2
    offy = height / 2
    rect = (f'<rect x="{_fmt(offx - scale * b)}" '
            f'y="{_fmt(offy - scale * a)}" '
            f'width="{_fmt(2 * scale * b)}" height="{_fmt(2 * scale * a)}" '
            f'fill="none" stroke="#999" stroke-width="1"/>')
    # i / 2 - b is exact, so each pixel coordinate is the float that the
    # lattice point or the half-integer midpoint itself would give.
    xs = tuple(offx + scale * (i / 2 - b) for i in range(4 * b + 1))
    ys = tuple(offy - scale * (j / 2 - a) for j in range(4 * a + 1))
    xt = tuple(map(_fmt, xs))
    yt = tuple(map(_fmt, ys))
    K = HarmonicTriple(a, b, 1)  # billiard_point reads only a and b
    grid = tuple((2 * (x + b), 2 * (y + a))
                 for x, y in (billiard_point(K, m) for m in range(a * b + 1)))
    points = tuple(f"{xt[i]},{yt[j]}" for i, j in grid)
    return _Frame(height, scale, rect, grid, xs, ys, xt, yt, points)


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
    if crossings is None:
        crossings = enumerate_crossings(K)
    frame = _billiard_frame(K.a, K.b)
    grid, xt, yt = frame.grid, frame.xt, frame.yt

    def midpoint(m: int, n: int) -> str:
        (i0, j0), (i1, j1) = grid[m], grid[n]
        return f"{xt[(i0 + i1) // 2]},{yt[(j0 + j1) // 2]}"

    # The window edges are the midpoints of the two segments adjacent to
    # an under-passage, half a lattice step from it.
    body = [frame.rect]
    head: list[str] = []
    start = 0
    for m in sorted({c.s_num if c.over_at_t else c.t_num for c in crossings}):
        body.append(_polyline_element(" ".join(
            [*head, *frame.points[start:m], midpoint(m, m - 1)])))
        head, start = [midpoint(m, m + 1)], m + 1
    body.append(_polyline_element(" ".join(
        [*head, *frame.points[start:]])))
    for c in crossings:
        i, j = grid[c.t_num]
        body.append(f'<circle cx="{xt[i]}" cy="{yt[j]}" '
                    f'r="{_fmt(STROKE)}" fill="#c22"/>')
        if opt.annotate_signs:
            body.append(
                f'<text x="{_fmt(frame.xs[i] + 4)}" '
                f'y="{_fmt(frame.ys[j] - 4)}" '
                f'font-size="{_fmt(frame.scale * 0.6)}">'
                f'{"+" if c.sign > 0 else chr(0x2212)}</text>')
    return _svg_document(WIDTH, frame.height, body)
