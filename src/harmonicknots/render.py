"""SVG drawings: the xy plane diagram and the billiard representation.

A drawing of H(a, b, c) depends on c only through each crossing's
over/under choice and sign, so ``_frame`` builds the rest of both
drawings once per (a, b), in one pass over the crossing frame, and keeps
it in a cache bounded to 32 pairs: the text of the xy samples and of the
billiard lattice path, each passage's hidden xy run and billiard gap
ends, and each crossing's tags.  A drawing sorts its N under-passages
and slices that text between them, so it runs no Python code per sample
or vertex.  A frame takes 46 to 56 KB for a <= 5 and N <= 16, 41 KB of
it the xy text.  ``chebgeom._frame`` stays a cache of its own: ``table``
sweeps 58 pairs and draws none, a drawing frame is about eight times the
6 KB of a geometry frame, and the geometry knows nothing of drawings.

The frame holds ASCII bytes, a drawing is one ``bytes.join`` over
slices of that text and a few fixed tags, and the one non-ASCII
character, the U+2212 of a negative sign label, comes from a two-entry
table already encoded.  ``render_xy`` returns the document as UTF-8
``bytes``, which the CLI writes as they are: one U+2212 would widen its
34 KB of point text to a 2-byte ``str``, which takes about 45 us to
encode back.  ``render_billiard`` still returns ``str``, as its callers
read it as text; its document is a few KB (3.6 KB for H(5,7,9)), and
decoding it takes about 1 us.

The xy diagram samples the curve at u = i * step, step = 1 / (SAMPLES - 1),
the last sample at exactly 1.0.  The under-passage at u0 hides sample i
iff abs(u - u0) <= half, a window that stays clear of every other passage.
Since u - u0 never decreases as u rises, each under-passage hides one run
of indices, whose ends the frame finds by bisection on the two halves of
that float test; the drawing is the visible runs of two or more samples.
The frame prints each sample's "x,y" with ``_fmt`` (four decimals,
trailing zeros and a bare point dropped), as it prints the billiard
lattice points, and the tests pin the output byte for byte.

The billiard picture applies F(x) = (2/pi)*arccos(x) - 1, the affine map
in arccos taking [-1, 1] onto [-1, 1]; under (x, y) -> (b F(x), a F(y))
the curve becomes a billiard trajectory in the rectangle
(-b, b) x (-a, a) whose segments all have slope exactly +1 or -1, with
vertices on the integer lattice.  The curve point of parameter
t = cos(m pi / ab) maps to the lattice point (2 fold(m, b) - b,
2 fold(m, a) - a).  Consecutive points differ by 2 in each coordinate,
so vertices, crossing positions and the midpoints where the under-strand
gaps end all have integer coordinates, and the frame formats each once.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Sequence
from math import cos, pi
from typing import NamedTuple

from .chebgeom import (Crossing, HarmonicTriple, _frame as _crossing_frame,
                       enumerate_crossings)
from .exact import fold

WIDTH = 520
STROKE = 2.2
SAMPLES = 2400
MARGIN = 0.10


class RenderOptions(NamedTuple):
    """``annotate_signs`` writes each crossing's twist sign next to it."""

    annotate_signs: bool = False


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


_STROKE_WIDTH = _fmt(STROKE)

# The fixed parts of a document.  Every element starts on a new line, so
# each tag that opens an element starts with "\n".
_POLY_OPEN = (f'\n<polyline fill="none" stroke="#1a1a1a" '
              f'stroke-width="{_STROKE_WIDTH}" stroke-linecap="round" '
              f'points="').encode()
_POLY_CLOSE = b'"/>'
_LABEL_CLOSE = b"</text>"
_END = b"\n</svg>\n"
_GLYPH = {1: b"+", -1: "\u2212".encode()}


def _svg_head(width: int, height: int) -> bytes:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">').encode()


def _per_crossing(table: dict[int, tuple], K: HarmonicTriple,
                  crossings: Sequence[Crossing]) -> list[tuple]:
    """``table[c.t_num]`` for each crossing c, in order.  A frame keys its
    crossings by t_num, and each entry starts with the s_num of that
    double point, so a crossing of another (a, b) or with a wrong s_num
    raises ``ValueError``."""
    entries = []
    for c in crossings:
        entry = table.get(c.t_num)
        if entry is None or entry[0] != c.s_num:
            raise ValueError(f"{c} is not a crossing of H{(K.a, K.b, K.c)}")
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# The frame

_SCALE = WIDTH / (2 + 2 * MARGIN)
_OFF = (1 + MARGIN) * _SCALE
_XY_HEAD = _svg_head(WIDTH, WIDTH)


def _joined(points: list[str]) -> tuple[bytes, memoryview]:
    """The ASCII text of ``points``, joined, and the offset where each
    point starts, followed by the text's length, four bytes each."""
    starts = memoryview(bytearray(4 * (len(points) + 1))).cast("I")
    for i, point in enumerate(points):
        starts[i + 1] = starts[i] + len(point)
    return "".join(points).encode(), starts


def billiard_point(K: HarmonicTriple, m: int) -> tuple[int, int]:
    """Lattice point of the curve point of parameter t = cos(m pi / ab)
    in billiard coordinates."""
    return 2 * fold(m, K.b) - K.b, 2 * fold(m, K.a) - K.a


class _Frame(NamedTuple):
    """The part of both drawings that depends on (a, b) alone, in ASCII
    bytes.

    ``text`` is every xy sample's "x,y", each followed by a space.  For
    each of the 2N passage numerators m, ``runs[4 * m:4 * m + 4]`` holds
    the run [lo, hi) of samples that an under-passage at u = m / ab hides
    and the offsets in ``text`` where samples lo and hi start; two bytes
    per number, since ``text`` has fewer than 2^16 bytes.

    ``head`` is the billiard's ``<svg>`` tag and rectangle.  ``lattice``
    is the pixel text of ``billiard_point(K, m)`` for m = 0, ..., ab, each
    followed by a space, and point m starts at ``lattice[starts[m]]``;
    four bytes per offset, since the text of a wide (a, b) can pass 2^16
    bytes.  ``gaps[m]`` is the text of the two lattice midpoints where an
    under-passage at m cuts the trajectory: the end of the piece before it
    and the start of the piece after it.

    ``marks[t_num]`` is (s_num, the xy label tag, the billiard
    ``<circle>``, the billiard label tag) of the crossing at t_num.
    """

    text: bytes
    runs: memoryview
    head: bytes
    lattice: bytes
    starts: memoryview
    gaps: dict[int, tuple[bytes, bytes]]
    marks: dict[int, tuple[int, bytes, bytes, bytes]]


@functools.lru_cache(maxsize=32)
def _frame(a: int, b: int) -> _Frame:
    last = SAMPLES - 1
    step = 1 / last
    us = [i * step for i in range(last)]
    us.append(1.0)  # the last sample, exactly
    text, sample_at = _joined([
        f"{_fmt(_OFF + _SCALE * cos(a * u * pi))},"
        f"{_fmt(_OFF - _SCALE * cos(b * u * pi))} " for u in us])

    pad = 1 + 2 * MARGIN
    scale = WIDTH / (2 * b * pad)
    height = int(round(2 * a * pad * scale))
    offx = WIDTH / 2
    offy = height / 2
    rect = (f'\n<rect x="{_fmt(offx - scale * b)}" '
            f'y="{_fmt(offy - scale * a)}" '
            f'width="{_fmt(2 * scale * b)}" height="{_fmt(2 * scale * a)}" '
            f'fill="none" stroke="#999" stroke-width="1"/>').encode()
    # Every billiard point drawn has integer coordinates (module
    # docstring), so these are all the pixel coordinates a drawing needs.
    xs = [offx + scale * x for x in range(-b, b + 1)]
    ys = [offy - scale * y for y in range(-a, a + 1)]
    xt = tuple(map(_fmt, xs))
    yt = tuple(map(_fmt, ys))
    K = HarmonicTriple(a, b, 1)  # billiard_point reads only a and b
    lattice = [billiard_point(K, m) for m in range(a * b + 1)]
    points, starts = _joined([f"{xt[x + b]},{yt[y + a]} "
                              for x, y in lattice])

    # Each passage's hidden xy run [lo, hi) (module docstring): the first
    # sample inside the window and the first past it.  The window
    # half-width stays clear of neighbouring passages.
    ab = a * b
    crossings = [over for over, _ in _crossing_frame(a, b)]
    nums = sorted({c.t_num for c in crossings} | {c.s_num for c in crossings})
    min_sep = min((n - m for m, n in zip(nums, nums[1:])), default=ab) / ab
    half = min(0.012, 0.35 * min_sep)

    def midpoint(m: int, n: int) -> str:
        # Of the lattice points m and n: abscissa fold(m, b) + fold(n, b) - b.
        return f"{xt[fold(m, b) + fold(n, b)]},{yt[fold(m, a) + fold(n, a)]}"

    runs = memoryview(bytearray(8 * ab)).cast("H")
    gaps = {}
    marks = {}
    for c in crossings:
        for m in (c.t_num, c.s_num):
            u0 = m / ab
            lo = bisect_left(us, True, key=lambda u: u - u0 >= -half)
            hi = bisect_left(us, True, lo, key=lambda u: u - u0 > half)
            runs[4 * m], runs[4 * m + 1] = lo, hi
            runs[4 * m + 2], runs[4 * m + 3] = sample_at[lo], sample_at[hi]
            gaps[m] = (midpoint(m, m - 1).encode(),
                       f"{midpoint(m, m + 1)} ".encode())
        px = _OFF + _SCALE * cos(pi * (fold(c.t_num, b) / b))
        py = _OFF - _SCALE * cos(pi * (fold(c.t_num, a) / a))
        x, y = lattice[c.t_num]
        marks[c.t_num] = (
            c.s_num,
            f'\n<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" '
            f'font-size="{_fmt(_SCALE * 0.05)}">'.encode(),
            f'\n<circle cx="{xt[x + b]}" cy="{yt[y + a]}" '
            f'r="{_STROKE_WIDTH}" fill="#c22"/>'.encode(),
            f'\n<text x="{_fmt(xs[x + b] + 4)}" y="{_fmt(ys[y + a] - 4)}" '
            f'font-size="{_fmt(scale * 0.6)}">'.encode())
    return _Frame(text, runs, _svg_head(WIDTH, height) + rect,
                  points, starts, gaps, marks)


# ---------------------------------------------------------------------------
# The drawings


def render_xy(K: HarmonicTriple, options: RenderOptions | None = None,
              crossings: Sequence[Crossing] | None = None) -> bytes:
    """Plane diagram with the under-strand broken at every crossing, as
    the UTF-8 bytes of an SVG document.

    The curve is sampled as (cos(a u), cos(b u)) for u in [0, pi]; each
    under-passage removes a parameter window around its crossing, so the
    drawing consists of crossing_count + 1 polyline pieces.  ``crossings``
    is ``enumerate_crossings(K)``, computed here when not given; a list
    that is not K's raises ``ValueError``.
    """
    opt = options or RenderOptions()
    if crossings is None:
        crossings = enumerate_crossings(K)
    frame = _frame(K.a, K.b)
    marks = _per_crossing(frame.marks, K, crossings)
    view, runs = memoryview(frame.text), frame.runs
    parts = [_XY_HEAD]
    # The visible piece [start, lo) ends at each hidden run [lo, hi); a
    # piece of one sample is not drawn.  Each piece's text ends with a
    # space, which the slice leaves out.
    start = start_at = 0
    for m in sorted([c.s_num if c.over_at_t else c.t_num for c in crossings]):
        lo, hi, lo_at, hi_at = runs[4 * m:4 * m + 4]
        if lo < hi:
            if lo - start > 1:
                parts += (_POLY_OPEN, view[start_at:lo_at - 1], _POLY_CLOSE)
            start, start_at = hi, hi_at
    if SAMPLES - start > 1:
        parts += (_POLY_OPEN, view[start_at:-1], _POLY_CLOSE)
    if opt.annotate_signs:
        for c, (_, tag, _, _) in zip(crossings, marks):
            parts += (tag, _GLYPH[c.sign], _LABEL_CLOSE)
    parts.append(_END)
    return b"".join(parts)



def render_billiard(K: HarmonicTriple,
                    options: RenderOptions | None = None,
                    crossings: Sequence[Crossing] | None = None) -> str:
    """Billiard trajectory in the (-b, b) x (-a, a) rectangle, as the
    text of an SVG document.

    The under-strand is broken by removing half a lattice step of the
    trajectory on each side of every under-passage; crossings are marked
    with dots (and signs, if requested).  ``crossings`` is
    ``enumerate_crossings(K)``, computed here when not given; a list that
    is not K's raises ``ValueError``.
    """
    opt = options or RenderOptions()
    if crossings is None:
        crossings = enumerate_crossings(K)
    frame = _frame(K.a, K.b)
    marks = _per_crossing(frame.marks, K, crossings)
    text, starts, gaps = memoryview(frame.lattice), frame.starts, frame.gaps
    # The window edges are the midpoints of the two segments adjacent to
    # an under-passage, half a lattice step from it.  A piece holds the
    # points between two under-passages, each followed by a space.
    parts = [frame.head, _POLY_OPEN]
    start = 0
    for m in sorted({c.s_num if c.over_at_t else c.t_num for c in crossings}):
        end, restart = gaps[m]
        parts += (text[starts[start]:starts[m]], end, _POLY_CLOSE,
                  _POLY_OPEN, restart)
        start = m + 1
    parts += (text[starts[start]:-1], _POLY_CLOSE)
    for c, (_, _, circle, tag) in zip(crossings, marks):
        parts.append(circle)
        if opt.annotate_signs:
            parts += (tag, _GLYPH[c.sign], _LABEL_CLOSE)
    parts.append(_END)
    return b"".join(parts).decode()
