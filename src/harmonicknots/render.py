"""SVG drawings: the xy plane diagram and the billiard representation.

The xy diagram samples the curve at u = i * step, step = 1 / (SAMPLES - 1),
the last sample at exactly 1.0.  The under-passage at u0 hides sample i
iff abs(u - u0) <= half, a window that stays clear of every other passage.
Since u rises with i, each under-passage hides one run of indices, found
by that float test at the run's two ends; the drawing is the visible runs
of two or more samples.  Only the under-passages and the signs depend on
c, so ``_xy_frame`` builds the rest once per (a, b): the text of every
sample's point, the hidden run of each of the 2N passages with its
offsets in that text, and the opening tag of each crossing's sign label.
It formats each axis as one column of fixed-width ASCII fields,
interleaves the two columns by strided byte copies and deletes the
padding.  A drawing sorts its N under-passages and slices the text
between their runs, so it runs no Python code per sample.  A frame takes
about 45 KB for a <= 5, 41 KB of it the text, and the cache holds at
most 32 frames.  Every number is printed as ``_fmt`` prints it (four
decimals, trailing zeros and a bare point dropped), and the tests pin
the output byte for byte.

The billiard picture applies F(x) = (2/pi)*arccos(x) - 1, the affine map
in arccos taking [-1, 1] onto [-1, 1]; under (x, y) -> (b F(x), a F(y))
the curve becomes a billiard trajectory in the rectangle
(-b, b) x (-a, a) whose segments all have slope exactly +1 or -1, with
vertices on the integer lattice.  The curve point of parameter
t = cos(m pi / ab) maps to the lattice point (2 fold(m, b) - b,
2 fold(m, a) - a).  Consecutive points differ by 2 in each coordinate,
so vertices, crossing positions and the midpoints where the under-strand
gaps end all have integer coordinates.  All of this depends on (a, b)
alone, so ``_billiard_frame`` formats every integer coordinate, each
lattice point and each crossing's dot and label position once per
(a, b), in a cache bounded to 32 frames, and a drawing joins strings
from its tables.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from math import cos, pi

from .chebgeom import (Crossing, HarmonicTriple, _frame as _crossing_frame,
                       enumerate_crossings)
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


_STROKE_WIDTH = _fmt(STROKE)


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _polyline_element(points: str) -> str:
    return (f'<polyline fill="none" stroke="#1a1a1a" '
            f'stroke-width="{_STROKE_WIDTH}" stroke-linecap="round" '
            f'points="{points}"/>')


def _sign_label(tag: str, sign: int) -> str:
    return f'{tag}{"+" if sign > 0 else chr(0x2212)}</text>'


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
# The xy diagram

_SCALE = WIDTH / (2 + 2 * MARGIN)
_OFF = (1 + MARGIN) * _SCALE
_REC = 2 * _COL + 2  # one interleaved sample: x "," y ";"
# Record ends become the spaces between points; ``translate``'s delete
# argument drops the padding.
_UNPAD = bytes.maketrans(b";", b" ")


def _column(n: int, sign: int) -> bytes:
    """``_fmt(_OFF + sign * _SCALE * cos(n u pi))`` for every sample u,
    in fields of ``_COL`` bytes."""
    last = SAMPLES - 1
    step = 1 / last
    off, s = _OFF, sign * _SCALE
    values = [off + s * cos(n * (i * step) * pi) for i in range(last)]
    values.append(off + s * cos(n * pi))  # the last sample, u = 1.0
    # Every field starts with a space, so a space ends each number.  Four
    # passes blank its trailing zeros one at a time and a fifth a bare
    # point: ``_fmt``'s rule, keeping the field width.
    col = ((b"%%%d.4f" % _COL) * SAMPLES + b" ") % tuple(values)
    for _ in range(4):
        col = col.replace(b"0 ", b"  ")
    return col.replace(b". ", b"  ")[:-1]


@functools.lru_cache(maxsize=32)
def _xy_frame(a: int, b: int) -> tuple[str, memoryview,
                                       dict[int, tuple[int, str]]]:
    """(text, runs, labels): the part of an xy drawing that depends on
    (a, b) alone.

    ``text`` is every sample's "x,y", each followed by a space.  For each
    of the 2N passage numerators m, ``runs[4 * m:4 * m + 4]`` holds the run
    [lo, hi) of samples that an under-passage at u = m / ab hides and the
    offsets in ``text`` where samples lo and hi start; two bytes per
    number, since ``text`` has fewer than 2^16 chars.  ``labels[t_num]`` is
    (s_num, the opening tag of the sign label) of the crossing at t_num.
    """
    buf = bytearray(_REC * SAMPLES)
    for col, at in ((_column(a, 1), 0), (_column(b, -1), _COL + 1)):
        for p in range(_COL):
            buf[at + p::_REC] = col[p::_COL]
    buf[_COL::_REC] = b"," * SAMPLES
    buf[_REC - 1::_REC] = b";" * SAMPLES
    text = buf.translate(_UNPAD, b" ").decode()
    starts = memoryview(bytearray(2 * (SAMPLES + 1))).cast("H")
    for i in range(SAMPLES):
        starts[i + 1] = text.index(" ", starts[i]) + 1

    # The hidden run of each passage (module docstring): abs(u - u0) <=
    # half split into its two signed halves, each end walked from a guess
    # at most a step or two away.  The window half-width stays clear of
    # neighbouring passages.
    last = SAMPLES - 1
    step = 1 / last
    ab = a * b
    crossings = [over for over, _ in _crossing_frame(a, b)]
    nums = sorted({c.t_num for c in crossings} | {c.s_num for c in crossings})
    min_sep = min((n - m for m, n in zip(nums, nums[1:])), default=ab) / ab
    half = min(0.012, 0.35 * min_sep)

    def u_at(i: int) -> float:
        return i * step if i < last else 1.0

    runs = memoryview(bytearray(8 * ab)).cast("H")
    for m in nums:
        u0 = m / ab
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
        runs[4 * m], runs[4 * m + 1] = lo, hi
        runs[4 * m + 2], runs[4 * m + 3] = starts[lo], starts[hi]

    labels = {}
    for c in crossings:
        x = cos(pi * (fold(c.t_num, b) / b))
        y = cos(pi * (fold(c.t_num, a) / a))
        px, py = _OFF + _SCALE * x, _OFF - _SCALE * y
        labels[c.t_num] = (c.s_num, f'<text x="{_fmt(px + 5)}" '
                                    f'y="{_fmt(py - 5)}" '
                                    f'font-size="{_fmt(_SCALE * 0.05)}">')
    return text, runs, labels


def render_xy(K: HarmonicTriple, options: RenderOptions | None = None,
              crossings: Sequence[Crossing] | None = None) -> str:
    """Plane diagram with the under-strand broken at every crossing.

    The curve is sampled as (cos(a u), cos(b u)) for u in [0, pi]; each
    under-passage removes a parameter window around its crossing, so the
    drawing consists of crossing_count + 1 polyline pieces.  ``crossings``
    is ``enumerate_crossings(K)``, computed here when not given; a list
    that is not K's raises ``ValueError``.
    """
    opt = options or RenderOptions()
    if crossings is None:
        crossings = enumerate_crossings(K)
    text, runs, tags = _xy_frame(K.a, K.b)
    labels = _per_crossing(tags, K, crossings)
    # Visible pieces: (first sample, end sample, their offsets in text).
    pieces = []
    start = start_at = 0
    for m in sorted([c.s_num if c.over_at_t else c.t_num for c in crossings]):
        lo, hi, lo_at, hi_at = runs[4 * m:4 * m + 4]
        if lo < hi:
            pieces.append((start, lo, start_at, lo_at))
            start, start_at = hi, hi_at
    pieces.append((start, SAMPLES, start_at, len(text)))
    body = [_polyline_element(text[i:j - 1])
            for lo, hi, i, j in pieces if hi - lo > 1]
    if opt.annotate_signs:
        body += [_sign_label(tag, c.sign)
                 for c, (_, tag) in zip(crossings, labels)]
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

    ``xt[x + b]`` and ``yt[y + a]`` are the ``_fmt`` text of the pixel
    coordinates of the integer abscissa x and ordinate y, ``points[m]`` is
    the "x,y" text of ``billiard_point(K, m)``, and ``marks[t_num]`` is
    (s_num, the ``<circle>`` element, the opening tag of the sign label)
    of the crossing at t_num.
    """

    height: int
    rect: str
    xt: tuple[str, ...]
    yt: tuple[str, ...]
    points: tuple[str, ...]
    marks: dict[int, tuple[int, str, str]]


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
    # Every point drawn has integer billiard coordinates (module
    # docstring), so these are all the pixel coordinates a drawing needs.
    xs = [offx + scale * x for x in range(-b, b + 1)]
    ys = [offy - scale * y for y in range(-a, a + 1)]
    xt = tuple(map(_fmt, xs))
    yt = tuple(map(_fmt, ys))
    K = HarmonicTriple(a, b, 1)  # billiard_point reads only a and b
    lattice = [billiard_point(K, m) for m in range(a * b + 1)]
    points = tuple(f"{xt[x + b]},{yt[y + a]}" for x, y in lattice)
    marks = {}
    for c, _ in _crossing_frame(a, b):
        x, y = lattice[c.t_num]
        marks[c.t_num] = (
            c.s_num,
            f'<circle cx="{xt[x + b]}" cy="{yt[y + a]}" r="{_STROKE_WIDTH}" '
            f'fill="#c22"/>',
            f'<text x="{_fmt(xs[x + b] + 4)}" y="{_fmt(ys[y + a] - 4)}" '
            f'font-size="{_fmt(scale * 0.6)}">')
    return _Frame(height, rect, xt, yt, points, marks)


def render_billiard(K: HarmonicTriple,
                    options: RenderOptions | None = None,
                    crossings: Sequence[Crossing] | None = None) -> str:
    """Billiard trajectory in the (-b, b) x (-a, a) rectangle.

    The under-strand is broken by removing half a lattice step of the
    trajectory on each side of every under-passage; crossings are marked
    with dots (and signs, if requested).  ``crossings`` is
    ``enumerate_crossings(K)``, computed here when not given; a list that
    is not K's raises ``ValueError``.
    """
    opt = options or RenderOptions()
    if crossings is None:
        crossings = enumerate_crossings(K)
    frame = _billiard_frame(K.a, K.b)
    marks = _per_crossing(frame.marks, K, crossings)
    a, b, xt, yt = K.a, K.b, frame.xt, frame.yt

    def midpoint(m: int, n: int) -> str:
        # Of the lattice points m and n: abscissa fold(m, b) + fold(n, b) - b.
        return f"{xt[fold(m, b) + fold(n, b)]},{yt[fold(m, a) + fold(n, a)]}"

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
    for c, (_, circle, tag) in zip(crossings, marks):
        body.append(circle)
        if opt.annotate_signs:
            body.append(_sign_label(tag, c.sign))
    return _svg_document(WIDTH, frame.height, body)
