"""Embedded knot identification table.

The table ships as a versioned text file (one record per line: name,
starred flag, crossing number, determinant, Alexander coefficients,
fraction, source triple).  Its rows cover exactly the knots this package
can name honestly: the 51 curves with (a-1)(b-1) <= 30 plus the two larger
identified curves (8_17 and 10_115).  The file is the one source of the
table: its name, starred, fraction and source columns are data, and the
others are derived; a test recomputes them with this package's own
pipeline and pins the shipped copy to the result.

Lookups outside the table report None ("unidentified") rather than guess.
They read one index, built from ``records()`` on the first lookup and
kept for the process: the first row of each source triple
(``name_by_source``), the fraction-bearing rows by alpha
(``name_by_fraction``) and all rows by determinant
(``name_by_invariants``), each list in table order.  So a lookup tests the
few rows that share its key, and finds what a scan of the table in order
would find.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from .cfrac import SchubertFraction, two_bridge_equivalent
from .invariants import LaurentPoly

class KnotRecord(NamedTuple):
    name: str
    starred: bool
    crossing_number: int
    determinant: int
    alexander: LaurentPoly
    fraction: SchubertFraction | None
    source: str


def _parse_fraction(text: str) -> SchubertFraction:
    if "/" in text:
        num, den = text.split("/")
        return SchubertFraction(int(num), int(den))
    return SchubertFraction(int(text), 1)


def _table_lines() -> list[str]:
    return resources.files(__package__).joinpath(
        "data/knot_table.txt").read_text().splitlines()


def _fields(line: str) -> list[str]:
    return [p.strip() for p in line.split("|")]


@functools.cache
def records() -> tuple[KnotRecord, ...]:
    """The table's rows, parsed on the first call."""
    rows = []
    for line in _table_lines():
        if line.startswith("#"):
            continue
        name, starred, cn, det, coeffs, frac, source = _fields(line)
        rows.append(KnotRecord(
            name=name,
            starred=starred == "1",
            crossing_number=int(cn),
            determinant=int(det),
            alexander=LaurentPoly.from_coeffs(
                int(x) for x in coeffs.split(",")),
            fraction=None if frac == "-" else _parse_fraction(frac),
            source=source,
        ))
    return tuple(rows)


class _Index(NamedTuple):
    by_source: dict[str, KnotRecord]
    by_alpha: dict[int, list[KnotRecord]]
    by_determinant: dict[int, list[KnotRecord]]


@functools.cache
def _index() -> _Index:
    """The table's rows keyed three ways, built on the first lookup."""
    index = _Index({}, {}, {})
    for rec in records():
        index.by_source.setdefault(rec.source, rec)
        if rec.fraction is not None:
            index.by_alpha.setdefault(rec.fraction.alpha, []).append(rec)
        index.by_determinant.setdefault(rec.determinant, []).append(rec)
    return index


def name_by_source(source: str) -> KnotRecord | None:
    """The row computed from the curve ``source``, written as in the
    table's source column (``H(5,6,7)``), or None."""
    return _index().by_source.get(source)


def name_by_fraction(fraction: SchubertFraction) -> KnotRecord | None:
    """Two-bridge lookup: match up to mirror against fraction-bearing rows."""
    for rec in _index().by_alpha.get(fraction.alpha, ()):
        if two_bridge_equivalent(rec.fraction, fraction, up_to_mirror=True):
            return rec
    return None


def name_by_invariants(delta: LaurentPoly, det: int,
                       crossing_bound: int) -> KnotRecord | None:
    """Alexander-polynomial lookup, honest about its limits.

    Matches require equal normalized polynomial, equal determinant, and a
    named crossing number within the diagram's bound.  If two distinct
    names collide on the key the lookup abstains (returns None) rather
    than pick one.
    """
    hits = [rec for rec in _index().by_determinant.get(det, ())
            if rec.crossing_number <= crossing_bound
            and rec.alexander == delta]
    names = {rec.name for rec in hits}
    if len(names) == 1:
        return hits[0]
    return None
